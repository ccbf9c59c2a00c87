import csv
import hashlib
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from stablegfn import envs
from stablegfn.approximator import NonFiniteError
from stablegfn.envs import EnumerationCapError, Hypergrid, RegularTree
from stablegfn.losses import batch_loss
from stablegfn.oracle import balanced_tabular_model, exact_tv
from stablegfn.policy import (
    EdgeBatch,
    PathBatch,
    PolicyModel,
    proportional_draw,
    rollout,
    score_paths,
)
from stablegfn.trainer import (
    CSV_COLUMNS,
    ReplayBuffer,
    TopKBuffer,
    TrainConfig,
    Trainer,
    rng_for,
    update_threshold,
)
from stablegfn import certify, config, losses

from loss_reference import reference_flow_delta


def test_update_threshold_ema():
    assert update_threshold(1.0, [9.0], 0.05) == pytest.approx(1.10)


def test_update_threshold_zero_batch_shrinks():
    c = 1.0
    for _ in range(50):
        c = update_threshold(c, [0.0, 0.0], 0.05)
    assert c == pytest.approx(0.95**50, rel=1e-9)


def test_update_threshold_beta_one_takes_batch():
    assert update_threshold(3.0, [4.0, 16.0, 1.0], 1.0) == pytest.approx(4.0)


def test_update_threshold_rejects_empty():
    with pytest.raises(ValueError):
        update_threshold(1.0, [], 0.05)


def _rewards(table):
    """A reward table over states 0..max from a {state: reward} mapping."""
    r = np.zeros(max(table) + 1)
    r[list(table)] = list(table.values())
    return r


def test_topk_buffer_eviction_and_order():
    buf = TopKBuffer(2, _rewards({1: 1.0, 2: 5.0, 3: 3.0, 4: 0.5}))
    assert buf.merge(np.array([1, 2, 3]))
    assert buf.states() == [2, 3]
    assert buf.min_reward() == 3.0
    # merging something worse leaves membership unchanged
    assert not buf.merge(np.array([4]))
    assert buf.states() == [2, 3]


def test_topk_buffer_dedup_and_ties():
    buf = TopKBuffer(3, _rewards({5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}))
    buf.merge(np.array([5, 7, 7, 6, 8, 5]))
    assert buf.states() == [5, 6, 7]  # ties break by state index


def test_topk_buffer_min_reward_monotone_once_full():
    rng = np.random.default_rng(0)
    rewards = rng.uniform(0, 10, 50)  # env-fixed rewards
    buf = TopKBuffer(4, rewards)
    last = -math.inf
    for _ in range(200):
        buf.merge(rng.integers(0, 50, 1))
        if len(buf) == buf.capacity:
            assert buf.min_reward() >= last - 1e-12
            last = buf.min_reward()


def test_topk_buffer_sampling_proportional():
    buf = TopKBuffer(2, _rewards({10: 3.0, 11: 1.0}))
    buf.merge(np.array([10, 11]))
    rng = np.random.default_rng(0)
    draws = buf.sample(rng, 20_000)
    frac = (draws == 10).mean()
    assert abs(frac - 0.75) < 0.02


def test_topk_buffer_empty_sampling_errors():
    with pytest.raises(ValueError):
        TopKBuffer(2, np.ones(3)).sample(np.random.default_rng(0), 1)


def _tagged_paths(rewards, first=0, log_pf=0.0):
    """Scored paths 0 -> k -> sink for k = first, first + 1, ...: the terminal k tags each."""
    ks = list(range(first, first + len(rewards)))
    return PathBatch(np.array([[0, k, 10**6] for k in ks], dtype=np.int64).reshape(-1, 3),
                     np.full(len(ks), 3), np.array(rewards, dtype=float),
                     np.full(len(ks), log_pf), np.zeros(len(ks)))


def _insert_one(items, capacity, item):
    """The list reference: (tag, reward) items, one stable sort per insert once full."""
    items.append(item)
    if len(items) > capacity:
        items.sort(key=lambda t: -t[1])
        del items[capacity:]


def test_replay_buffer_priority_eviction():
    buf = ReplayBuffer(2)
    for k, r in enumerate((1.0, 5.0, 3.0)):
        buf.insert(_tagged_paths([r], k))
    assert sorted(buf.paths.rewards.tolist()) == [3.0, 5.0]


def test_replay_buffer_single_item_and_empty():
    buf = ReplayBuffer(4)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 1)
    buf.insert(_tagged_paths([], 0))
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 1)
    buf.insert(_tagged_paths([2.0], 7, log_pf=-0.5))
    out = buf.sample(np.random.default_rng(0), 3)
    assert len(out) == 3
    assert out.rewards.tolist() == [2.0] * 3
    assert out.states.tolist() == [[0, 7, 10**6]] * 3 and out.log_pf is None


def test_replay_round_insert_matches_one_at_a_time():
    rng = np.random.default_rng(0)
    for _ in range(300):
        capacity = int(rng.integers(1, 12))
        buf, ref, tag = ReplayBuffer(capacity), [], 0
        for _ in range(int(rng.integers(1, 8))):
            # few distinct rewards: ties are the rule
            rewards = rng.integers(1, 4, int(rng.integers(0, 10))).astype(float).tolist()
            buf.insert(_tagged_paths(rewards, tag))
            for r in rewards:
                _insert_one(ref, capacity, (tag, r))
                tag += 1
            # same items in the same order, so ReplayBuffer.sample draws the same
            assert buf.paths.terminals.tolist() == [t for t, _ in ref]
            assert buf.paths.rewards.tolist() == [r for _, r in ref]


def test_replay_sample_matches_list_reference():
    rng = np.random.default_rng(1)
    buf, ref, tag = ReplayBuffer(9), [], 0
    for _ in range(6):
        rewards = rng.uniform(0.5, 4.0, 4).tolist()  # distinct: every row draws differently
        buf.insert(_tagged_paths(rewards, tag))
        for r in rewards:
            _insert_one(ref, 9, (tag, r))
            tag += 1
    draws, ref_draws = np.random.default_rng(2), np.random.default_rng(2)
    for count in (1, 5, 64):
        got = buf.sample(draws, count)
        idx = proportional_draw(ref_draws, np.array([r for _, r in ref]), count)
        want = [ref[i] for i in idx.tolist()]
        assert got.terminals.tolist() == [k for k, _ in want]
        assert got.rewards.tolist() == [r for _, r in want]
        assert got.states.tolist() == [[0, k, 10**6] for k, _ in want]
    assert draws.bit_generator.state == ref_draws.bit_generator.state


def _tree_config(**kw):
    base = dict(
        objective="tb",
        stabilize=True,
        tv_target=0.01,
        patience=5,
        max_rounds=40,
        learning_rate=1e-3,
        seed=3,
        backward_source="exact",
        cert_m=50,
        cert_n=50,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_determinism_identical_runs(tmp_path):
    paths = []
    for run in ("a", "b"):
        env = RegularTree(3, 2)
        model = PolicyModel.build(env, "tabular", rng=rng_for(3, "model.init"))
        tr = Trainer(model, env, _tree_config(), metrics_path=str(tmp_path / f"{run}.csv"))
        tr.run()
        paths.append(tmp_path / f"{run}.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_certifying_run_fingerprint():
    """The training run of the bench's tree-tab-cert workload, pinned bit for
    bit: a change to the rollout's draws, the certificate's samplers or the
    update fails here, not only in the bench's round count."""
    raw = {"seed": 0, "env": {"kind": "tree", "branching": 3, "depth": 4},
           "model": {"kind": "tabular"},
           "train": {"stabilize": True, "tv_target": 0.05, "batch_size": 32, "max_rounds": 5000}}
    resolved = config.resolve(raw)
    env = config.build_env(resolved)
    model = config.build_model(resolved, env)
    state = Trainer(model, env, config.build_train_config(resolved)).run()
    assert state.certified and state.round == 455
    assert state.bound == 0.04992305840518782
    assert hashlib.sha256(model.params.values.tobytes()).hexdigest() == (
        "0591dd842754bb1f869f249b06bc6b527d69febc3336202b3f1023fcf0e445e9")


# sha256 of the parameters after 6 baseline rounds with replay, on tabular
# nets with a flow head (no matrix product, so no BLAS rounding): a change to
# an objective's gradients, the rollout, the replay draws or the update fails here
BASELINE_FINGERPRINTS = {
    "tb": "987e4cb740dbb9416c4e25e29405068574574907b08f7c6733113b3368f1f5a4",
    "db": "9c340219c68a57e2ce7f1785c7712672f5bfd8c728555037ff9d7e6b6558d99f",
    "fm": "12cbfa3082b7d774b2260da5e018beb0965e5a5ae3c29dfbeb28c7af02f6376b",
    "subtb": "fb18ff8cfa3904d554f15a04070a7306d7e220d0f5e909359801e32dbc7a2163",
    "wdb": "6a8735715d355c25e14fbfd8e34a4529242de756a2bce803b5ac7ad7d0fd5191",
}


@pytest.mark.parametrize("objective", list(BASELINE_FINGERPRINTS))
def test_baseline_run_fingerprint(objective):
    env = Hypergrid(2, 4)
    model = PolicyModel.build(env, "tabular", flow_head=True, rng=rng_for(0, objective))
    cfg = TrainConfig(objective=objective, max_rounds=6, seed=3, batch_size=8,
                      replay_batch=4, replay_size=16, learning_rate=0.05)
    tr = Trainer(model, env, cfg)
    tr.run()
    assert len(tr.replay) == 16
    assert hashlib.sha256(model.params.values.tobytes()).hexdigest() == (
        BASELINE_FINGERPRINTS[objective])


def test_metrics_csv_schema(tmp_path):
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    path = tmp_path / "m.csv"
    tr = Trainer(model, env, _tree_config(max_rounds=3), metrics_path=str(path))
    tr.run()
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "round", "objective", "mean_loss", "max_loss", "max_to_rest", "mean_delta",
        "active_delta_frac", "threshold", "buffer_size", "buffer_min_reward",
        "n_backward", "cert_bound", "cert_main", "skip", "exact_tv", "modes_discovered",
    ]


def test_metrics_csv_keeps_the_csv_writer_bytes(tmp_path):
    """metrics.csv is rendered without the csv module; its bytes stay those
    ``csv.writer`` wrote from the rows, floats by repr and None as empty."""
    env = RegularTree(3, 2)
    model = PolicyModel.build(env, "tabular", rng=rng_for(3, "model.init"))
    path = tmp_path / "m.csv"
    tr = Trainer(model, env, _tree_config(), metrics_path=str(path))
    tr.run()
    assert {row["cert_bound"] is None for row in tr.rows} == {True, False}
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for row in tr.rows:
        writer.writerow(["" if row[c] is None else repr(row[c]) if isinstance(row[c], float)
                         else str(row[c]) for c in CSV_COLUMNS])
    assert path.read_bytes() == text.getvalue().encode("utf-8")
    assert path.read_bytes().count(b"\r\n") == len(tr.rows) + 1


def test_metrics_streamed_before_a_crash(tmp_path):
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    path = tmp_path / "m.csv"
    tr = Trainer(model, env, TrainConfig(max_rounds=10, seed=0), metrics_path=str(path))
    step, calls = tr.optimizer.step, []

    def step_failing_on_round_3():
        calls.append(None)
        if len(calls) == 3:
            raise NonFiniteError("injected")
        step()

    tr.optimizer.step = step_failing_on_round_3
    with pytest.raises(NonFiniteError):
        tr.run()
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_patience_resets_on_buffer_change():
    env = RegularTree(3, 2)
    model = PolicyModel.build(env, "tabular", rng=rng_for(1, "m"))
    tr = Trainer(model, env, _tree_config(patience=1000, max_rounds=0))
    seen_patience = []
    for _ in range(30):
        tr.stable_round()
        seen_patience.append(tr.state.patience_count)
    # patience only grows across rounds with an unchanged buffer
    grew = [b - a for a, b in zip(seen_patience[:-1], seen_patience[1:])]
    assert all(g in (1, -seen_patience[i]) for i, g in enumerate(grew))
    assert any(g == 1 for g in grew)


def test_skip_rounds_leave_parameters_unchanged():
    env = RegularTree(3, 2)
    model = balanced_tabular_model(env, flow_head=False)
    # hand the trainer an already-converged model: certificates fire and pass
    cfg = _tree_config(patience=1, max_rounds=30, cert_m=200, cert_n=200,
                       tv_target=0.05)
    tr = Trainer(model, env, cfg)
    skipped = 0
    for _ in range(cfg.max_rounds):
        before = hashlib.sha256(model.params.values.tobytes()).hexdigest()
        row = tr.stable_round()
        after = hashlib.sha256(model.params.values.tobytes()).hexdigest()
        if row["skip"]:
            skipped += 1
            assert before == after
    assert skipped > 0


def test_capped_items_stay_below_threshold():
    env = RegularTree(3, 2)
    rng = rng_for(0, "cap")
    model = PolicyModel.build(env, "tabular", rng=rng)
    model.forward_net.table[...] = rng.normal(0, 1.0, model.forward_net.table.shape)
    trajs = rollout(model, env, rng, [env.initial_state] * 16)
    score_paths(model, env, trajs)
    lm, lt = certify.records_from_trajectories(trajs, model.logz)
    cap = 0.4 * float(np.abs(lm - lt).max())
    deltas = np.array([reference_flow_delta(a, b, cap) for a, b in zip(lm, lt)])
    report = batch_loss(model, env, trajs, "tb", deltas=deltas)
    active = deltas > 0
    assert active.any()
    assert np.all(report.per_item[active] <= cap**2 + 1e-9)


def test_stabilize_off_is_plain_objective(tmp_path):
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    cfg = TrainConfig(objective="tb", stabilize=False, max_rounds=5, seed=0)
    path = tmp_path / "plain.csv"
    tr = Trainer(model, env, cfg, metrics_path=str(path))
    tr.run()
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(r.split(",")[1] == "tb" for r in rows)
    # no stabilization: no reference flow and no certificates
    assert all(r.split(",")[5] == "0.0" for r in rows)  # mean_delta
    assert all(r.split(",")[11] == "" for r in rows)    # cert_bound


def test_buffer_fallback_first_round():
    for in_gradient, n_backward in (("always", 4), ("auto", 0)):
        env = RegularTree(2, 2)
        model = PolicyModel.build(env, "tabular")
        cfg = TrainConfig(objective="tb", stabilize=True, max_rounds=3, seed=0,
                          backward_source="buffer", batch_size=8, patience=100,
                          backward_in_gradient=in_gradient)
        tr = Trainer(model, env, cfg)
        row0 = tr.stable_round()
        assert row0["n_backward"] == 0
        assert tr.state.fallback_rounds == 1
        row1 = tr.stable_round()
        # buffer populated: half the batch is walked backward when it enters
        # the gradient; by default (auto) nothing reads it, so none is drawn
        assert row1["n_backward"] == n_backward


def test_baseline_objectives_run_one_round():
    for objective in ("tb", "db", "fm", "subtb", "wdb"):
        env = RegularTree(2, 2)
        model = PolicyModel.build(
            env, "tabular", flow_head=objective != "tb", rng=rng_for(0, objective)
        )
        cfg = TrainConfig(objective=objective, max_rounds=2, seed=1)
        tr = Trainer(model, env, cfg)
        state = tr.run()
        assert state.round == 2
        assert np.all(np.isfinite(model.params.values))


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
@pytest.mark.parametrize("objective, stabilize", [
    ("tb", False), ("tb", True), ("db", False), ("fm", False), ("subtb", False), ("wdb", False),
], ids=["tb", "stable", "db", "fm", "subtb", "wdb"])
def test_every_slice_a_config_built_model_trains_moves(objective, stabilize, kind):
    # every side of H(2,4) has choice states, so each net the objective reads
    # gets a gradient, and the config builds no net that it does not read
    resolved = config.resolve({
        "env": {"kind": "hypergrid", "dimension": 2, "side": 4},
        "model": {"kind": kind, "hidden": [8, 8]},
        "train": {"objective": objective, "stabilize": stabilize, "batch_size": 8,
                  "max_rounds": 3}})
    env = config.build_env(resolved)
    trainer = Trainer(config.build_model(resolved, env), env, config.build_train_config(resolved))
    trainer.run()
    params = trainer.model.params
    # the flow objectives' losses read no log Z, though their certificates
    # do: the open half of ROADMAP item 18, whose mend drops this exemption
    unread = {"logz"} if objective != "tb" else set()
    still = [name for name in params.names if name not in unread
             and not np.any(trainer.optimizer.m[slice(*params.slice_bounds(name))])]
    assert still == []


@pytest.mark.parametrize("objective", ["tb", "db", "fm", "subtb", "wdb"])
def test_baseline_round_caches_only_what_it_backprops(monkeypatch, objective):
    built, cached, backpropped = _record_edge_batches(monkeypatch)
    sides, side_backprops = [], []  # fm's forward sides, as losses evaluates them
    side, backprop_side = losses._side, losses._backprop_side

    def recorded_side(*args, **kwargs):
        out = side(*args, **kwargs)
        sides.append(out[1])
        return out

    def recorded_backprop_side(fwd, coeff):
        side_backprops.append(fwd)
        backprop_side(fwd, coeff)

    monkeypatch.setattr(losses, "_side", recorded_side)
    monkeypatch.setattr(losses, "_backprop_side", recorded_backprop_side)
    env = Hypergrid(2, 4)
    model = PolicyModel.build(env, "mlp", hidden=(8, 8), flow_head=True, rng=rng_for(0, objective))
    cfg = TrainConfig(objective=objective, max_rounds=4, seed=1, replay_batch=4)
    Trainer(model, env, cfg).run()
    if objective == "fm":
        # no edge batch: one cached forward side per round, the loss's own
        assert not built
        assert len(sides) == len(side_backprops) == cfg.max_rounds
        assert all(s is not None and s is b for s, b in zip(sides, side_backprops))
        return
    assert not sides
    assert cached and all(any(b is e for b in backpropped) for e in cached)
    # one cached batch per round, the loss's own: no batch only scores the paths
    assert len(built) == len(cached) == cfg.max_rounds


def _record_edge_batches(monkeypatch):
    """(EdgeBatches in build order, the cached ones, EdgeBatches in backprop order)."""
    built, cached, backpropped = [], [], []
    init, backprop = EdgeBatch.__init__, EdgeBatch.backprop

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
        if self.cache:
            cached.append(self)

    def recorded_backprop(self, *args):
        backpropped.append(self)
        backprop(self, *args)

    monkeypatch.setattr(EdgeBatch, "__init__", recorded_init)
    monkeypatch.setattr(EdgeBatch, "backprop", recorded_backprop)
    return built, cached, backpropped


@pytest.mark.parametrize("source, in_gradient", [
    ("buffer", "auto"), ("exact", "auto"), ("exact", "never"), ("buffer", "always"),
], ids=["buffer-auto", "exact-auto", "exact-never", "buffer-always"])
def test_stable_round_caches_only_what_it_backprops(monkeypatch, source, in_gradient):
    _, cached, backpropped = _record_edge_batches(monkeypatch)
    env = Hypergrid(2, 4)
    # near-balanced: certificates fire every unchanged round, and some skip
    model = balanced_tabular_model(env, flow_head=False)
    cfg = TrainConfig(objective="tb", stabilize=True, max_rounds=12, seed=1, batch_size=8,
                      patience=1, tv_target=0.3, cert_m=64, cert_n=64,
                      backward_source=source, backward_in_gradient=in_gradient)
    tr = Trainer(model, env, cfg)
    skips = [tr.stable_round()["skip"] for _ in range(cfg.max_rounds)]
    assert 0 < sum(skips) < len(skips)
    # one cached batch per trained round, backpropped once; a skipped round caches none
    assert len(cached) == skips.count(0)
    assert len(backpropped) == len(cached)
    assert all(b is e for b, e in zip(backpropped, cached))


def test_replay_mixing_baseline():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    cfg = TrainConfig(objective="tb", max_rounds=4, seed=2, replay_batch=4, replay_size=16)
    tr = Trainer(model, env, cfg)
    tr.run()
    assert len(tr.replay) > 0


def test_stable_training_reduces_tv():
    env = RegularTree(3, 2, leaf_rewards=np.linspace(0.5, 2.0, 9))
    model = PolicyModel.build(env, "tabular", rng=rng_for(5, "m"))
    before = exact_tv(model, env)
    cfg = _tree_config(max_rounds=400, learning_rate=0.01, cert_m=100, cert_n=100)
    Trainer(model, env, cfg).run()
    after = exact_tv(model, env)
    assert after < before
    assert after < 0.05


def test_stable_training_survives_log_ratios_past_the_float_range():
    # log-rewards near -737 put the first threshold past log(DBL_MAX) = 709.78...
    env = RegularTree(2, 2, [1e-320] * 4)
    model = PolicyModel.build(env, "tabular", rng=rng_for(0, "m"))
    trainer = Trainer(model, env, _tree_config(max_rounds=6, patience=2, cert_m=20, cert_n=20))
    certs, certify_once = [], trainer._certify
    trainer._certify = lambda: certs.append(certify_once()) or certs[-1]
    state = trainer.run()
    assert state.round == 6 and math.isfinite(state.threshold)
    cert = [c for c in certs if c.bound is not None][-1]
    assert cert.threshold > 709.78 and cert.bound == 1.0 and not state.certified
    assert math.isinf(cert.raw_bound) and not cert.condition_violated


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(objective="nope")
    with pytest.raises(ValueError):
        TrainConfig(objective="db", stabilize=True)
    with pytest.raises(ValueError):
        TrainConfig(tv_target=1.5)
    with pytest.raises(ValueError):
        TrainConfig(backward_source="psychic")


@pytest.mark.parametrize("kind, key", [("tabular", "model.kind tabular"),
                                       ("mlp", r"model.hidden \[4, 3\]")], ids=["tabular", "mlp"])
def test_parameter_vectors_are_refused_above_physical_memory(monkeypatch, kind, key):
    env = RegularTree(2, 2)
    size = PolicyModel.build(env, kind, hidden=(4, 3)).params.size
    cfg = TrainConfig(batch_size=1, cert_m=1, cert_n=1)  # walks of a few bytes

    def memory(nbytes):
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(envs, "os", SimpleNamespace(sysconf=sizes.get))

    # a model holds two float64 vectors, its values and their gradients
    memory(16 * size - 1)
    with pytest.raises(EnumerationCapError, match=f"^{key}: {size} parameters need "
                                                  ".* GiB of parameter vectors, above "):
        PolicyModel.build(env, kind, hidden=(4, 3))
    memory(16 * size)
    model = PolicyModel.build(env, kind, hidden=(4, 3))
    # a trainer adds Adam's moments m and v and two scratch rows
    memory(48 * size - 1)
    with pytest.raises(EnumerationCapError, match=f"^{key}: {size} parameters need "):
        Trainer(model, env, cfg)
    memory(48 * size)
    assert Trainer(model, env, cfg).optimizer.m.size == size


def test_invalid_backward_in_gradient_rejected():
    with pytest.raises(ValueError, match="^backward_in_gradient must be auto, always or never$"):
        TrainConfig(backward_in_gradient="sometimes")


@pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
def test_update_threshold_rejects_beta_outside_unit_interval(beta):
    with pytest.raises(ValueError, match=r"^beta must be in \(0, 1\]$"):
        update_threshold(1.0, [0.5], beta)


@pytest.mark.parametrize("capacity", [0, -1])
def test_buffers_refuse_capacity_below_one(capacity):
    with pytest.raises(ValueError, match="^capacity must be >= 1$"):
        TopKBuffer(capacity, np.ones(3))
    with pytest.raises(ValueError, match="^capacity must be >= 1$"):
        ReplayBuffer(capacity)
