import hashlib
import math

import numpy as np
import pytest

from stablegfn.approximator import NonFiniteError
from stablegfn.envs import Hypergrid, RegularTree
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
from stablegfn import certify

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


def test_update_threshold_aggregations():
    losses = [1.0, 4.0, 9.0]
    assert update_threshold(0.0, losses, 1.0, "max") == 3.0
    assert update_threshold(0.0, losses, 1.0, "mean") == 2.0
    assert update_threshold(0.0, losses, 1.0, "median") == 2.0


def test_update_threshold_rejects_empty():
    with pytest.raises(ValueError):
        update_threshold(1.0, [], 0.05)


def test_topk_buffer_eviction_and_order():
    buf = TopKBuffer(2)
    assert buf.merge({1: 1.0, 2: 5.0, 3: 3.0})
    assert buf.states() == [2, 3]
    assert buf.min_reward() == 3.0
    # merging something worse leaves membership unchanged
    assert not buf.merge({4: 0.5})
    assert buf.states() == [2, 3]


def test_topk_buffer_dedup_and_ties():
    buf = TopKBuffer(3)
    buf.merge({5: 1.0, 7: 1.0, 6: 1.0, 8: 1.0})
    assert buf.states() == [5, 6, 7]  # ties break by state index


def test_topk_buffer_min_reward_monotone_once_full():
    rng = np.random.default_rng(0)
    rewards = {s: float(rng.uniform(0, 10)) for s in range(50)}  # env-fixed rewards
    buf = TopKBuffer(4)
    last = -math.inf
    for _ in range(200):
        s = int(rng.integers(0, 50))
        buf.merge({s: rewards[s]})
        if len(buf) == buf.capacity:
            assert buf.min_reward() >= last - 1e-12
            last = buf.min_reward()


def test_topk_buffer_sampling_proportional():
    buf = TopKBuffer(2)
    buf.merge({10: 3.0, 11: 1.0})
    rng = np.random.default_rng(0)
    draws = buf.sample(rng, 20_000)
    frac = (draws == 10).mean()
    assert abs(frac - 0.75) < 0.02


def test_topk_buffer_empty_sampling_errors():
    with pytest.raises(ValueError):
        TopKBuffer(2).sample(np.random.default_rng(0), 1)


def _tagged_paths(rewards, first=0, log_pf=0.0):
    """Scored paths 0 -> k -> sink for k = first, first + 1, ..., tagged "k" in provenance."""
    ks = list(range(first, first + len(rewards)))
    return PathBatch(np.array([[0, k, 10**6] for k in ks], dtype=np.int64).reshape(-1, 3),
                     np.full(len(ks), 3), np.array(rewards, dtype=float),
                     np.array([str(k) for k in ks], dtype=str),
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
    assert out.rewards.tolist() == [2.0] * 3 and out.provenance.tolist() == ["replayed"] * 3
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
                _insert_one(ref, capacity, (str(tag), r))
                tag += 1
            # same items in the same order, so ReplayBuffer.sample draws the same
            assert buf.paths.provenance.tolist() == [t for t, _ in ref]
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


@pytest.mark.parametrize("objective", ["tb", "db", "fm", "subtb", "wdb"])
def test_baseline_round_caches_only_what_it_backprops(monkeypatch, objective):
    cached, backpropped = [], []
    init, backprop = EdgeBatch.__init__, EdgeBatch.backprop

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.cache:
            cached.append(self)

    def recorded_backprop(self):
        backpropped.append(self)
        backprop(self)

    monkeypatch.setattr(EdgeBatch, "__init__", recorded_init)
    monkeypatch.setattr(EdgeBatch, "backprop", recorded_backprop)
    env = Hypergrid(2, 4)
    model = PolicyModel.build(env, "mlp", hidden=(8, 8), flow_head=True, rng=rng_for(0, objective))
    cfg = TrainConfig(objective=objective, max_rounds=4, seed=1, replay_batch=4)
    Trainer(model, env, cfg).run()
    assert cached and all(any(b is e for b in backpropped) for e in cached)


def _record_edge_batches(monkeypatch):
    """(cached EdgeBatches in build order, EdgeBatches in backprop order)."""
    cached, backpropped = [], []
    init, backprop = EdgeBatch.__init__, EdgeBatch.backprop

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.cache:
            cached.append(self)

    def recorded_backprop(self):
        backpropped.append(self)
        backprop(self)

    monkeypatch.setattr(EdgeBatch, "__init__", recorded_init)
    monkeypatch.setattr(EdgeBatch, "backprop", recorded_backprop)
    return cached, backpropped


@pytest.mark.parametrize("source, in_gradient", [
    ("buffer", "auto"), ("exact", "auto"), ("exact", "never"), ("buffer", "always"),
], ids=["buffer-auto", "exact-auto", "exact-never", "buffer-always"])
def test_stable_round_caches_only_what_it_backprops(monkeypatch, source, in_gradient):
    cached, backpropped = _record_edge_batches(monkeypatch)
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


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(objective="nope")
    with pytest.raises(ValueError):
        TrainConfig(objective="db", stabilize=True)
    with pytest.raises(ValueError):
        TrainConfig(tv_target=1.5)
    with pytest.raises(ValueError):
        TrainConfig(threshold_agg="p90")
    with pytest.raises(ValueError):
        TrainConfig(backward_source="psychic")
