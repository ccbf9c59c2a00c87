import argparse
import json
import math
import os
import re

import pytest
import yaml

from stablegfn import certify, cli, verify
from stablegfn.cli import _load_model_for, main
from stablegfn.config import OUTPUT_DIR_ENV_VAR, ConfigError, load_config, resolve
from stablegfn.policy import ROLLOUT_STATE_BYTES
from stablegfn.trainer import rng_for


TREE_CONFIG = {
    "seed": 11,
    "env": {"kind": "tree", "branching": 2, "depth": 2},
    "model": {"kind": "tabular"},
    "train": {
        "objective": "tb",
        "stabilize": True,
        "max_rounds": 25,
        "patience": 5,
        "backward_source": "exact",
        "cert_m": 40,
        "cert_n": 40,
        "learning_rate": 0.01,
    },
    "eval": {"samples": 2000, "oracle": True},
}


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run_train(tmp_path, payload, subdir="run"):
    payload = dict(payload)
    payload["output_dir"] = str(tmp_path / subdir)
    cfg = write_config(tmp_path, payload)
    assert main(["train", cfg]) == 0
    return tmp_path / subdir, cfg


def test_train_writes_artifacts(tmp_path):
    outdir, _ = run_train(tmp_path, TREE_CONFIG)
    for fname in ("metrics.csv", "resolved_config.json", "checkpoint.json", "certificate.json"):
        assert (outdir / fname).exists(), fname
    header = (outdir / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("round,objective,mean_loss")
    doc = json.loads((outdir / "certificate.json").read_text())
    assert list(doc) == [
        "theorem", "bound", "raw_bound", "threshold", "m", "n", "alpha", "confidence", "scope",
        "max_ratio", "main_term", "condition_violated", "subset_size", "captured_reward_mass",
        "partition_estimate", "search", "note", "wall_clock_s",
    ]
    assert doc["confidence"] == 1.0 - 2.0 * doc["alpha"] and 0.0 < doc["alpha"] < 0.5


def test_resolved_config_round_trip(tmp_path, monkeypatch):
    outdir, _ = run_train(tmp_path, TREE_CONFIG, "first")
    resolved_path = str(outdir / "resolved_config.json")
    monkeypatch.setenv(OUTPUT_DIR_ENV_VAR, str(tmp_path / "second"))
    assert main(["train", resolved_path]) == 0
    monkeypatch.delenv(OUTPUT_DIR_ENV_VAR)
    a = (tmp_path / "first" / "metrics.csv").read_bytes()
    b = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert a == b


def test_train_zero_rounds_headers_only(tmp_path):
    payload = dict(TREE_CONFIG)
    payload["train"] = dict(payload["train"], max_rounds=0)
    outdir, _ = run_train(tmp_path, payload)
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1


def test_train_rejects_unknown_objective(tmp_path):
    payload = dict(TREE_CONFIG)
    payload["train"] = dict(payload["train"], objective="magic")
    cfg = write_config(tmp_path, payload)
    assert main(["train", cfg]) == 2


def test_train_rejects_unknown_keys(tmp_path):
    payload = dict(TREE_CONFIG)
    payload["optimizer"] = {"kind": "sgd"}
    cfg = write_config(tmp_path, payload)
    assert main(["train", cfg]) == 2


def test_train_unknown_keys_of_mixed_types_exit_2_naming_both(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(TREE_CONFIG) + "1: x\nb: y\n")
    assert main(["train", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown key(s) [1, 'b'] in config\n"
    cfg = write_config(tmp_path, dict(TREE_CONFIG, b="y", a="x"))
    assert main(["train", cfg]) == 2
    assert capsys.readouterr().err == "error: unknown key(s) ['a', 'b'] in config\n"


@pytest.mark.parametrize("env", [
    {"kind": "tree", "branching": 2, "depth": 60},
    {"kind": "hypergrid", "dimension": 8, "side": 1000},
    {"kind": "one_more_mode", "branching": 2, "depth": 60, "epsilon": 0.1},
], ids=["tree_2_60", "grid_8_1000", "one_more_mode_2_60"])
def test_train_env_too_large_to_build_exits_2(tmp_path, capsys, env):
    payload = dict(TREE_CONFIG, env=env, output_dir=str(tmp_path / "run"))
    assert main(["train", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "states need" in err and "of memory" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["certify", "evaluate"])
def test_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, command):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    out = str(tmp_path / "nonexistent" / "x" / "out.json")
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert "Traceback" not in err


def _refuse_sampling(monkeypatch):
    """Make the certify and evaluate samplers fail the test if a command reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before set-up refused the command")

    monkeypatch.setattr(certify, "sample_certificate", refuse)
    monkeypatch.setattr(cli, "sample_forward_batch", refuse)


@pytest.mark.parametrize("command", ["certify", "evaluate"])
def test_output_in_a_missing_directory_exits_2_before_sampling(tmp_path, monkeypatch, capsys,
                                                                command):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    _refuse_sampling(monkeypatch)
    for out, reason in (("/nonexistent/x.json", "No such file or directory"),
                        (f"{cfg}/x.json", "Not a directory")):
        assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                     "--output", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


@pytest.mark.parametrize("command", ["certify", "evaluate"])
def test_output_that_is_a_directory_exits_2_at_the_write(tmp_path, capsys, command):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    out = str(tmp_path / "taken")
    os.mkdir(out)  # its folder exists, so only the write can find the fault
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"


@pytest.mark.parametrize("command, flags, key", [
    ("evaluate", ["--samples"], "--samples"), ("evaluate", [], "eval.samples"),
    ("certify", ["-m"], "-m"), ("certify", ["-n"], "-n"), ("certify", [], "train.cert_m"),
], ids=["evaluate-flag", "evaluate-config", "certify-m", "certify-n", "certify-config"])
def test_sample_count_whose_walk_matrix_exceeds_memory_exits_2_at_setup(
        tmp_path, monkeypatch, capsys, command, flags, key):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    if not flags:  # the count comes from the config
        section, name = ("eval", "samples") if command == "evaluate" else ("train", "cert_m")
        payload = dict(TREE_CONFIG, **{section: dict(TREE_CONFIG[section], **{name: 10**12})})
        cfg = write_config(tmp_path, payload, "big.yaml")
    _refuse_sampling(monkeypatch)
    out = tmp_path / "out.json"
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", str(out), *flags, *[str(10**12)] * len(flags)]) == 2
    err = capsys.readouterr().err
    # T(2,2) has 4 levels: 10**12 walks x 4 int64 cells
    assert err.startswith(f"error: {key}: {10**12} walks need 2.98e+04 GiB of walk matrix, ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["cert_m", "cert_n", "batch_size"])
def test_train_sample_count_whose_walk_matrix_exceeds_memory_exits_2_at_setup(
        tmp_path, capsys, key):
    assert _train_with(tmp_path, train={key: 10**12}) == 2
    assert capsys.readouterr().err.startswith(f"error: train.{key}: {10**12} walks need ")
    assert not (tmp_path / "run").exists()


def test_train_batch_whose_rollout_exceeds_memory_exits_2_at_setup(tmp_path, capsys):
    # the smallest batch whose rollout lists, at two states a walk, exceed
    # physical memory, although its walk matrix (T(2,2): 4 int64 cells a
    # walk) would fit
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    batch = have // (2 * ROLLOUT_STATE_BYTES) + 1
    assert 8 * 4 * batch <= have
    assert _train_with(tmp_path, train={"batch_size": batch}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train.batch_size: {batch} walks need ") and "rollout lists" in err
    assert not (tmp_path / "run").exists()  # refused before resolved_config.json


def test_train_batch_whose_walk_matrix_exceeds_memory_exits_2_at_setup(tmp_path, capsys):
    # T(2,11): every walk holds 13 states, so its padded rows (13 int64 cells)
    # exceed physical memory although two listed states a walk would fit
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    batch = have // 100
    assert 2 * ROLLOUT_STATE_BYTES * batch <= have < 8 * 13 * batch
    assert _train_with(tmp_path, env={"depth": 11}, train={"batch_size": batch}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train.batch_size: {batch} walks need ") and "walk matrix" in err
    assert not (tmp_path / "run").exists()  # refused before resolved_config.json


def test_train_missing_config():
    assert main(["train", "/nonexistent/config.yaml"]) == 2


def test_certify_from_checkpoint(tmp_path, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    out = str(tmp_path / "cert.json")
    code = main([
        "certify", "--checkpoint", str(outdir / "checkpoint.json"),
        "--config", cfg, "-m", "50", "-n", "50", "--alpha", "0.05",
        "--output", out,
    ])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["theorem"] == "pac-reference"
    assert 0.0 <= doc["bound"] <= 1.0
    assert doc["m"] == 50
    assert "TV bound" in capsys.readouterr().out


def test_certify_rejects_bad_args(tmp_path):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    ckpt = str(outdir / "checkpoint.json")
    assert main(["certify", "--checkpoint", ckpt, "--config", cfg, "-m", "0"]) == 2
    assert main(["certify", "--checkpoint", ckpt, "--config", cfg, "--alpha", "0.5"]) == 2


def test_certify_env_mismatch(tmp_path):
    outdir, _ = run_train(tmp_path, TREE_CONFIG)
    other = dict(TREE_CONFIG)
    other["env"] = {"kind": "tree", "branching": 3, "depth": 2}
    cfg2 = write_config(tmp_path, other, "other.yaml")
    code = main(["certify", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg2])
    assert code == 2


def _load(cfg, checkpoint):
    """(resolved config, env, model) as the ``certify`` and ``evaluate`` commands load them."""
    return _load_model_for(argparse.Namespace(config=cfg, checkpoint=str(checkpoint)))


def _write_log(tmp_path, cfg, checkpoint):
    """(log path, model, backward batch, forward batch): 30 paths a side, logged."""
    from stablegfn.policy import sample_backward_batch, sample_forward_batch, write_trajectory_log

    _, env, model = _load(cfg, checkpoint)
    rng = rng_for(0, "log")
    xs = env.terminating_states[rng.integers(0, len(env.terminating_states), 30)]
    bwd = sample_backward_batch(model, env, rng, xs)
    fwd = sample_forward_batch(model, env, rng, 30)
    log_path = tmp_path / "trajs.jsonl"
    write_trajectory_log(str(log_path), bwd, fwd)
    return log_path, model, bwd, fwd


def test_certify_from_log(tmp_path):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    resolved = load_config(cfg)
    log_path, model, bwd, fwd = _write_log(tmp_path, cfg, outdir / "checkpoint.json")

    def certified(name):
        out = tmp_path / name
        assert main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                     "--from-log", str(log_path), "--output", str(out)]) == 0
        return dict(json.loads(out.read_text()), wall_clock_s=None)

    # the logged paths certify as the sampled batches do
    report = certify.optimize_certificate(
        certify.records_from_trajectories(bwd, model.logz),
        certify.records_from_trajectories(fwd, model.logz),
        (1.0 - resolved["train"]["confidence"]) / 2.0)
    expected = dict(json.loads(json.dumps(report.to_dict())), wall_clock_s=None)
    assert certified("cert.json") == expected and (expected["m"], expected["n"]) == (30, 30)
    # a record of any other label is read, checked and left out
    first = json.loads(log_path.read_text().splitlines()[0])
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(first, reward=100.0, provenance="replayed")) + "\n")
    assert certified("cert_replayed.json") == expected


@pytest.mark.parametrize("flag", ["-m", "-n"])
def test_certify_from_log_refuses_sample_counts(tmp_path, capsys, flag):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    log_path, _, _, _ = _write_log(tmp_path, cfg, outdir / "checkpoint.json")
    out = tmp_path / "cert.json"
    for value in ("0", "40"):  # valid or not, the flag does not apply
        assert main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                     "--from-log", str(log_path), "--output", str(out), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply with --from-log: " \
                                          "the log sets the counts\n"
    assert not out.exists()


def test_certify_from_log_checks_only_alpha(tmp_path, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    log_path, _, _, _ = _write_log(tmp_path, cfg, outdir / "checkpoint.json")
    ckpt, out = str(outdir / "checkpoint.json"), tmp_path / "cert.json"
    # counts the config sets for sampling, past the walk-memory bound, are not read
    payload = dict(TREE_CONFIG, train=dict(TREE_CONFIG["train"], cert_m=10**12, cert_n=10**12))
    big = write_config(tmp_path, payload, "big.yaml")
    assert main(["certify", "--checkpoint", ckpt, "--config", big, "--from-log", str(log_path),
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["m"], doc["n"]) == (30, 30)
    capsys.readouterr()
    out.unlink()
    assert main(["certify", "--checkpoint", ckpt, "--config", cfg, "--from-log", str(log_path),
                 "--output", str(out), "--alpha", "0.5"]) == 2
    assert capsys.readouterr().err == "error: alpha must lie in (0, 0.5), got 0.5\n"
    assert not out.exists()


def test_certify_sample_counts_default_from_config(tmp_path):
    payload = dict(TREE_CONFIG, train=dict(TREE_CONFIG["train"], cert_m=7))
    outdir, cfg = run_train(tmp_path, payload)
    out = str(tmp_path / "cert.json")
    assert main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert (doc["m"], doc["n"]) == (7, 40)


def test_checkpoint_keeps_the_resolved_env_and_model_sections(tmp_path):
    outdir, _ = run_train(tmp_path, TREE_CONFIG)
    resolved = json.loads((outdir / "resolved_config.json").read_text())
    doc = json.loads((outdir / "checkpoint.json").read_text())
    assert doc["version"] == 2
    assert doc["env"] == resolved["env"] and doc["model"] == resolved["model"]


@pytest.mark.parametrize("text, names", [
    (lambda doc: "not json", "not JSON"),
    (lambda doc: json.dumps(dict(doc, version=1)), "unsupported checkpoint version 1"),
    (lambda doc: json.dumps([doc]), "not a stablegfn-checkpoint file"),
    (lambda doc: json.dumps(dict(doc, format="other")), "not a stablegfn-checkpoint file"),
    (lambda doc: json.dumps(dict(doc, params="x")), "'params' is not a mapping"),
], ids=["not_json", "version_1", "json_list", "other_format", "params_string"])
def test_checkpoint_file_fault_exits_2_naming_it(tmp_path, capsys, text, names):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    path = outdir / "checkpoint.json"
    path.write_text(text(json.loads(path.read_text())))
    capsys.readouterr()
    out = tmp_path / "out.json"
    for command in ("evaluate", "certify"):
        code = main([command, "--checkpoint", str(path), "--config", cfg, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {path}: ") and names in err
    assert not out.exists()


def test_checkpoint_loads_without_the_optimizer_moments(tmp_path):
    # nothing restores Adam's state yet, so its moments are not read
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    path = outdir / "checkpoint.json"
    doc = json.loads(path.read_text())
    del doc["optimizer"]["m"], doc["optimizer"]["v"]
    path.write_text(json.dumps(doc))
    for command in ("evaluate", "certify"):
        assert main([command, "--checkpoint", str(path), "--config", cfg,
                     "--output", str(tmp_path / f"{command}.json")]) == 0


def test_checkpoint_model_wins_over_the_config_model(tmp_path):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    other = write_config(tmp_path, dict(TREE_CONFIG, model={"kind": "mlp", "hidden": [4, 4]}),
                         "other.yaml")
    _, _, model = _load(other, outdir / "checkpoint.json")
    assert model.forward_net.wants_indices  # the checkpoint's tabular model
    outs = []
    for i, config in enumerate((cfg, other)):
        outs.append(tmp_path / f"eval{i}.json")
        assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--config", config, "--output", str(outs[-1])]) == 0
    assert outs[0].read_text() == outs[1].read_text()


def test_train_certificate_is_sample_certificate_on_the_cli_streams(tmp_path):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    resolved, env, model = _load(cfg, outdir / "checkpoint.json")
    train, seed = resolved["train"], resolved["seed"]
    report = certify.sample_certificate(
        model, env, env.terminating_states, train["cert_m"], train["cert_n"],
        rng_for(seed, "cli.cert.backward"), rng_for(seed, "cli.cert.forward"),
        (1.0 - train["confidence"]) / 2.0,
    )
    written = json.loads((outdir / "certificate.json").read_text())
    expected = json.loads(json.dumps(report.to_dict()))
    for doc in (written, expected):
        doc.pop("wall_clock_s")
    assert written == expected


GOOD_RECORD = {"states": [0, 1, 3, 7], "log_pf": -1.0, "log_pb": 0.0, "reward": 1.0}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_certify_from_log_past_the_float_range_is_vacuous(tmp_path):
    # a forward record's log ratio near -1000 puts the threshold past log(DBL_MAX)
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    log_path, out = tmp_path / "trajs.jsonl", tmp_path / "cert.json"
    log_path.write_text(json.dumps(dict(GOOD_RECORD, provenance="backward-sampled")) + "\n"
                        + json.dumps(dict(GOOD_RECORD, log_pf=-1000.0)) + "\n")
    assert main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--from-log", str(log_path), "--output", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert (doc["m"], doc["n"], doc["bound"]) == (1, 1, 1.0)
    assert doc["threshold"] > 709.78 and doc["raw_bound"] is None and doc["main_term"] is None


@pytest.mark.parametrize("lines, where", [
    (None, ""),  # no such file
    ([json.dumps(GOOD_RECORD), "{not json"], ", line 2:"),
    ([json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "reward"})], ", line 1:"),
    ([json.dumps(dict(GOOD_RECORD, reward=0.0))], ", line 1:"),
    ([json.dumps(GOOD_RECORD), json.dumps(dict(GOOD_RECORD, reward=-1.0))], ", line 2:"),
    ([json.dumps(dict(GOOD_RECORD, log_pf=math.nan))], ", line 1:"),
    ([json.dumps(dict(GOOD_RECORD, log_pb=-math.inf))], ", line 1:"),
], ids=["missing", "not_json", "no_reward", "reward_zero", "reward_negative", "log_pf_nan",
        "log_pb_inf"])
def test_certify_from_bad_log_exits_2(tmp_path, capsys, lines, where):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    log_path = tmp_path / "trajs.jsonl"
    if lines is not None:
        log_path.write_text("\n".join(lines) + "\n")
    code = main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--from-log", str(log_path), "--output", str(tmp_path / "cert.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(log_path) + where in err
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("corrupt, names", [
    (lambda doc: doc.pop("env"), "no 'env'"),
    (lambda doc: doc.pop("params"), "no 'params'"),
    (lambda doc: doc["params"].pop("pb.table"), "slice 'pb.table' is missing"),
    (lambda doc: doc["model"].update(depth=3), "'depth'"),
    (lambda doc: doc["params"]["pf.table"]["shape"].reverse(),
     "slice 'pf.table' is (2, 8), the model's is (8, 2)"),
    (lambda doc: doc["params"]["pf.table"].update(shape=[8]), "slice 'pf.table' does not decode"),
    (lambda doc: doc.update(model="xy"),
     "model 'xy' does not build (model must be a mapping, got 'xy')"),
], ids=["no_env", "no_params", "no_slice", "model_key", "slice_shape", "slice_size", "model_str"])
def test_malformed_checkpoint_exits_2(tmp_path, capsys, corrupt, names):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    path = outdir / "checkpoint.json"
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    for command in ("evaluate", "certify"):
        code = main([command, "--checkpoint", str(path), "--config", cfg, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {path}: ") and names in err
    assert not out.exists()


@pytest.mark.parametrize("train, cap, names", [
    ({"oracle_every": 1}, "stablegfn.envs.STATE_CAP", "oracle_every: 8 states exceed STATE_CAP"),
    ({"objective": "wdb", "stabilize": False}, "stablegfn.losses.WDB_REACH_CELL_CAP",
     "objective wdb: reachability reweighting needs 32 cells, above WDB_REACH_CELL_CAP"),
], ids=["oracle_every", "wdb"])
def test_train_over_cap_exits_2_at_setup(tmp_path, monkeypatch, capsys, train, cap, names):
    # T(2,2): 8 states, 4 of them terminating
    monkeypatch.setattr(cap, 7 if "STATE" in cap else 31)
    assert _train_with(tmp_path, train=train) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert not (tmp_path / "run").exists()
    monkeypatch.setattr(cap, 8 if "STATE" in cap else 32)
    assert _train_with(tmp_path, train=dict(train, max_rounds=2)) == 0


def test_evaluate_oracle_over_state_cap_exits_2(tmp_path, monkeypatch, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    monkeypatch.setattr("stablegfn.envs.STATE_CAP", 7)
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: eval.oracle: 8 states exceed STATE_CAP = 7")
    assert not out.exists()
    monkeypatch.setattr("stablegfn.envs.STATE_CAP", 8)
    assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", str(out)]) == 0


def test_evaluate_balanced_checkpoint(tmp_path, capsys):
    payload = dict(TREE_CONFIG)
    payload["train"] = dict(payload["train"], max_rounds=400)
    outdir, cfg = run_train(tmp_path, payload)
    out = str(tmp_path / "eval.json")
    code = main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--samples", "3000", "--output", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sample_count"] == 3000
    assert doc["exact_tv"] < 0.2
    assert 0.0 <= doc["empirical_total_l1"] <= 2.0


def test_evaluate_samples_default_from_config(tmp_path):
    outdir, cfg = run_train(tmp_path, dict(TREE_CONFIG, eval={"samples": 1234, "oracle": False}))
    out = str(tmp_path / "eval.json")
    assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sample_count"] == 1234
    assert doc["exact_tv"] is None


def test_evaluate_missing_checkpoint(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    assert main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                 "--config", cfg]) == 2


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "closed_form"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] closed_form_tv" in out
    assert "1/1 suites passed" in out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("names", [["closed_form", "bogus"], ["bogus", "closed_form"]])
def test_verify_runs_no_suite_when_any_name_is_unknown(monkeypatch, capsys, names):
    ran = []
    monkeypatch.setitem(verify.SUITES, "closed_form", lambda: ran.append(1) or ([], ""))
    assert main(["verify", *[a for name in names for a in ("--suite", name)]]) == 2
    assert ran == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unknown suite 'bogus'; available: cap, ")
    with pytest.raises(KeyError):
        verify.run_suites(names)
    assert ran == []


def test_config_defaults_and_validation():
    resolved = resolve({"env": {"kind": "tree", "branching": 2, "depth": 1}})
    assert resolved["train"]["batch_size"] == 32
    assert resolved["train"]["epsilon"] == 0.05
    assert resolved["train"]["replay_size"] == 1000
    assert resolved["model"]["kind"] == "tabular"
    assert resolved["eval"]["samples"] == 100_000
    with pytest.raises(ConfigError):
        resolve({"env": {"kind": "tree", "branching": 2}})
    with pytest.raises(ConfigError):
        resolve({"env": {"kind": "tree", "branching": 2, "depth": 1, "extra": 1}})


def test_config_flow_head_auto():
    resolved = resolve(
        {
            "env": {"kind": "tree", "branching": 2, "depth": 1},
            "train": {"objective": "db"},
        }
    )
    assert resolved["model"]["flow_head"] is True
    resolved = resolve({"env": {"kind": "tree", "branching": 2, "depth": 1}})
    assert resolved["model"]["flow_head"] is False


def test_config_hypergrid_r0_schedule_resolved():
    resolved = resolve({"env": {"kind": "hypergrid", "dimension": 2, "side": 16}})
    assert resolved["env"]["r0"] == pytest.approx(1e-3)


# every default that resolve fills in, with its value and its type
_RESOLVED_DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "model": {"kind": "tabular", "hidden": [256, 256], "backward": "learned", "flow_head": False},
    "train": {"objective": "tb", "stabilize": False, "tv_target": 0.01, "confidence": 0.95,
              "patience": 10, "buffer_size": 1000, "batch_size": 32, "ema_beta": 0.05,
              "epsilon": 0.05, "learning_rate": 0.001, "logz_lr_mult": 100.0,
              "max_grad_norm": 10.0, "replay_size": 1000, "replay_batch": 0, "max_rounds": 1000,
              "threshold_agg": "max", "backward_source": "buffer", "backward_in_gradient": "auto",
              "cert_m": 1000, "cert_n": 1000, "subtb_lambda": 0.9, "oracle_every": 0},
    "eval": {"samples": 100_000, "oracle": True},
}
RESOLVED = [
    ({"env": {"kind": "tree", "branching": 2, "depth": 2}},
     dict(_RESOLVED_DEFAULTS,
          env={"kind": "tree", "branching": 2, "depth": 2, "leaf_rewards": None})),
    ({"env": {"kind": "hypergrid", "dimension": 2, "side": 8}},
     dict(_RESOLVED_DEFAULTS, env={"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 0.1,
                                   "r1": 0.5, "r2": 2.0})),
    ({"env": {"kind": "one_more_mode", "branching": 2, "depth": 2, "epsilon": 0.1}},
     dict(_RESOLVED_DEFAULTS, env={"kind": "one_more_mode", "branching": 2, "depth": 2,
                                   "epsilon": 0.1, "stage": "new"})),
    ({"env": {"kind": "tree", "branching": 3, "depth": 1}, "model": None, "train": None,
      "eval": None},
     dict(_RESOLVED_DEFAULTS,
          env={"kind": "tree", "branching": 3, "depth": 1, "leaf_rewards": None})),
    # integers become floats where a key is a number, and only in env
    ({"env": {"kind": "tree", "branching": 2, "depth": 1, "leaf_rewards": [1, 2.5]}},
     dict(_RESOLVED_DEFAULTS,
          env={"kind": "tree", "branching": 2, "depth": 1, "leaf_rewards": [1.0, 2.5]})),
    ({"env": {"kind": "one_more_mode", "branching": 2, "depth": 1, "epsilon": 1,
              "stage": "prev"}},
     dict(_RESOLVED_DEFAULTS, env={"kind": "one_more_mode", "branching": 2, "depth": 1,
                                   "epsilon": 1.0, "stage": "prev"})),
    ({"seed": 7, "output_dir": "runs/a",
      "env": {"kind": "hypergrid", "dimension": 3, "side": 4, "r0": 1, "r1": 2, "r2": 3},
      "model": {"kind": "mlp", "hidden": [8, 4], "backward": "uniform"},
      "train": {"objective": "db", "learning_rate": 1, "max_grad_norm": None},
      "eval": {"samples": 5, "oracle": False}},
     {"seed": 7, "output_dir": "runs/a",
      "env": {"kind": "hypergrid", "dimension": 3, "side": 4, "r0": 1.0, "r1": 2.0, "r2": 3.0},
      "model": {"kind": "mlp", "hidden": [8, 4], "backward": "uniform", "flow_head": True},
      "train": dict(_RESOLVED_DEFAULTS["train"], objective="db", learning_rate=1,
                    max_grad_norm=None),
      "eval": {"samples": 5, "oracle": False}}),
]


@pytest.mark.parametrize("raw, expected", RESOLVED, ids=[
    "tree", "hypergrid", "one_more_mode", "null_sections", "leaf_rewards", "stage", "every_key"])
def test_resolve_output_is_pinned_and_resolves_to_itself(raw, expected):
    resolved = resolve(raw)
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)
    # `stablegfn train resolved_config.json` reruns the same run
    assert json.dumps(resolve(resolved), sort_keys=True) == json.dumps(resolved, sort_keys=True)


def _train_with(tmp_path, **sections):
    payload = dict(TREE_CONFIG, output_dir=str(tmp_path / "run"))
    for name, changes in sections.items():
        payload[name] = dict(payload[name], **changes)
    return main(["train", write_config(tmp_path, payload)])


@pytest.mark.parametrize("sections", [
    {"env": {"branching": 1}},  # the env builder's error
    {"env": {"leaf_rewards": [1, 1, 1, math.inf]}},  # DagEnv's error
    {"train": {"buffer_size": 0}},  # rejected when the config resolves
    {"train": {"replay_size": 0, "replay_batch": 4, "stabilize": False}},
], ids=["env", "reward", "buffer", "replay"])
def test_train_setup_errors_exit_2(tmp_path, capsys, sections):
    assert _train_with(tmp_path, **sections) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("objective", ["db", "fm", "subtb", "wdb"])
def test_train_flow_objective_without_flow_head_exits_2(tmp_path, capsys, objective):
    assert _train_with(tmp_path, model={"flow_head": False},
                       train={"objective": objective, "stabilize": False}) == 2
    assert "model.flow_head" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("samples", [0, -5])
def test_config_rejects_eval_samples_below_one(samples):
    with pytest.raises(ConfigError, match="eval.samples"):
        resolve({"env": {"kind": "tree", "branching": 2, "depth": 1}, "eval": {"samples": samples}})


def test_train_mlp_over_encoding_cap_exits_2(tmp_path, monkeypatch, capsys):
    import stablegfn.envs as envs

    # T(2,2) has 8 states: its one-hot cache has 64 cells
    monkeypatch.setattr(envs, "ENCODING_CELL_CAP", 63)
    assert _train_with(tmp_path, model={"kind": "mlp", "hidden": [4, 4]}) == 2
    assert "above the cap 63" in capsys.readouterr().err
    monkeypatch.setattr(envs, "ENCODING_CELL_CAP", 64)
    assert _train_with(tmp_path, model={"kind": "mlp", "hidden": [4, 4]},
                       train={"max_rounds": 2}) == 0


@pytest.mark.parametrize("bad", [
    {"model": {"hidden": [0, 4]}},
    {"model": {"hidden": [4, -1]}},
    {"train": {"cert_m": 0}},
    {"train": {"cert_n": 0}},
], ids=["hidden0", "hidden1", "cert_m", "cert_n"])
def test_config_rejects_empty_layers_and_certificate_samples(tmp_path, bad):
    raw = {"env": {"kind": "tree", "branching": 2, "depth": 1}, **bad}
    with pytest.raises(ConfigError):
        resolve(raw)
    assert _train_with(tmp_path, **bad) == 2


@pytest.mark.parametrize("key, bad", [
    ("learning_rate", [0.0, -1e-3, math.inf, math.nan, "1e-3"]),
    ("logz_lr_mult", [0.0, -100.0, math.inf, math.nan]),
    ("max_grad_norm", [0.0, -1.0, math.inf, math.nan]),
    ("subtb_lambda", [0.0, -0.9, math.inf, math.nan]),
    ("buffer_size", [0, -3]),
    ("replay_batch", [-1]),
], ids=["learning_rate", "logz_lr_mult", "max_grad_norm", "subtb_lambda", "buffer_size",
        "replay_batch"])
def test_config_rejects_bad_train_value_naming_key(key, bad):
    for value in bad:
        raw = {"env": {"kind": "tree", "branching": 2, "depth": 1}, "train": {key: value}}
        with pytest.raises(ConfigError, match=key):
            resolve(raw)


MISTYPED = [
    ("train", "stabilize", "no", "stabilize must be a boolean, got 'no'"),
    ("train", "stabilize", 1, "stabilize must be a boolean, got 1"),
    ("train", "max_rounds", 2.5, "max_rounds must be an integer, got 2.5"),
    ("train", "batch_size", 4.5, "batch_size must be an integer, got 4.5"),
    ("train", "patience", 2.5, "patience must be an integer, got 2.5"),
    ("train", "cert_m", True, "cert_m must be an integer, got True"),
    ("train", "learning_rate", True, "learning_rate must be a number, got True"),
    ("train", "tv_target", "0.1", "tv_target must be a number, got '0.1'"),
    ("train", "max_grad_norm", "off", "max_grad_norm must be a number or null, got 'off'"),
    ("train", "objective", 5, "objective must be a string, got 5"),
    (None, "seed", -1, "seed must be >= 0, got -1"),
    (None, "seed", 2.5, "seed must be an integer, got 2.5"),
    (None, "seed", "7", "seed must be an integer, got '7'"),
    ("eval", "oracle", "false", "eval.oracle must be a boolean, got 'false'"),
    ("eval", "samples", 2.5, "eval.samples must be an integer, got 2.5"),
    ("model", "hidden", [1.7, 2.2], "each model.hidden width must be an integer, got 1.7"),
    ("model", "hidden", [4, True], "each model.hidden width must be an integer, got True"),
    ("env", "depth", 1.5, "env.depth must be an integer, got 1.5"),
    ("env", "r1", True, "env.r1 must be a number, got True"),
    ("env", "r1", "x", "env.r1 must be a number, got 'x'"),
    ("env", "r2", [2.0], "env.r2 must be a number, got [2.0]"),
    ("env", "r0", "x", "env.r0 must be a number or null, got 'x'"),
    ("env", "epsilon", "0.1", "env.epsilon must be a number, got '0.1'"),
    ("env", "leaf_rewards", [1.0, "x"], "each env.leaf_rewards entry must be a number, got 'x'"),
    ("env", "leaf_rewards", [1.0, False],
     "each env.leaf_rewards entry must be a number, got False"),
    ("env", "leaf_rewards", 5, "env.leaf_rewards must be a list of numbers or null, got 5"),
    ("model", "hidden", ["a", 4], "each model.hidden width must be an integer, got 'a'"),
    ("train", "patience", -3, "patience must be >= 0, got -3"),
    (None, "env", None, "env must be a mapping, got None"),
    (None, "env", 5, "env must be a mapping, got 5"),
    (None, "train", 5, "train must be a mapping, got 5"),
    (None, "eval", True, "eval must be a mapping, got True"),
    (None, "model", [1], "model must be a mapping, got [1]"),
    (None, "output_dir", None, "output_dir must be a string, got None"),
    (None, "output_dir", 5, "output_dir must be a string, got 5"),
    ("env", "kind", ["tree"], "env.kind must be 'tree' or 'hypergrid' or 'one_more_mode'"),
]
# the environment a mistyped key is set in, where a two-leaf tree has no such key
_ENV_WITH = {"r0": {"kind": "hypergrid", "dimension": 2, "side": 3},
             "epsilon": {"kind": "one_more_mode", "branching": 2, "depth": 1}}
_ENV_WITH["r1"] = _ENV_WITH["r2"] = _ENV_WITH["r0"]


@pytest.mark.parametrize("where, key, value, message", MISTYPED,
                         ids=[f"{key}={value!r}" for _, key, value, _ in MISTYPED])
def test_config_rejects_mistyped_value_naming_key(where, key, value, message):
    raw = {"env": _ENV_WITH.get(key, {"kind": "tree", "branching": 2, "depth": 1})}
    if where is None:
        raw[key] = value
    else:
        raw[where] = dict(raw.get(where, {}), **{key: value})
    with pytest.raises(ConfigError) as info:
        resolve(raw)
    assert str(info.value) == message


def test_train_with_mistyped_value_exits_2_before_any_output(tmp_path, capsys):
    for train in ({"max_rounds": 2.5}, {"stabilize": "no"}):
        assert _train_with(tmp_path, train=train) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and list(train)[0] in err
        assert not (tmp_path / "run").exists()
    payload = dict(TREE_CONFIG, output_dir=str(tmp_path / "run"), train=5)
    assert main(["train", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == "error: train must be a mapping, got 5\n"
    assert not (tmp_path / "run").exists()


def test_config_replay_size_checked_only_with_replay():
    raw = {"env": {"kind": "tree", "branching": 2, "depth": 1},
           "train": {"replay_size": 0, "replay_batch": 4}}
    with pytest.raises(ConfigError, match="replay_size"):
        resolve(raw)
    raw["train"]["replay_batch"] = 0
    assert resolve(raw)["train"]["replay_size"] == 0


def test_config_null_max_grad_norm_disables_clipping():
    resolved = resolve({"env": {"kind": "tree", "branching": 2, "depth": 1},
                        "train": {"max_grad_norm": None}})
    assert resolved["train"]["max_grad_norm"] is None


def test_config_yaml_reads_exponent_floats(tmp_path):
    path = tmp_path / "exponents.yaml"
    env = "env: {kind: tree, branching: 2, depth: 1}\n"
    path.write_text(env + "train: {learning_rate: 1e-3, tv_target: 5e-2, max_rounds: 3}\n")
    train = load_config(str(path))["train"]
    assert type(train["learning_rate"]) is float and train["learning_rate"] == 1e-3
    assert type(train["tv_target"]) is float and train["tv_target"] == 5e-2
    assert type(train["max_rounds"]) is int and train["max_rounds"] == 3
    path.write_text(env + 'train: {learning_rate: "1e-3"}\n')  # quoted: still a string
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(str(path))


@pytest.mark.parametrize("command", ["certify", "evaluate"])
def test_output_that_is_a_directory_exits_2_before_sampling(tmp_path, monkeypatch, capsys,
                                                             command):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    _refuse_sampling(monkeypatch)
    out = str(tmp_path / "taken")
    os.mkdir(out)
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"


@pytest.mark.parametrize("name", ["metrics.csv", "resolved_config.json", "checkpoint.json",
                                  "certificate.json"])
def test_train_output_file_that_is_a_directory_exits_2_at_setup(tmp_path, capsys, name):
    outdir = tmp_path / "run"
    target = outdir / name
    target.mkdir(parents=True)  # the file's write would meet a directory
    assert main(["train", write_config(tmp_path, dict(TREE_CONFIG, output_dir=str(outdir)))]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: cannot write {target}: Is a directory\n"
    assert out.out == ""  # no summary line
    # refused at set-up, before any round: nothing else is written
    assert [p.name for p in outdir.iterdir()] == [name]


def test_certify_from_log_with_one_half_exits_2(tmp_path, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    log_path, out = tmp_path / "trajs.jsonl", tmp_path / "cert.json"
    for label in ("backward-sampled", "forward-sampled"):
        log_path.write_text(json.dumps(dict(GOOD_RECORD, provenance=label)) + "\n")
        assert main(["certify", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                     "--from-log", str(log_path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("error: trajectory log must contain both backward- "
                                           "and forward-sampled records\n")
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_evaluate_without_samples_exits_2_before_reading_anything(tmp_path, capsys, samples):
    missing = str(tmp_path / "missing")  # neither file is read
    assert main(["evaluate", "--checkpoint", missing, "--config", missing,
                 "--samples", samples]) == 2
    assert capsys.readouterr().err == "error: need at least one evaluation sample\n"


@pytest.mark.parametrize("flow_head", ["sometimes", 1, None])
def test_config_rejects_flow_head_neither_auto_nor_boolean(flow_head):
    raw = {"env": {"kind": "tree", "branching": 2, "depth": 1}, "model": {"flow_head": flow_head}}
    with pytest.raises(ConfigError, match="^model.flow_head must be 'auto' or a boolean$"):
        resolve(raw)


def test_config_that_does_not_parse_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("env: {kind: tree, branching: 2\n")
    with pytest.raises(ConfigError, match=f"^cannot parse {re.escape(str(path))}: "):
        load_config(str(path))
    assert main(["train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: ")
