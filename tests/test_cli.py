import argparse
import base64
import errno
import json
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest
import yaml

from stablegfn import certify, cli, output, verify
from stablegfn.approximator import _encode_array
from stablegfn.cli import _load_model_for, main
from stablegfn.config import (ConfigError, build_env, build_model, build_train_config,
                              load_config, resolve)
from stablegfn.policy import ROLLOUT_STATE_BYTES
from stablegfn.trainer import Trainer, rng_for


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
    "eval": {"samples": 2000},
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


def test_resolved_config_round_trip(tmp_path):
    outdir, _ = run_train(tmp_path, TREE_CONFIG, "first")
    resolved = json.loads((outdir / "resolved_config.json").read_text())
    resolved["output_dir"] = str(tmp_path / "second")  # the one key a rerun must change
    resolved_path = tmp_path / "rerun.json"
    resolved_path.write_text(json.dumps(resolved))
    assert main(["train", str(resolved_path)]) == 0
    a = (tmp_path / "first" / "metrics.csv").read_bytes()
    b = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert a == b


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_train_with_thresholds_past_the_float_range_finishes_with_a_vacuous_bound(tmp_path):
    # log-rewards near -737 raise the threshold past log(DBL_MAX) = 709.78, where
    # a positive max ratio fails the reference condition instead of overflowing
    payload = {"seed": 2, "env": {"kind": "tree", "branching": 2, "depth": 2,
                                  "leaf_rewards": [1.0e-320] * 3 + [1.0]},
               "train": {"stabilize": True, "batch_size": 8, "patience": 0, "cert_m": 20,
                         "cert_n": 20, "max_rounds": 30}}
    outdir, _ = run_train(tmp_path, payload)
    lines = (outdir / "metrics.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == 30 and max(float(r[header.index("threshold")]) for r in rows) > 709.78
    doc = json.loads((outdir / "certificate.json").read_text(), parse_constant=_refuse_constant)
    assert doc["bound"] == 1.0 and doc["threshold"] > 709.78  # infinities are written as null
    assert doc["raw_bound"] is None and doc["main_term"] is None
    assert (outdir / "checkpoint.json").exists()


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
], ids=["tree_2_60", "grid_8_1000"])
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


@pytest.mark.parametrize("command, key", [
    ("evaluate", "eval.samples"), ("certify", "train.cert_m"), ("certify", "train.cert_n"),
], ids=["evaluate-config", "certify-config", "certify-config-cert_n"])
def test_sample_count_whose_walk_matrix_exceeds_memory_exits_2_at_setup(
        tmp_path, monkeypatch, capsys, command, key):
    outdir, _ = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    section, name = key.split(".")  # the count comes from the command's own config
    payload = dict(TREE_CONFIG, **{section: dict(TREE_CONFIG[section], **{name: 10**12})})
    cfg = write_config(tmp_path, payload, "big.yaml")
    _refuse_sampling(monkeypatch)
    out = tmp_path / "out.json"
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", str(out)]) == 2
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


def test_train_parameters_above_memory_exit_2_at_setup(tmp_path):
    # hidden widths whose values and gradients alone exceed physical memory,
    # run under an address-space limit so that a build that tries to allocate
    # them fails in the child, not on the host
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    width = math.isqrt(have // 16) + 1
    payload = {"seed": 0, "output_dir": str(tmp_path / "run"),
               "env": {"kind": "hypergrid", "dimension": 2, "side": 4},
               "model": {"kind": "mlp", "hidden": [width, width]}, "train": {"max_rounds": 1}}
    limit = 2 * 2**30
    run = subprocess.run(
        [sys.executable, "-m", "stablegfn.cli", "train", write_config(tmp_path, payload)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 2, run.stderr
    assert re.fullmatch(rf"error: model\.hidden \[{width}, {width}\]: \d+ parameters need "
                        r"\S+ GiB of parameter vectors, above \S+ GiB of memory\n", run.stderr)
    assert not (tmp_path / "run").exists()  # refused before resolved_config.json


def test_train_negative_oracle_every_exits_2_before_any_output(tmp_path, capsys):
    assert _train_with(tmp_path, train={"oracle_every": -3}) == 2
    assert capsys.readouterr().err == "error: oracle_every must be >= 0, got -3\n"
    assert not (tmp_path / "run").exists()


def test_train_missing_config():
    assert main(["train", "/nonexistent/config.yaml"]) == 2


def test_certify_from_checkpoint(tmp_path, capsys):
    outdir, _ = run_train(tmp_path, TREE_CONFIG)
    # a second config that matches the checkpoint's env sets the counts and the confidence
    train = dict(TREE_CONFIG["train"], cert_m=50, cert_n=60, confidence=0.9)
    cfg = write_config(tmp_path, dict(TREE_CONFIG, train=train), "counts.yaml")
    out = str(tmp_path / "cert.json")
    code = main([
        "certify", "--checkpoint", str(outdir / "checkpoint.json"),
        "--config", cfg, "--output", out,
    ])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["theorem"] == "pac-reference"
    assert 0.0 <= doc["bound"] <= 1.0
    assert (doc["m"], doc["n"], doc["alpha"]) == (50, 60, (1.0 - 0.9) / 2.0)
    assert "TV bound" in capsys.readouterr().out


def test_certify_rejects_bad_args(tmp_path, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    ckpt, out = str(outdir / "checkpoint.json"), tmp_path / "cert.json"
    capsys.readouterr()
    # the counts and alpha come from the config alone: argparse refuses their old flags
    for args in (["-m", "5"], ["-n", "5"], ["--alpha", "0.05"], ["-m", "0"], ["--alpha", "0.5"]):
        with pytest.raises(SystemExit) as info:
            main(["certify", "--checkpoint", ckpt, "--config", cfg, "--output", str(out), *args])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
    assert not out.exists()


def test_certify_has_no_from_log_option(tmp_path, capsys):
    missing = str(tmp_path / "missing")  # argparse refuses before any file is read
    with pytest.raises(SystemExit) as info:
        main(["certify", "--checkpoint", missing, "--config", missing, "--from-log", missing])
    assert info.value.code == 2
    assert "unrecognized arguments: --from-log" in capsys.readouterr().err


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
    return _load_model_for(argparse.Namespace(config=cfg, checkpoint=str(checkpoint),
                                              output="eval.json"))


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
    assert doc["version"] == 3
    assert doc["env"] == resolved["env"] and doc["model"] == resolved["model"]


@pytest.mark.parametrize("text, names", [
    (lambda doc: "not json", "not JSON"),
    (lambda doc: json.dumps(dict(doc, version=1)), "unsupported checkpoint version 1"),
    # version 2 kept model.flow_head
    (lambda doc: json.dumps(dict(doc, version=2, model=dict(doc["model"], flow_head=False))),
     "unsupported checkpoint version 2"),
    (lambda doc: json.dumps([doc]), "not a stablegfn-checkpoint file"),
    (lambda doc: json.dumps(dict(doc, format="other")), "not a stablegfn-checkpoint file"),
    (lambda doc: json.dumps(dict(doc, params="x")), "'params' is not a mapping"),
], ids=["not_json", "version_1", "version_2", "json_list", "other_format", "params_string"])
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


def test_train_certificate_draws_over_the_buffer_in_buffer_order(tmp_path):
    # on this buffer-sourced run the buffer is not in ascending state order
    payload = {"seed": 0, "env": {"kind": "hypergrid", "dimension": 2, "side": 8},
               "model": {"kind": "tabular"},
               "train": {"stabilize": True, "max_rounds": 20, "cert_m": 100, "cert_n": 100}}
    outdir, cfg = run_train(tmp_path, payload)
    resolved = load_config(cfg)
    env = build_env(resolved)
    model = build_model(resolved, env)
    trainer = Trainer(model, env, build_train_config(resolved))
    trainer.run()
    scope, train, seed = trainer.certification_scope(), resolved["train"], resolved["seed"]

    def certificate(order):
        report = certify.sample_certificate(
            model, env, order, train["cert_m"], train["cert_n"],
            rng_for(seed, "cli.cert.backward"), rng_for(seed, "cli.cert.forward"),
            (1.0 - train["confidence"]) / 2.0)
        doc = json.loads(json.dumps(report.to_dict()))
        doc.pop("wall_clock_s")
        return doc

    written = json.loads((outdir / "certificate.json").read_text())
    written.pop("wall_clock_s")
    assert written == certificate(scope)
    assert written != certificate(np.sort(scope))  # the two orders draw apart here


@pytest.mark.parametrize("objective", ["tb", "db", "fm", "subtb", "wdb"])
def test_checkpoint_rebuilds_the_nets_its_objective_reads(tmp_path, objective):
    # a hypergrid, where states have two parents: a tree reads no backward net
    payload = dict(TREE_CONFIG, env={"kind": "hypergrid", "dimension": 2, "side": 3},
                   train=dict(TREE_CONFIG["train"], objective=objective, stabilize=False,
                              max_rounds=3))
    outdir, cfg = run_train(tmp_path, payload)
    checkpoint = outdir / "checkpoint.json"
    trained = list(json.loads(checkpoint.read_text())["params"])
    _, _, model = _load(cfg, checkpoint)
    assert model.params.names == trained
    # a flow net only for the flow objectives, a backward net for all but fm
    nets = {name.split(".")[0] for name in trained}
    assert nets == {"logz", "pf", *(["pb"] if objective != "fm" else []),
                    *(["flow"] if objective != "tb" else [])}
    for command in ("certify", "evaluate"):
        assert main([command, "--checkpoint", str(checkpoint), "--config", cfg,
                     "--output", str(tmp_path / f"{command}.json")]) == 0


def test_tree_checkpoint_with_a_learned_backward_net_loads(tmp_path):
    # a tree's model section resolves to the uniform backward, with no pb slice
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    checkpoint = outdir / "checkpoint.json"
    doc = json.loads(checkpoint.read_text())
    assert doc["model"]["backward"] == "uniform" and "pb.table" not in doc["params"]
    # as written before trees resolved so: a learned section and its never-trained slice
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dict(doc, model=dict(doc["model"], backward="learned"), params=dict(
        doc["params"], **{"pb.table": _encode_array(np.zeros((8, 1)))}))))
    for command in ("certify", "evaluate"):
        outputs = [tmp_path / f"{command}.{name}.json" for name in ("new", "old")]
        for path, out in zip((checkpoint, old), outputs):
            assert main([command, "--checkpoint", str(path), "--config", cfg,
                         "--output", str(out)]) == 0
        if command == "certify":
            docs = [json.loads(out.read_text()) for out in outputs]
            for d in docs:
                d.pop("wall_clock_s")
            assert docs[0] == docs[1]
        else:
            assert outputs[0].read_bytes() == outputs[1].read_bytes()


def _set_entry(doc, name, value):
    """Set the first entry of a checkpoint document's parameter slice ``name``."""
    slice_ = doc["params"][name]
    a = np.frombuffer(base64.b64decode(slice_["data"])).copy()
    a[0] = value
    doc["params"][name] = _encode_array(a.reshape(slice_["shape"]))


@pytest.mark.parametrize("corrupt, names", [
    (lambda doc: doc.pop("env"), "no 'env'"),
    (lambda doc: doc.pop("params"), "no 'params'"),
    (lambda doc: doc["params"].pop("pf.table"), "slice 'pf.table' is missing"),
    (lambda doc: doc["model"].update(depth=3), "'depth'"),
    (lambda doc: doc["params"]["pf.table"]["shape"].reverse(),
     "slice 'pf.table' is (2, 8), the model's is (8, 2)"),
    (lambda doc: doc["params"]["pf.table"].update(shape=[8]), "slice 'pf.table' does not decode"),
    (lambda doc: doc.update(model="xy"),
     "model 'xy' does not build (model must be a mapping, got 'xy')"),
    (lambda doc: _set_entry(doc, "pf.table", math.nan), "slice 'pf.table' is not finite"),
    (lambda doc: _set_entry(doc, "logz", -math.inf), "slice 'logz' is not finite"),
], ids=["no_env", "no_params", "no_slice", "model_key", "slice_shape", "slice_size", "model_str",
        "nan", "inf"])
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


def test_evaluate_over_state_cap_writes_a_null_exact_tv(tmp_path, monkeypatch, capsys):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    capsys.readouterr()
    out = tmp_path / "eval.json"
    args = ["evaluate", "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
            "--output", str(out)]
    monkeypatch.setattr("stablegfn.envs.STATE_CAP", 7)  # T(2,2) has 8 states
    assert main(args) == 0
    assert capsys.readouterr().out.startswith(
        "exact TV: n/a (8 states exceed STATE_CAP = 7) | empirical total L1: ")
    doc = json.loads(out.read_text())
    assert doc["exact_tv"] is None and doc["sample_count"] == 2000
    monkeypatch.setattr("stablegfn.envs.STATE_CAP", 8)
    assert main(args) == 0
    assert isinstance(json.loads(out.read_text())["exact_tv"], float)


def test_evaluate_balanced_checkpoint(tmp_path, capsys):
    payload = dict(TREE_CONFIG)
    payload["train"] = dict(payload["train"], max_rounds=400)
    outdir, cfg = run_train(tmp_path, payload)
    out = str(tmp_path / "eval.json")
    cfg = write_config(tmp_path, dict(payload, eval={"samples": 3000}), "eval.yaml")
    code = main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--output", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sample_count"] == 3000
    assert doc["exact_tv"] < 0.2
    assert 0.0 <= doc["empirical_total_l1"] <= 2.0


def test_evaluate_samples_default_from_config(tmp_path):
    outdir, cfg = run_train(tmp_path, dict(TREE_CONFIG, eval={"samples": 1234}))
    out = str(tmp_path / "eval.json")
    assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sample_count"] == 1234
    assert isinstance(doc["exact_tv"], float)  # the graph fits STATE_CAP


def test_evaluate_missing_checkpoint(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    assert main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                 "--config", cfg]) == 2


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "closed_form_tv"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] closed_form_tv" in out
    assert "1/1 suites passed" in out


def test_verify_unknown_suite(capsys):
    # a suite goes only by the name its line prints: not by a key it once had
    for name in ("nonsense", "grad_check", "closed_form"):
        assert main(["verify", "--suite", name]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: unknown suite {name!r}; available: "
                                     f"{', '.join(verify.SUITES)}\n")
        assert ", gradients, " in err


@pytest.mark.parametrize("names", [["closed_form_tv", "bogus"], ["bogus", "closed_form_tv"]])
def test_verify_runs_no_suite_when_any_name_is_unknown(monkeypatch, capsys, names):
    ran = []
    monkeypatch.setitem(verify.SUITES, "closed_form_tv", lambda: ran.append(1) or ([], ""))
    assert main(["verify", *[a for name in names for a in ("--suite", name)]]) == 2
    assert ran == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "error: unknown suite 'bogus'; available: reference_flow_cap, ")
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


def test_config_hypergrid_r0_schedule_resolved():
    resolved = resolve({"env": {"kind": "hypergrid", "dimension": 2, "side": 16}})
    assert resolved["env"]["r0"] == pytest.approx(1e-3)


# every default that resolve fills in, with its value and its type
_RESOLVED_DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "model": {"kind": "tabular", "hidden": [256, 256], "backward": "learned"},
    "train": {"objective": "tb", "stabilize": False, "tv_target": 0.01, "confidence": 0.95,
              "patience": 10, "buffer_size": 1000, "batch_size": 32, "ema_beta": 0.05,
              "epsilon": 0.05, "learning_rate": 0.001, "logz_lr_mult": 100.0,
              "max_grad_norm": 10.0, "replay_size": 1000, "replay_batch": 0, "max_rounds": 1000,
              "backward_source": "buffer", "backward_in_gradient": "auto",
              "cert_m": 1000, "cert_n": 1000, "subtb_lambda": 0.9, "oracle_every": 0},
    "eval": {"samples": 100_000},
}
# no state of a tree has two parents: its backward policy resolves to uniform
_TREE_DEFAULTS = dict(_RESOLVED_DEFAULTS,
                      model=dict(_RESOLVED_DEFAULTS["model"], backward="uniform"))
RESOLVED = [
    ({"env": {"kind": "tree", "branching": 2, "depth": 2}},
     dict(_TREE_DEFAULTS,
          env={"kind": "tree", "branching": 2, "depth": 2, "leaf_rewards": None})),
    ({"env": {"kind": "hypergrid", "dimension": 2, "side": 8}},
     dict(_RESOLVED_DEFAULTS, env={"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 0.1,
                                   "r1": 0.5, "r2": 2.0})),
    ({"env": {"kind": "tree", "branching": 3, "depth": 1}, "model": None, "train": None,
      "eval": None},
     dict(_TREE_DEFAULTS,
          env={"kind": "tree", "branching": 3, "depth": 1, "leaf_rewards": None})),
    # integers become floats where a key is a number, and only in env
    ({"env": {"kind": "tree", "branching": 2, "depth": 1, "leaf_rewards": [1, 2.5]}},
     dict(_TREE_DEFAULTS,
          env={"kind": "tree", "branching": 2, "depth": 1, "leaf_rewards": [1.0, 2.5]})),
    ({"seed": 7, "output_dir": "runs/a",
      "env": {"kind": "hypergrid", "dimension": 3, "side": 4, "r0": 1, "r1": 2, "r2": 3},
      "model": {"kind": "mlp", "hidden": [8, 4], "backward": "uniform"},
      "train": {"objective": "db", "learning_rate": 1, "max_grad_norm": None},
      "eval": {"samples": 5}},
     {"seed": 7, "output_dir": "runs/a",
      "env": {"kind": "hypergrid", "dimension": 3, "side": 4, "r0": 1.0, "r1": 2.0, "r2": 3.0},
      "model": {"kind": "mlp", "hidden": [8, 4], "backward": "uniform"},
      "train": dict(_RESOLVED_DEFAULTS["train"], objective="db", learning_rate=1,
                    max_grad_norm=None),
      "eval": {"samples": 5}}),
    # fm reads no backward policy: it gets the uniform one, even when asked for a learned one
    ({"env": {"kind": "hypergrid", "dimension": 2, "side": 8}, "model": {"backward": "learned"},
      "train": {"objective": "fm"}},
     dict(_RESOLVED_DEFAULTS,
          env={"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 0.1, "r1": 0.5, "r2": 2.0},
          model=dict(_RESOLVED_DEFAULTS["model"], backward="uniform"),
          train=dict(_RESOLVED_DEFAULTS["train"], objective="fm"))),
]


@pytest.mark.parametrize("raw, expected", RESOLVED, ids=[
    "tree", "hypergrid", "null_sections", "leaf_rewards", "every_key", "fm_backward"])
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
    {"env": {"leaf_rewards": [1e308] * 4}},  # DagEnv's error: a total past the float range
    {"train": {"buffer_size": 0}},  # rejected when the config resolves
    {"train": {"replay_size": 0, "replay_batch": 4, "stabilize": False}},
], ids=["env", "reward", "reward_total", "buffer", "replay"])
def test_train_setup_errors_exit_2(tmp_path, capsys, sections):
    assert _train_with(tmp_path, **sections) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_train_whose_log_z_passes_the_float_range_finishes(tmp_path):
    # log Z climbs past log(DBL_MAX) = 709.78 before it settles near ln(1.6e308)
    payload = {"env": {"kind": "tree", "branching": 2, "depth": 1,
                       "leaf_rewards": [8e307, 8e307]},
               "model": {"kind": "tabular"},
               "train": {"stabilize": True, "learning_rate": 0.1, "max_rounds": 300,
                         "patience": 2, "cert_m": 50, "cert_n": 50}}
    outdir, _ = run_train(tmp_path, payload)
    assert len((outdir / "metrics.csv").read_text().splitlines()) == 301
    doc = json.loads((outdir / "certificate.json").read_text(), parse_constant=_refuse_constant)
    assert doc["captured_reward_mass"] == 1.6e308


def test_train_config_that_sets_flow_head_exits_2(tmp_path, capsys):
    # the objective decides the flow head: the model section has no such key
    assert _train_with(tmp_path, model={"flow_head": True}) == 2
    assert capsys.readouterr().err == "error: unknown key(s) ['flow_head'] in model\n"
    assert not (tmp_path / "run").exists()


def test_train_config_that_sets_threshold_agg_exits_2(tmp_path, capsys):
    # the threshold follows the batch's largest root-loss: the train section has no such key
    assert _train_with(tmp_path, train={"threshold_agg": "max"}) == 2
    assert capsys.readouterr().err == "error: unknown key(s) ['threshold_agg'] in train\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("samples", [0, -5])
def test_config_rejects_eval_samples_below_one(samples):
    with pytest.raises(ConfigError, match="eval.samples"):
        resolve({"env": {"kind": "tree", "branching": 2, "depth": 1}, "eval": {"samples": samples}})


def test_train_confidence_whose_alpha_rounds_to_one_half_exits_2_at_setup(tmp_path, capsys):
    # (1 - c) / 2 is exactly 0.5 at c <= 2**-54: no certificate takes that alpha
    train = {"stabilize": True, "patience": 2, "confidence": 1.0e-17}
    assert _train_with(tmp_path, train=train) == 2
    assert capsys.readouterr().err == ("error: confidence must be in (0, 1) with "
                                       "(1 - confidence) / 2 in (0, 0.5), got 1e-17\n")
    assert not (tmp_path / "run").exists()  # refused before resolved_config.json
    smallest = {"env": {"kind": "tree", "branching": 2, "depth": 1},
                "train": {"confidence": 2.0**-53}}  # alpha just below 0.5
    assert resolve(smallest)["train"]["confidence"] == 2.0**-53


def test_each_command_takes_only_its_files():
    # every count, confidence and path is a config key: no option says one a second time
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in parser._actions for o in a.option_strings or [a.dest]
                      if o not in ("-h", "--help")]
               for name, parser in sub.choices.items()}
    assert options == {"train": ["config"],
                       "certify": ["--checkpoint", "--config", "--output"],
                       "evaluate": ["--checkpoint", "--config", "--output"],
                       "verify": ["--suite"]}


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
    ("confidence", [0.0, 1.0, -0.5, 1.5, 1.0e-17, 2.0**-54, math.nan]),
], ids=["learning_rate", "logz_lr_mult", "max_grad_norm", "subtb_lambda", "buffer_size",
        "replay_batch", "confidence"])
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
    ("eval", "oracle", "false", "unknown key(s) ['oracle'] in eval"),
    ("eval", "samples", 2.5, "eval.samples must be an integer, got 2.5"),
    ("model", "hidden", [1.7, 2.2], "each model.hidden width must be an integer, got 1.7"),
    ("model", "hidden", [4, True], "each model.hidden width must be an integer, got True"),
    ("env", "depth", 1.5, "env.depth must be an integer, got 1.5"),
    ("env", "r1", True, "env.r1 must be a number, got True"),
    ("env", "r1", "x", "env.r1 must be a number, got 'x'"),
    ("env", "r2", [2.0], "env.r2 must be a number, got [2.0]"),
    ("env", "r0", "x", "env.r0 must be a number or null, got 'x'"),
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
    ("env", "kind", ["tree"], "env.kind must be 'tree' or 'hypergrid'"),
]
# the environment a mistyped key is set in, where a two-leaf tree has no such key
_ENV_WITH = {"r0": {"kind": "hypergrid", "dimension": 2, "side": 3}}
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


def test_config_refuses_the_one_more_mode_kind():
    # a tree builds its env: leaf_rewards [1, ..., 1, epsilon] at stage prev, none at new
    raw = {"env": {"kind": "one_more_mode", "branching": 2, "depth": 2, "epsilon": 0.1}}
    with pytest.raises(ConfigError, match=r"^env\.kind must be 'tree' or 'hypergrid'$"):
        resolve(raw)


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


def _no_space_for(monkeypatch, target):
    """Fail the writer's write of ``target`` with ENOSPC: a JSON file at its
    rename into place, a line file when it opens to append a line."""
    real_open, real_replace = open, os.replace

    def refuse(path):
        if str(path) == str(target):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def appending_open(file, mode, **kwargs):
        if mode == "a":
            refuse(file)
        return real_open(file, mode, **kwargs)

    def replace(src, dst):
        refuse(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(output, "open", appending_open, raising=False)
    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("name", ["resolved_config.json", "metrics.csv", "checkpoint.json",
                                  "certificate.json"])
def test_train_output_that_runs_out_of_space_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                               name):
    outdir = tmp_path / "run"
    _no_space_for(monkeypatch, outdir / name)
    assert main(["train", write_config(tmp_path, dict(TREE_CONFIG, output_dir=str(outdir)))]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: cannot write {outdir / name}: No space left on device\n"
    assert out.out == ""  # no summary line
    assert not [p.name for p in outdir.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("command", ["certify", "evaluate"])
def test_output_that_runs_out_of_space_exits_2_naming_it(tmp_path, monkeypatch, capsys, command):
    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    out = tmp_path / "out.json"
    _no_space_for(monkeypatch, out)
    capsys.readouterr()
    assert main([command, "--checkpoint", str(outdir / "checkpoint.json"), "--config", cfg,
                 "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: No space left on device\n")
    assert not out.exists()


def test_train_replaces_a_dangling_symlink_output(tmp_path):
    outdir = tmp_path / "run"
    outdir.mkdir()
    link = outdir / "resolved_config.json"
    link.symlink_to(tmp_path / "missing" / "resolved_config.json")
    _, cfg = run_train(tmp_path, TREE_CONFIG)
    assert not link.is_symlink()
    assert load_config(str(link)) == load_config(cfg)


@pytest.mark.parametrize("samples", ["0", "-3", "10"])
def test_evaluate_without_samples_exits_2_before_reading_anything(tmp_path, capsys, samples):
    # eval.samples is the one sample count, read from the config: argparse
    # refuses the flag, any value of it, before either file is read
    missing = str(tmp_path / "missing")
    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--checkpoint", missing, "--config", missing, "--samples", samples])
    assert info.value.code == 2
    assert f"unrecognized arguments: --samples {samples}" in capsys.readouterr().err


def test_config_that_does_not_parse_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("env: {kind: tree, branching: 2\n")
    with pytest.raises(ConfigError, match=f"^cannot parse {re.escape(str(path))}: "):
        load_config(str(path))
    assert main(["train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: ")


@pytest.mark.parametrize("text, key, line", [
    ("seed: 1\nenv: {kind: tree, branching: 2, depth: 2}\nseed: 2\n", "'seed'", 3),
    ("env:\n  kind: tree\n  branching: 2\n  depth: 2\n  depth: 3\n", "'depth'", 5),
    ("env: {kind: tree, branching: 2, depth: 2, leaf_rewards: [1, 1, 1, 1]}\n"
     "train: {max_rounds: 1, batch_size: 2, max_rounds: 3}\n", "'max_rounds'", 2),
], ids=["top", "env", "flow_style"])
def test_config_that_repeats_a_key_exits_2_naming_it(tmp_path, capsys, text, key, line):
    # YAML would keep the last value silently
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    message = f"cannot parse {path}: repeated key {key}\n  in \"{path}\", line {line}, "
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(str(path))
    assert main(["train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_config_keys_merged_in_may_be_set_again_and_unhashable_keys_are_refused(tmp_path):
    path = tmp_path / "merged.yaml"
    path.write_text("env:\n  <<: {kind: tree, branching: 2, depth: 2}\n  depth: 3\n")
    assert load_config(str(path))["env"]["depth"] == 3
    path.write_text("env: {kind: tree, branching: 2, depth: 2}\n? [1, 2]\n: 3\n")
    with pytest.raises(ConfigError, match="found unhashable key"):
        load_config(str(path))


def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"seed: 1\nenv: {kind: tree, branching: 2, depth: 2}\n# caf\xe9\n")
    message = f"cannot parse {path}: 'utf-8' codec can't decode byte 0xe9"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(str(path))
    assert main(["train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
