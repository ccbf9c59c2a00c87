import json
import math
import os

import numpy as np
import pytest
import yaml

from stablegfn.cli import main
from stablegfn.config import OUTPUT_DIR_ENV_VAR, ConfigError, load_config, resolve


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
    doc = json.loads(open(out).read())
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


def test_certify_from_log(tmp_path):
    from stablegfn.config import build_env, build_model
    from stablegfn.policy import sample_backward_batch, sample_forward_batch, write_trajectory_log
    from stablegfn.trainer import rng_for

    outdir, cfg = run_train(tmp_path, TREE_CONFIG)
    resolved = load_config(cfg)
    env = build_env(resolved)
    from stablegfn.cli import restore_model
    from stablegfn.approximator import load_checkpoint

    model = restore_model(load_checkpoint(str(outdir / "checkpoint.json")), env)
    rng = rng_for(0, "log")
    xs = env.terminating_states[rng.integers(0, len(env.terminating_states), 30)]
    trajs = sample_backward_batch(model, env, rng, xs) + sample_forward_batch(model, env, rng, 30)
    log_path = str(tmp_path / "trajs.jsonl")
    write_trajectory_log(log_path, trajs)
    out = str(tmp_path / "cert2.json")
    code = main(["certify", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--from-log", log_path, "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["m"] == 30 and doc["n"] == 30


GOOD_RECORD = {"states": [0, 1, 3, 7], "log_pf": -1.0, "log_pb": 0.0, "reward": 1.0}


@pytest.mark.parametrize("lines, where", [
    (None, ""),  # no such file
    ([json.dumps(GOOD_RECORD), "{not json"], ", line 2:"),
    ([json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "reward"})], ", line 1:"),
], ids=["missing", "not_json", "no_reward"])
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


def test_evaluate_balanced_checkpoint(tmp_path, capsys):
    payload = dict(TREE_CONFIG)
    payload["train"] = dict(payload["train"], max_rounds=400)
    outdir, cfg = run_train(tmp_path, payload)
    out = str(tmp_path / "eval.json")
    code = main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--samples", "3000", "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["sample_count"] == 3000
    assert doc["exact_tv"] < 0.2
    assert 0.0 <= doc["empirical_total_l1"] <= 2.0


def test_evaluate_samples_default_from_config(tmp_path):
    outdir, cfg = run_train(tmp_path, dict(TREE_CONFIG, eval={"samples": 1234, "oracle": False}))
    out = str(tmp_path / "eval.json")
    assert main(["evaluate", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--config", cfg, "--output", out]) == 0
    doc = json.loads(open(out).read())
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


def _train_with(tmp_path, **sections):
    payload = dict(TREE_CONFIG, output_dir=str(tmp_path / "run"))
    for name, changes in sections.items():
        payload[name] = dict(payload[name], **changes)
    return main(["train", write_config(tmp_path, payload)])


@pytest.mark.parametrize("sections", [
    {"env": {"branching": 1}},  # the env builder's error
    {"train": {"buffer_size": 0}},  # rejected when the config resolves
    {"train": {"replay_size": 0, "replay_batch": 4, "stabilize": False}},
], ids=["env", "buffer", "replay"])
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
]


@pytest.mark.parametrize("where, key, value, message", MISTYPED,
                         ids=[f"{key}={value!r}" for _, key, value, _ in MISTYPED])
def test_config_rejects_mistyped_value_naming_key(where, key, value, message):
    raw = {"env": {"kind": "tree", "branching": 2, "depth": 1}}
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
