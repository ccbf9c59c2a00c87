"""Experiment configuration: schema validation, default resolution, builders.

Configs are YAML (JSON is a YAML subset) with four sections: ``env``,
``model``, ``train``, ``eval``, plus a top-level ``seed`` and ``output_dir``.
Unknown keys are rejected.  ``resolve`` materializes every default so the
emitted ``resolved_config.json`` reproduces the run exactly.  Its ``env`` and
``model`` sections are the one description of a run: a checkpoint keeps
them, and a model is built, or restored, only by :func:`build_model`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Dict, List

import yaml

from .envs import ENV_DEFAULTS, DagEnv, hypergrid_default_r0, make_env
from .policy import PolicyModel
from .trainer import TrainConfig, check_type, rng_for

OUTPUT_DIR_ENV_VAR = "STABLEGFN_OUTPUT_DIR"

FLOW_OBJECTIVES = ("db", "fm", "subtb", "wdb")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class _Loader(yaml.SafeLoader):
    """Safe loading with YAML 1.2 floats: YAML 1.1 reads ``1e-3`` (no dot) as a string."""


# tried after the int resolver, so ints stay ints
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), list("-+0123456789."))


def _require(section: Dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _check_keys(section: Dict, allowed: List[str], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(key: str, value, annotation: str = "float"):
    """``value`` as a float when ``annotation`` admits it (None stays None)."""
    value = check_type(key, value, annotation)
    return None if value is None else float(value)


def _resolve_env(section: Dict) -> Dict:
    kind = _require(section, "kind", "env")
    if kind not in ENV_DEFAULTS:
        raise ConfigError(f"unknown env kind {kind!r}")
    merged = {**ENV_DEFAULTS[kind], **section}
    if kind == "tree":
        _check_keys(section, ["kind", "branching", "depth", "leaf_rewards"], "env")
        rewards = merged["leaf_rewards"]
        if not (rewards is None or isinstance(rewards, list)):
            raise ConfigError("env.leaf_rewards must be a list of numbers or null, "
                              f"got {rewards!r}")
        return {
            "kind": "tree",
            "branching": check_type("env.branching", _require(section, "branching", "env"), "int"),
            "depth": check_type("env.depth", _require(section, "depth", "env"), "int"),
            "leaf_rewards": None if rewards is None else [
                _number("each env.leaf_rewards entry", r) for r in rewards],
        }
    if kind == "hypergrid":
        _check_keys(section, ["kind", "dimension", "side", "r0", "r1", "r2"], "env")
        side = check_type("env.side", _require(section, "side", "env"), "int")
        r0 = _number("env.r0", merged["r0"], "Optional[float]")
        return {
            "kind": "hypergrid",
            "dimension": check_type("env.dimension", _require(section, "dimension", "env"), "int"),
            "side": side,
            "r0": hypergrid_default_r0(side) if r0 is None else r0,
            "r1": _number("env.r1", merged["r1"]),
            "r2": _number("env.r2", merged["r2"]),
        }
    _check_keys(section, ["kind", "branching", "depth", "epsilon", "stage"], "env")
    if merged["stage"] not in ("prev", "new"):
        raise ConfigError("env.stage must be 'prev' or 'new'")
    return {
        "kind": "one_more_mode",
        "branching": check_type("env.branching", _require(section, "branching", "env"), "int"),
        "depth": check_type("env.depth", _require(section, "depth", "env"), "int"),
        "epsilon": _number("env.epsilon", _require(section, "epsilon", "env")),
        "stage": merged["stage"],
    }


def resolve_model(section: Dict, objective: str) -> Dict:
    """The ``model`` section with every default; ``flow_head: auto`` follows ``objective``."""
    _check_keys(section, ["kind", "hidden", "backward", "flow_head"], "model")
    kind = section.get("kind", "tabular")
    if kind not in ("tabular", "mlp"):
        raise ConfigError("model.kind must be 'tabular' or 'mlp'")
    backward = section.get("backward", "learned")
    if backward not in ("learned", "uniform"):
        raise ConfigError("model.backward must be 'learned' or 'uniform'")
    flow_head = section.get("flow_head", "auto")
    if flow_head == "auto":
        flow_head = objective in FLOW_OBJECTIVES
    if not isinstance(flow_head, bool):
        raise ConfigError("model.flow_head must be 'auto' or a boolean")
    if objective in FLOW_OBJECTIVES and not flow_head:
        raise ConfigError(f"objective {objective!r} needs a state-flow head: "
                          "model.flow_head must be true or 'auto'")
    hidden = section.get("hidden", [256, 256])
    if isinstance(hidden, list):
        hidden = [check_type("each model.hidden width", h, "int") for h in hidden]
    if not (isinstance(hidden, list) and len(hidden) == 2 and min(hidden) >= 1):
        raise ConfigError("model.hidden must be a list of two widths >= 1")
    return {
        "kind": kind,
        "hidden": hidden,
        "backward": backward,
        "flow_head": flow_head,
    }


# every TrainConfig field but the seed, which is a top-level key
_TRAIN_KEYS = [f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed"]


def _resolve_train(section: Dict, seed: int) -> Dict:
    _check_keys(section, _TRAIN_KEYS, "train")
    cfg = TrainConfig(**section, seed=seed)
    return {k: getattr(cfg, k) for k in _TRAIN_KEYS}


def _resolve_eval(section: Dict) -> Dict:
    _check_keys(section, ["samples", "oracle"], "eval")
    samples = check_type("eval.samples", section.get("samples", 100_000), "int")
    if samples < 1:
        raise ConfigError(f"eval.samples must be >= 1, got {samples}")
    return {
        "samples": samples,
        "oracle": check_type("eval.oracle", section.get("oracle", True), "bool"),
    }


def resolve(raw: Dict) -> Dict:
    """Validate a raw config mapping and materialize every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(raw, ["seed", "output_dir", "env", "model", "train", "eval"], "config")
    for name in ("env", "model", "train", "eval"):  # null is an empty optional section
        if not isinstance(raw.get(name, {}), dict) and (name == "env" or raw[name] is not None):
            raise ConfigError(f"{name} must be a mapping, got {raw[name]!r}")
    seed = raw.get("seed", 0)  # TrainConfig checks it
    try:
        train = _resolve_train(raw.get("train") or {}, seed)
        model = resolve_model(raw.get("model") or {}, train["objective"])
        return {
            "seed": seed,
            "output_dir": str(raw.get("output_dir", "out")),
            "env": _resolve_env(_require(raw, "env", "config")),
            "model": model,
            "train": train,
            "eval": _resolve_eval(raw.get("eval") or {}),
        }
    except ValueError as exc:  # ConfigError is one
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> Dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return resolve(raw)


def output_dir(resolved: Dict) -> str:
    return os.environ.get(OUTPUT_DIR_ENV_VAR, resolved["output_dir"])


def build_env(resolved: Dict) -> DagEnv:
    try:
        return make_env(resolved["env"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model(resolved: Dict, env: DagEnv) -> PolicyModel:
    m = resolved["model"]
    return PolicyModel.build(env, kind=m["kind"], hidden=m["hidden"],
                             learn_backward=m["backward"] == "learned", flow_head=m["flow_head"],
                             rng=rng_for(resolved["seed"], "model.init"))


def build_train_config(resolved: Dict) -> TrainConfig:
    return TrainConfig(seed=resolved["seed"], **resolved["train"])


def write_resolved(resolved: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
