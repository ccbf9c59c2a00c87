"""Experiment configuration: one schema, one reader, the builders.

Configs are YAML (JSON is a YAML subset) with four sections: ``env``,
``model``, ``train``, ``eval``, plus a top-level ``seed`` and ``output_dir``.
Each section has one table, the only place its keys' types, defaults and
allowed values are written: :data:`TOP_KEYS`, ``envs.ENV_KEYS`` per env
kind, :data:`MODEL_KEYS`, :data:`EVAL_KEYS`, and for ``train`` the fields of
``TrainConfig``.  One routine, :func:`_section`, reads every table and
rejects unknown keys; only rules that read more than one key are code.
``resolve`` materializes every default so the emitted
``resolved_config.json`` reproduces the run exactly.  Its ``env`` and
``model`` sections are the one description of a run: a checkpoint keeps
them, and a model is built, or restored, only by :func:`build_model`.
The model section is ``kind``, ``hidden`` and ``backward``: the objective decides
the flow head (:data:`FLOW_OBJECTIVES`), and ``backward`` resolves to ``uniform``
under fm and on a tree, where no state has two parents and no learned backward
net is read.  The eval section is ``samples`` alone: ``evaluate`` takes the
exact TV wherever the graph fits ``envs.STATE_CAP``, as it can read that from
the graph.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import re
from typing import Dict

import yaml

from .envs import ENV_KEYS, DagEnv, hypergrid_default_r0, make_env
from .policy import PolicyModel
from .trainer import TrainConfig, check_type, rng_for

FLOW_OBJECTIVES = ("db", "fm", "subtb", "wdb")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class _Loader(yaml.SafeLoader):
    """Safe loading with YAML 1.2 floats: YAML 1.1 reads ``1e-3`` (no dot) as a string."""


def _mapping_without_repeats(loader: _Loader, node: yaml.MappingNode):
    """A mapping, refusing a key set twice in it: the parser keeps the last silently."""
    seen = set()
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue  # a merged-in key may be set again: that is what a merge is for
        key = loader.construct_object(key_node)
        if not isinstance(key, collections.abc.Hashable):
            continue  # the parser refuses it
        if key in seen:
            raise yaml.constructor.ConstructorError(
                None, None, f"repeated key {key!r}", key_node.start_mark)
        seen.add(key)
    yield from loader.construct_yaml_map(node)


# tried after the int resolver, so ints stay ints
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), list("-+0123456789."))
_Loader.add_constructor("tag:yaml.org,2002:map", _mapping_without_repeats)


# The sections' tables: key -> (annotation, default), with no default for a
# required key.  An annotation is a trainer.check_type annotation, a tuple of
# the allowed values, or None for a key that a rule below (or TrainConfig)
# checks.  A null optional section is an empty one.
TOP_KEYS = {"seed": (None, TrainConfig.seed), "output_dir": ("str", "out"), "env": (None,),
            "model": (None, None), "train": (None, None), "eval": (None, None)}
# kind, hidden, backward: the objective decides the flow head; fm's and a tree's
# backward resolve to uniform
MODEL_KEYS = {"kind": (("tabular", "mlp"), "tabular"), "hidden": (None, [256, 256]),
              "backward": (("learned", "uniform"), "learned")}
EVAL_KEYS = {"samples": ("int", 100_000)}
# every TrainConfig field but the seed, which is a top-level key
_TRAIN_KEYS = {f.name: (None, f.default) for f in dataclasses.fields(TrainConfig)
               if f.name != "seed"}


def _section(section, keys: Dict[str, tuple], where: str) -> Dict:
    """``section`` read against its table ``keys``, in table order, with every
    default filled in; a number becomes a float where its annotation is one."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    out = {}
    for key, (annotation, *default) in keys.items():
        if key not in section and not default:
            raise ConfigError(f"missing required key {key!r} in {where}")
        value = section[key] if key in section else default[0]
        name = key if where == "config" else f"{where}.{key}"  # top-level keys go bare
        if isinstance(annotation, tuple) and value not in annotation:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, annotation))}")
        if isinstance(annotation, str):
            value = check_type(name, value, annotation)
            if "float" in annotation and value is not None:
                value = float(value)
        out[key] = value
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")
    return out


def _resolve_env(section) -> Dict:
    """The ``env`` section, read against the table of its kind."""
    kind = section.get("kind") if isinstance(section, dict) else None
    keys = ENV_KEYS.get(kind, {}) if isinstance(kind, str) else {}
    env = _section(section, {"kind": (tuple(ENV_KEYS),), **keys}, "env")
    if "r0" in env and env["r0"] is None:  # the base reward follows the side
        env["r0"] = hypergrid_default_r0(env["side"])
    rewards = env.get("leaf_rewards")
    if rewards is not None:
        if not isinstance(rewards, list):
            raise ConfigError("env.leaf_rewards must be a list of numbers or null, "
                              f"got {rewards!r}")
        env["leaf_rewards"] = [float(check_type("each env.leaf_rewards entry", r, "float"))
                               for r in rewards]
    return env


def resolve_model(section, objective: str, env_kind: str) -> Dict:
    """The ``model`` section with every default; fm, which reads no backward
    policy, and a tree, where a learned one is never read, get the uniform backward."""
    model = _section(section, MODEL_KEYS, "model")
    if objective == "fm" or env_kind == "tree":
        model["backward"] = "uniform"
    hidden = model["hidden"]
    if isinstance(hidden, list):
        hidden = model["hidden"] = [check_type("each model.hidden width", h, "int")
                                    for h in hidden]
    if not (isinstance(hidden, list) and len(hidden) == 2 and min(hidden) >= 1):
        raise ConfigError("model.hidden must be a list of two widths >= 1")
    return model


def resolve(raw: Dict) -> Dict:
    """Validate a raw config mapping and materialize every default."""
    try:
        top = _section(raw, TOP_KEYS, "config")
        model, train, evals = ({} if top[name] is None else top[name]
                               for name in ("model", "train", "eval"))
        train = _section(train, _TRAIN_KEYS, "train")
        TrainConfig(**train, seed=top["seed"])  # checks the train keys and the seed
        env = _resolve_env(top["env"])
        model = resolve_model(model, train["objective"], env["kind"])
        evals = _section(evals, EVAL_KEYS, "eval")
        if evals["samples"] < 1:
            raise ConfigError(f"eval.samples must be >= 1, got {evals['samples']}")
        return dict(top, env=env, model=model, train=train, eval=evals)
    except ValueError as exc:  # ConfigError is one
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> Dict:
    """The resolved config in the YAML file ``path``; a file that is not
    UTF-8, does not parse or sets a key twice in one mapping is refused by name."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return resolve(raw)


def build_env(resolved: Dict) -> DagEnv:
    try:
        return make_env(resolved["env"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model(resolved: Dict, env: DagEnv) -> PolicyModel:
    m, flow = resolved["model"], resolved["train"]["objective"] in FLOW_OBJECTIVES
    return PolicyModel.build(env, kind=m["kind"], hidden=m["hidden"],
                             learn_backward=m["backward"] == "learned", flow_head=flow,
                             rng=rng_for(resolved["seed"], "model.init"))


def build_train_config(resolved: Dict) -> TrainConfig:
    return TrainConfig(seed=resolved["seed"], **resolved["train"])
