"""Command-line interface: train, certify, evaluate, and verify subcommands.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import certify as certify_mod
from . import config as config_mod
from . import oracle
from .approximator import load_checkpoint, save_checkpoint
from .envs import EnumerationCapError, check_state_cap, check_walk_memory
from .policy import read_trajectory_log, sample_forward_batch
from .trainer import Trainer, rng_for


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_json(path: str, doc: Dict) -> int:
    """Write ``doc`` to ``path`` as indented JSON: 0, or 2 once the fault is printed."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}")
    return 0


def _check_output(path: str) -> None:
    """Refuse, at set-up, an output file that is a directory or whose directory
    is missing or not a directory."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder):
        code = (errno.EISDIR if os.path.isdir(path)
                else errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT)
        raise OSError(f"cannot write {path}: {os.strerror(code)}")


def _load_model_for(args: argparse.Namespace):
    """(resolved config, env, model) for a command's ``--config`` and ``--checkpoint``:
    the checkpoint's model section, built by ``config.build_model``, with its
    parameters.  A ValueError names the file and the key or slice that does not fit."""
    resolved = config_mod.load_config(args.config)
    env = config_mod.build_env(resolved)
    path = args.checkpoint
    doc = load_checkpoint(path)
    if doc["env"] != resolved["env"]:
        raise config_mod.ConfigError(f"{path}: checkpoint was trained on a different "
                                     "environment than the config")
    try:
        section = config_mod.resolve_model(doc["model"], resolved["train"]["objective"])
    except ValueError as exc:
        raise ValueError(f"{path}: model {doc['model']!r} does not build ({exc})") from None
    model = config_mod.build_model(dict(resolved, model=section), env)
    for name in model.params.names:
        got = doc["params"][name].shape if name in doc["params"] else "missing"
        if got != model.params.view(name).shape:
            raise ValueError(f"{path}: parameter slice {name!r} is {got}, the model's is "
                             f"{model.params.view(name).shape}")
        model.params.view(name)[...] = doc["params"][name]
    return resolved, env, model


def cmd_train(args: argparse.Namespace) -> int:
    try:
        resolved = config_mod.load_config(args.config)
        env = config_mod.build_env(resolved)
        model = config_mod.build_model(resolved, env)
        train_cfg = config_mod.build_train_config(resolved)
        outdir = config_mod.output_dir(resolved)
        trainer = Trainer(model, env, train_cfg, metrics_path=os.path.join(outdir, "metrics.csv"))
        os.makedirs(outdir, exist_ok=True)
        for name in ("metrics.csv", "resolved_config.json", "checkpoint.json", "certificate.json"):
            _check_output(os.path.join(outdir, name))
    except (EnumerationCapError, OSError, ValueError) as exc:  # ConfigError is a ValueError
        return _fail(str(exc))
    config_mod.write_resolved(resolved, os.path.join(outdir, "resolved_config.json"))
    state = trainer.run()

    save_checkpoint(os.path.join(outdir, "checkpoint.json"), model.params, trainer.optimizer,
                    resolved["model"], resolved["env"])

    scope, bound_txt = trainer.certification_scope(), "n/a"
    if state.round > 0 and len(scope):
        report = certify_mod.sample_certificate(
            model, env, np.sort(scope), train_cfg.cert_m, train_cfg.cert_n,
            rng_for(train_cfg.seed, "cli.cert.backward"),
            rng_for(train_cfg.seed, "cli.cert.forward"), train_cfg.alpha,
        )
        if _write_json(os.path.join(outdir, "certificate.json"), report.to_dict()):
            return 2
        if report.bound is not None:
            bound_txt = f"{report.bound:.6f}"

    print(
        f"trained {state.round} rounds | certified early exit: {state.certified} | "
        f"final bound: {bound_txt} | outputs in {outdir}"
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        for flag, value in (("-m", args.m), ("-n", args.n)):
            if args.from_log and value is not None:
                raise ValueError(f"{flag} does not apply with --from-log: the log sets the counts")
        _check_output(args.output)
        resolved, env, model = _load_model_for(args)
        cfg = config_mod.build_train_config(resolved)
        alpha = cfg.alpha if args.alpha is None else args.alpha
        if args.from_log:
            certify_mod.check_alpha(alpha)
        else:
            m = cfg.cert_m if args.m is None else args.m
            n = cfg.cert_n if args.n is None else args.n
            certify_mod.check_samples(m, n, alpha)
            check_walk_memory(env, m, "train.cert_m" if args.m is None else "-m")
            check_walk_memory(env, n, "train.cert_n" if args.n is None else "-n")
    except (EnumerationCapError, OSError, ValueError) as exc:
        return _fail(str(exc))

    if args.from_log:
        try:
            bwd, fwd = read_trajectory_log(args.from_log)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read trajectory log: {exc}")
        if not len(bwd) or not len(fwd):
            return _fail("trajectory log must contain both backward- and forward-sampled records")
        report = certify_mod.optimize_certificate(
            certify_mod.records_from_trajectories(bwd, model.logz),
            certify_mod.records_from_trajectories(fwd, model.logz),
            alpha,
        )
    else:
        report = certify_mod.sample_certificate(  # terminating states ascend
            model, env, env.terminating_states, m, n, rng_for(cfg.seed, "cli.cert.backward"),
            rng_for(cfg.seed, "cli.cert.forward"), alpha,
        )

    if _write_json(args.output, report.to_dict()):
        return 2
    bound_txt = "n/a (no usable samples)" if report.bound is None else f"{report.bound:.6f}"
    print(f"TV bound: {bound_txt} (confidence {report.confidence:.3f}), wrote {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.samples is not None and args.samples < 1:
        return _fail("need at least one evaluation sample")
    try:
        _check_output(args.output)
        resolved, env, model = _load_model_for(args)
        if resolved["eval"]["oracle"]:
            check_state_cap(env.num_states, "eval.oracle")
        samples = resolved["eval"]["samples"] if args.samples is None else args.samples
        check_walk_memory(env, samples, "eval.samples" if args.samples is None else "--samples")
    except (EnumerationCapError, OSError, ValueError) as exc:
        return _fail(str(exc))
    rng = rng_for(resolved["seed"], "cli.evaluate")
    xs = sample_forward_batch(model, env, rng, samples).terminals
    tv = oracle.exact_tv(model, env) if resolved["eval"]["oracle"] else None
    report = oracle.EvalReport(
        exact_tv=tv,
        empirical_total_l1=oracle.empirical_total_l1(xs, env),
        mode_count=oracle.count_modes(xs, env),
        sample_count=samples,
    )
    if _write_json(args.output, report.to_dict()):
        return 2
    tv_txt = "off" if tv is None else f"{tv:.6f}"
    print(
        f"exact TV: {tv_txt} | empirical total L1: {report.empirical_total_l1:.6f} | "
        f"modes: {report.mode_count} | wrote {args.output}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify as verify_mod

    try:
        results = verify_mod.run_suites(args.suite)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stablegfn",
        description="GFlowNet training on finite DAGs with TV certificates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training experiment from a config file")
    t.add_argument("config", help="path to the YAML/JSON experiment config")
    t.set_defaults(fn=cmd_train)

    c = sub.add_parser("certify", help="compute an optimized TV certificate")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--config", required=True)
    c.add_argument("-m", type=int, default=None,
                   help="backward sample count (default from config train.cert_m; "
                        "not with --from-log)")
    c.add_argument("-n", type=int, default=None,
                   help="forward sample count (default from config train.cert_n; "
                        "not with --from-log)")
    c.add_argument("--alpha", type=float, default=None,
                   help="per-side failure probability (default from config confidence)")
    c.add_argument("--from-log", default=None,
                   help="certify from a trajectory JSON-lines log instead of sampling")
    c.add_argument("--output", default="certificate.json")
    c.set_defaults(fn=cmd_certify)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint against the target")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--samples", type=int, default=None,
                   help="forward sample count (default from config eval.samples)")
    e.add_argument("--output", default="eval.json")
    e.set_defaults(fn=cmd_evaluate)

    v = sub.add_parser("verify", help="run the theorem property suites")
    v.add_argument("--suite", action="append", default=None,
                   help="run only the named suite (repeatable)")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
