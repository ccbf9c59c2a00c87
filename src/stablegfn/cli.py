"""Command-line interface: train, certify, evaluate, and verify subcommands.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage or
configuration errors and on write faults, printed as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import certify as certify_mod
from . import config as config_mod
from . import envs, oracle, output
from .approximator import checkpoint_document, load_checkpoint
from .envs import EnumerationCapError, check_walk_memory
from .policy import sample_forward_batch
from .trainer import Trainer, rng_for


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_model_for(args: argparse.Namespace):
    """(resolved config, env, model) for a command's ``--config`` and ``--checkpoint``:
    the checkpoint's model section, built by ``config.build_model``, with its
    parameters.  Only the model's own slices are read, so a checkpoint that holds
    more (a tree's learned ``pb`` net, written before trees resolved to the
    uniform backward) still loads.  An ``--output`` that cannot be written is
    refused first, an OSError; a ValueError names the file and the key or
    slice that does not fit."""
    output.check_output(args.output)
    resolved = config_mod.load_config(args.config)
    env = config_mod.build_env(resolved)
    path = args.checkpoint
    doc = load_checkpoint(path)
    if doc["env"] != resolved["env"]:
        raise config_mod.ConfigError(f"{path}: checkpoint was trained on a different "
                                     "environment than the config")
    try:
        section = config_mod.resolve_model(doc["model"], resolved["train"]["objective"],
                                           resolved["env"]["kind"])
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
        outdir = resolved["output_dir"]
        trainer = Trainer(model, env, train_cfg, metrics_path=os.path.join(outdir, "metrics.csv"))
        os.makedirs(outdir, exist_ok=True)
        for name in ("metrics.csv", "resolved_config.json", "checkpoint.json", "certificate.json"):
            output.check_output(os.path.join(outdir, name))
    except (EnumerationCapError, ValueError) as exc:  # ConfigError is a ValueError
        return _fail(str(exc))
    output.write_json(os.path.join(outdir, "resolved_config.json"), resolved)
    state = trainer.run()

    output.write_json(os.path.join(outdir, "checkpoint.json"), checkpoint_document(
        trainer.optimizer, resolved["model"], resolved["env"]))

    bound_txt = "n/a"
    if state.round > 0:  # a round merges its terminals, so the scope is not empty
        report = certify_mod.sample_certificate(
            model, env, trainer.certification_scope(), train_cfg.cert_m, train_cfg.cert_n,
            rng_for(train_cfg.seed, "cli.cert.backward"),
            rng_for(train_cfg.seed, "cli.cert.forward"), train_cfg.alpha,
        )
        output.write_json(os.path.join(outdir, "certificate.json"), report.to_dict())
        if report.bound is not None:
            bound_txt = f"{report.bound:.6f}"

    print(
        f"trained {state.round} rounds | certified early exit: {state.certified} | "
        f"final bound: {bound_txt} | outputs in {outdir}"
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        resolved, env, model = _load_model_for(args)
        cfg = config_mod.build_train_config(resolved)
        check_walk_memory(env, cfg.cert_m, "train.cert_m")
        check_walk_memory(env, cfg.cert_n, "train.cert_n")
    except (EnumerationCapError, ValueError) as exc:
        return _fail(str(exc))

    report = certify_mod.sample_certificate(  # terminating states ascend
        model, env, env.terminating_states, cfg.cert_m, cfg.cert_n,
        rng_for(cfg.seed, "cli.cert.backward"), rng_for(cfg.seed, "cli.cert.forward"), cfg.alpha,
    )
    output.write_json(args.output, report.to_dict())
    bound_txt = "n/a (no usable samples)" if report.bound is None else f"{report.bound:.6f}"
    print(f"TV bound: {bound_txt} (confidence {report.confidence:.3f}), wrote {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        resolved, env, model = _load_model_for(args)
        samples = resolved["eval"]["samples"]
        check_walk_memory(env, samples, "eval.samples")
    except (EnumerationCapError, ValueError) as exc:
        return _fail(str(exc))
    rng = rng_for(resolved["seed"], "cli.evaluate")
    xs = sample_forward_batch(model, env, rng, samples).terminals
    cap = envs.STATE_CAP  # read now, as check_state_cap reads it
    tv = oracle.exact_tv(model, env) if env.num_states <= cap else None
    report = oracle.EvalReport(
        exact_tv=tv,
        empirical_total_l1=oracle.empirical_total_l1(xs, env),
        mode_count=oracle.count_modes(xs, env),
        sample_count=samples,
    )
    output.write_json(args.output, report.to_dict())
    tv_txt = (f"n/a ({env.num_states} states exceed STATE_CAP = {cap})" if tv is None
              else f"{tv:.6f}")
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

    c = sub.add_parser("certify", help="compute an optimized TV certificate from the config's "
                       "train.cert_m, train.cert_n and train.confidence")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--config", required=True)
    c.add_argument("--output", default="certificate.json")
    c.set_defaults(fn=cmd_certify)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint against the target on the "
                       "config's eval.samples forward samples, with the exact TV on a graph "
                       "of at most STATE_CAP states")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--output", default="eval.json")
    e.set_defaults(fn=cmd_evaluate)

    v = sub.add_parser("verify", help="run the theorem property suites")
    v.add_argument("--suite", action="append", default=None,
                   help="run only the named suite (repeatable)")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # a fault reading an input or writing an output
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
