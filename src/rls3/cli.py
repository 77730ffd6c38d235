"""Command line entry point.

Subcommands:
  pretrain        intrinsic-only agent pretraining, saves a checkpoint
  run             the full selection/fine-tuning loop into a run directory
  gen-fixed-set   seeded validation/test set generation (prints the digest)
  eval            score a judge checkpoint on a fixed set with breakdowns
  export-plots    flatten report.json/metrics.csv into plot-ready CSVs
  replay          re-derive relations from samples.jsonl and verify captions

Exit codes: 0 success, 1 usage error, 2 runtime failure. Diagnostics go to
stderr; machine-readable output goes to stdout or into the run directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import datasets, judges, orchestrator
from .orchestrator import ConfigError, RunConfig, apply_overrides, config_from_dict


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="rls3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    # the config flags; each subcommand takes only those it reads
    flags = {
        "--config": dict(help="JSON config file"),
        "--seed": dict(type=int, help="override config seed"),
        "--set": dict(
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable",
        ),
        "--judge": dict(help="generative | contrastive | external:<addr>"),
        "--agent": dict(choices=("sac", "random")),
        "--budget": dict(type=int, help="generation-attempt cap"),
    }

    def command(name, summary, *names):
        p = sub.add_parser(name, help=summary)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.add_argument(
            "--run-dir",
            default=os.environ.get("RLS3_RUN_DIR"),
            help="output directory (default: $RLS3_RUN_DIR)",
        )
        return p

    config = ("--config", "--seed", "--set")
    p = command("pretrain", "intrinsic-only agent pretraining", *config)
    p.add_argument("--steps", dest="pretrain_steps", type=int, help="override pretrain_steps")

    command("run", "full loop", *flags)

    p = command("gen-fixed-set", "seeded fixed evaluation set", *config)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scenes", default="train", help="train | test | path to a suite file")
    p.add_argument("--out", default="fixed_set.jsonl", help="file name inside the run dir")

    p = command("eval", "judge on a fixed set with breakdowns", *config, "--judge")
    p.add_argument("--samples", required=True, help="JSONL sample file")
    p.add_argument("--judge-checkpoint", help="directory saved by a run")

    command("export-plots", "plot-ready CSVs from a run directory")

    p = command("replay", "verify samples.jsonl against the geometry")
    p.add_argument("--samples", help="explicit JSONL path (default: run dir samples.jsonl)")

    return parser


def _load_config(args) -> RunConfig:
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        doc.pop("digest", None)
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    for key, value in vars(args).items():  # the flags whose dest is a config field
        if key in RunConfig.__dataclass_fields__ and value is not None:
            doc[key] = value
    if overrides:
        doc = apply_overrides(doc, overrides)
    return config_from_dict(doc)


def _require_run_dir(args) -> Path:
    if not args.run_dir:
        raise UsageError("--run-dir is required (or set RLS3_RUN_DIR)")
    return Path(args.run_dir)


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    run_dir.mkdir(parents=True, exist_ok=True)
    seq = np.random.SeedSequence(config.seed)
    env_seed, agent_seed = seq.spawn(2)
    suite = orchestrator.resolve_suite(config.train_suite)
    env = orchestrator.make_env(config, suite, env_seed)
    agent = orchestrator.make_sac_agent(config, agent_seed)
    stats = agent_mod.pretrain_intrinsic(
        agent, env, config.pretrain_steps, update_every=config.pretrain_update_every
    )
    agent.save(run_dir / "agent")
    print(json.dumps(stats, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    report = orchestrator.run_loop(config, run_dir)
    if report.failure:
        print(f"run failed: {report.failure}", file=sys.stderr)
        return 2
    print(json.dumps({"run_dir": str(run_dir), "test_metric": report.test_metric}))
    return 0


def _cmd_gen_fixed_set(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    run_dir.mkdir(parents=True, exist_ok=True)
    suite = orchestrator.resolve_suite(args.scenes)
    out = run_dir / args.out
    digest = datasets.generate_fixed_set(suite, args.count, config.seed, out)
    print(json.dumps({"path": str(out), "count": args.count, "digest": digest}))
    return 0


def _check_names(records, catalog_names) -> None:
    """Raise ValueError naming the first record with an object outside the
    catalog, or a subject or reference that is none of its objects. The
    judges' features look names up in the catalog and the generative judge's
    the subject and reference among the objects; `rls3 replay` rejects such
    a record too."""
    catalog = set(catalog_names)
    for rec in records:
        objects = [name for name, _pos, _yaw in rec.objects]
        for name in objects:
            if name not in catalog:
                raise ValueError(f"record {rec.id} names {name!r}, which is not in the catalog")
        for name in (rec.subject, rec.reference):
            if name not in objects:
                raise ValueError(f"record {rec.id} relates {name!r}, which is none of its objects")


def _cmd_eval(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    run_dir.mkdir(parents=True, exist_ok=True)
    records = datasets.read_samples(args.samples)
    if not records:
        raise ValueError(f"sample file {args.samples} holds no records")
    suite = orchestrator.resolve_suite(config.train_suite)
    _check_names(records, suite.catalog_names)
    judge = orchestrator.make_judge(config, suite.catalog_names, config.seed)
    with contextlib.closing(judge):
        if args.judge_checkpoint:
            if not hasattr(judge, "load"):
                raise UsageError("external judges do not take local checkpoints")
            judge.load(args.judge_checkpoint)
        verdicts, loss = judge.infer(records)
    scores = judges.verdict_scores(verdicts)
    summary = {"loss": loss, judge.metric_name: judges.scored_mean(scores)}
    with datasets.atomic_open(run_dir / "eval.json", encoding="utf-8") as f:
        json.dump({"metric": summary, **datasets.breakdown(scores, records)}, f,
                  sort_keys=True, indent=2)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_export_plots(args) -> int:
    run_dir = _require_run_dir(args)
    paths = datasets.export_plot_data(run_dir)
    print(json.dumps({"written": [str(p) for p in paths]}))
    return 0


def _cmd_replay(args) -> int:
    if args.samples:
        path = Path(args.samples)
    else:
        path = _require_run_dir(args) / "samples.jsonl"
    records = datasets.read_samples(path)
    bad = datasets.replay_verify(records)
    if bad is not None:
        idx, reason = bad
        print(f"replay mismatch at record id {records[idx].id}: {reason}", file=sys.stderr)
        return 2
    print(json.dumps({"records": len(records), "consistent": True}))
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "gen-fixed-set": _cmd_gen_fixed_set,
    "eval": _cmd_eval,
    "export-plots": _cmd_export_plots,
    "replay": _cmd_replay,
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
