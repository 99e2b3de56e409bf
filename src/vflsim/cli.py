"""Command-line front end: run experiments, compare schedulers, self-validate.

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import checks, scheduler, sim
from .config import ConfigError, iter_keys, parse_config, serialize_config


def _build_parser():
    keys_help = "\n".join(f"  {key} (default: {default!r})" for key, default, _ in iter_keys())
    parser = argparse.ArgumentParser(
        prog="vflsim",
        description="Federated learning over a vehicular edge network with imperfect CSI.",
        epilog="configuration keys and defaults:\n" + keys_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("run", "run one experiment per seed of run.seeds"),
        ("compare", "run VR-VFL (per alpha), scheme1 and scheme2 on shared environment seeds"),
        ("validate", "run the built-in Monte Carlo and oracle property checks"),
        ("dump-instance", "write one round-0 scheduling instance for offline debugging"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="config file (section.key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key, e.g. --set optimization.alpha=0.2")
        p.add_argument("--seed", type=int, help="one seed: the same as --seeds N")
        p.add_argument("--seeds", help="run.seeds override, comma separated")
        p.add_argument("--alpha", type=float, help="optimization.alpha override")
        p.add_argument("--scheduler", choices=["vrvfl", "scheme1", "scheme2"],
                       help="run.scheduler override")
        p.add_argument("--rounds", type=int, help="run.rounds override")
        p.add_argument("--out-dir", help="run.out_dir override (env OUT_DIR also applies)")
    return parser


def _config_from_args(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    seeds = args.seed if args.seeds is None else args.seeds  # --seeds wins over --seed
    if seeds is not None:
        overrides["run.seeds"] = str(seeds)
    if args.alpha is not None:
        overrides["optimization.alpha"] = repr(args.alpha)
    if args.scheduler is not None:
        overrides["run.scheduler"] = args.scheduler
    if args.rounds is not None:
        overrides["run.rounds"] = str(args.rounds)
    if args.out_dir is not None:
        overrides["run.out_dir"] = args.out_dir
    elif os.environ.get("OUT_DIR"):
        overrides["run.out_dir"] = os.environ["OUT_DIR"]
    return parse_config(path=args.config, overrides=overrides)


def _labelled_configs(cfg, command):
    """The (label, config) pairs that `command` runs, each once per seed of run.seeds."""
    if command == "run":
        pairs = [(cfg.run.scheduler, cfg.run.scheduler, cfg.optimization.alpha)]
    else:
        pairs = [(f"vrvfl_a{a:g}", "vrvfl", float(a)) for a in cfg.run.compare_alphas]
        pairs += [(s, s, cfg.optimization.alpha) for s in ("scheme1", "scheme2")]
    labels = [label for label, _, _ in pairs]
    if len(set(labels)) < len(labels):  # one label's files would overwrite another's
        raise ConfigError("run.compare_alphas items must give distinct labels, got "
                          + ", ".join(labels))
    text = serialize_config(cfg)  # each label parses its own copy
    return [(label, parse_config(text=text, overrides={"run.scheduler": sched,
                                                       "optimization.alpha": repr(alpha)}))
            for label, sched, alpha in pairs]


def cmd_runs(cfg, command):
    """`run` or `compare`: each labelled config over run.seeds, one CSV and manifest per
    run, and for `compare` the merged accuracy-vs-time table."""
    runs = _labelled_configs(cfg, command)
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    merged = ["scheduler,seed,t,time_cum,accuracy"]
    for label, run_cfg in runs:
        for seed in (int(s) for s in cfg.run.seeds):
            tag = f"{label}_seed{seed}"
            records = sim.run_experiment(run_cfg, seed, csv_path=out / f"rounds_{tag}.csv",
                                         manifest_path=out / f"manifest_{tag}.txt")
            merged += [f"{label},{seed},{r.t},{r.time_cum!r},{r.accuracy!r}" for r in records]
            last = records[-1].accuracy if records else float("nan")
            print(f"{command} {tag}: {len(records)} rounds, final accuracy {last}")
    if command == "compare":
        (out / "merged_accuracy_vs_time.csv").write_text("\n".join(merged) + "\n",
                                                          encoding="utf-8")
        print(f"merged table: {out / 'merged_accuracy_vs_time.csv'}")
    return 0


def cmd_dump_instance(cfg):
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(cfg.run.seeds[0])
    exp = sim.Experiment(cfg, seed)
    exp._refresh_channels()
    ctx = scheduler.build_context(exp.vehicles, exp.geometry, cfg)
    if cfg.run.scheduler == "scheme2":
        ctx = replace(ctx, alpha=1.0)  # scheme2_baseline solves the round at alpha = 1
    path = out / f"instance_seed{seed}.txt"
    scheduler.dump_instance(ctx, path)
    print(f"instance with {ctx.size} feasible vehicles -> {path}")
    return 0


def cmd_validate():
    failures = 0
    for check in checks.VALIDATE:
        result = check()
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
        failures += 0 if result.ok else 1
    print(f"validate: {len(checks.VALIDATE) - failures}/{len(checks.VALIDATE)} checks passed")
    return 1 if failures else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command in ("run", "compare"):
            return cmd_runs(cfg, args.command)
        if args.command == "validate":
            return cmd_validate()
        if args.command == "dump-instance":
            return cmd_dump_instance(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - surface as runtime failure exit code
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
