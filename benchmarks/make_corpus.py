"""Regenerate the solve-corpus instance files and their manifest.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/make_corpus.py

The instances are written in the program's own dump_instance format, so the
corpus stays the same input however the environment code changes later.  The
manifest records, per file, the regime it came from, the solver path it takes at
generation time and, for two-vehicle instances, the minimum found by the
independent grid oracle in tests/oracles.py.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from instances import random_context  # noqa: E402
from oracles import grid_min_two_vehicle  # noqa: E402
from vflsim import scheduler  # noqa: E402
from vflsim.config import parse_config  # noqa: E402
from vflsim.sim import Experiment  # noqa: E402

from bench_workloads import CORPUS_DIR, DENSE_OVERRIDES, DESK_OVERRIDES  # noqa: E402

# (regime, config overrides, scheduler, seed, rounds whose context is kept)
SIMULATED = [
    ("default", {}, "vrvfl", 1, (0, 3)),
    ("default", {}, "vrvfl", 2, (0, 3)),
    ("default", {}, "scheme2", 1, (0, 3)),
    ("default", {}, "scheme2", 2, (0,)),
    ("desk", DESK_OVERRIDES, "vrvfl", 11, (0, 4)),
    ("desk", DESK_OVERRIDES, "vrvfl", 12, (0, 4)),
    ("desk", DESK_OVERRIDES, "vrvfl", 13, (0,)),
    ("desk", DESK_OVERRIDES, "scheme2", 11, (0, 4)),
    ("desk", DESK_OVERRIDES, "scheme2", 12, (0, 4)),
    ("desk", DESK_OVERRIDES, "scheme2", 13, (0,)),
    ("dense", DENSE_OVERRIDES, "vrvfl", 1, (0,)),
    ("dense", DENSE_OVERRIDES, "vrvfl", 2, (0,)),
    ("dense", DENSE_OVERRIDES, "scheme2", 1, (0,)),
    ("dense", DENSE_OVERRIDES, "scheme2", 2, (0,)),
]
SMALL_SEED = 2026
SMALL_SIZES = (2, 2, 2, 2, 2, 2, 3, 4, 5, 6)


def round_contexts(overrides, sched, seed, keep):
    """The contexts scheduler.build_context returns in the kept rounds of one run."""
    cfg = parse_config(overrides={**overrides, "run.scheduler": sched})
    exp = Experiment(cfg, seed=seed)
    seen = []
    build = scheduler.build_context

    def capture(*args, **kwargs):
        seen.append(build(*args, **kwargs))
        return seen[-1]

    scheduler.build_context = capture
    try:
        for _ in range(max(keep) + 1):
            exp.run_round()
    finally:
        scheduler.build_context = build
    # scheme2 solves the round at alpha = 1; store that alpha with the instance
    alpha = 1.0 if sched == "scheme2" else cfg.optimization.alpha
    return [dataclasses.replace(seen[r], alpha=alpha) for r in keep]


def solver_path(ctx):
    if not 0.0 < ctx.alpha < 1.0:
        return "endpoint"
    return "scan" if scheduler._ceiling_scan(ctx, ctx.alpha) is not None else "multistart"


def main():
    CORPUS_DIR.mkdir(exist_ok=True)
    for old in CORPUS_DIR.glob("*.txt"):
        old.unlink()
    entries = []

    def add(name, regime, ctx, grid_min=None):
        scheduler.dump_instance(ctx, CORPUS_DIR / name)
        entry = {"file": name, "regime": regime, "vehicles": int(ctx.size),
                 "alpha": ctx.alpha, "path": solver_path(ctx)}
        if grid_min is not None:
            entry["grid_min"] = grid_min
        entries.append(entry)

    for regime, overrides, sched, seed, keep in SIMULATED:
        for r, ctx in zip(keep, round_contexts(overrides, sched, seed, keep)):
            add(f"{regime}_{sched}_s{seed}_r{r}.txt", regime, ctx)
    rng = np.random.default_rng(SMALL_SEED)
    for k, n in enumerate(SMALL_SIZES):
        ctx = random_context(rng, n)
        grid = grid_min_two_vehicle(ctx, ctx.alpha) if n == 2 else None
        add(f"small_n{n}_{k}.txt", "small", ctx, grid)
    with open(CORPUS_DIR / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({"instances": entries}, f, indent=1)
        f.write("\n")
    for e in entries:
        print(f"{e['file']}: {e['vehicles']} vehicles, alpha {e['alpha']:g}, {e['path']}")


if __name__ == "__main__":
    main()
