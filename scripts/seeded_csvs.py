#!/usr/bin/env python3
"""Write the 23 seeded CSVs that a change compares against its parent commit.

Usage:
    python3 scripts/seeded_csvs.py OUT_DIR

Runs, in this process, the default `vflsim compare` (20 rounds, seeds 1-3)
into OUT_DIR/default, acceptance 7's desk comparison (60 rounds, seeds 11-13)
into OUT_DIR/desk, one scheme1 and one vrvfl run of the default config at 10
times the arrival rate (6 rounds, seed 1) into OUT_DIR/dense, and the same
scheme1 run with non-iid partitions into OUT_DIR/dense-noniid.  The package
is imported from the src directory of the checkout that holds this script, so
running it from a checkout of the parent and from one of the change and
passing both OUT_DIRs to scripts/csv_moves.py reports what the change moved.
OUT_DIR/platform.txt records the numpy, BLAS and BLAS core the bits rest on,
as the run manifests do.  The exit status is the first nonzero `vflsim` exit
status, or 0.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vflsim import cli, sim  # noqa: E402

DESK = ["traffic.arrival_rate_per_lane=0.05", "physical.feedback_delay_s=1e-4",
        "learning.feature_dim=30", "learning.class_separation=1.2",
        "learning.partitioning=noniid", "learning.lr_base=0.01",
        "learning.aggregation=anchored", "learning.test_samples_per_class=200"]


def commands(out):
    yield ["compare", "--rounds", "20", "--seeds", "1,2,3", "--out-dir", f"{out}/default"]
    desk = [arg for item in DESK for arg in ("--set", item)]
    yield ["compare", "--rounds", "60", "--seeds", "11,12,13", "--out-dir", f"{out}/desk"] + desk
    for scheduler in ("scheme1", "vrvfl"):
        yield ["run", "--rounds", "6", "--seed", "1", "--scheduler", scheduler,
               "--out-dir", f"{out}/dense", "--set", "traffic.arrival_rate_per_lane=2.0"]
    yield ["run", "--rounds", "6", "--seed", "1", "--scheduler", "scheme1",
           "--out-dir", f"{out}/dense-noniid", "--set", "traffic.arrival_rate_per_lane=2.0",
           "--set", "learning.partitioning=noniid"]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 scripts/seeded_csvs.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    (out / "platform.txt").write_text(f"platform = {sim.platform()}\n", encoding="utf-8")
    for args in commands(argv[1]):
        status = cli.main(args)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
