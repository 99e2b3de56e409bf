"""The three workloads: what one pass sets up and runs, and how its outputs are checked.

Every pass of a workload repeats the same operations on freshly built state, so
the benchmark can time each operation several times in one run.

desk-compare   The acceptance-7 regime (about 28 feasible vehicles, non-iid anchored
               training).  A pass builds the experiments of a fixed pool of
               environment seeds and runs DESK_ROUNDS rounds of vrvfl, scheme1 and
               scheme2 on each.  The pool is fixed because the cost of a VR-VFL round
               depends strongly on the environment (a slack-budget round that the
               ceiling scan settles costs a tenth of a binding one): one
               environment drawn from the seed moved it by about 30% between
               seeds, and a steady figure would take about 50 per run.  The seed
               sets the order of environments and schedulers.
dense-scheme1  The default config at 10x the arrival rate under scheme1: about 1,080
               vehicles on the road and 400 feasible after the u_min budget drop.  A
               pass builds the environment of the seed and runs DENSE_ROUNDS rounds;
               each round after the first admits about 720 arrivals.
solve-corpus   Stored scheduling instances solved by scheduler.bcd_solve alone at each
               instance's own alpha.  A pass loads the corpus and solves all of it
               in an order drawn from the seed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from vflsim import scheduler
from vflsim.config import parse_config
from vflsim.sim import Experiment, round_csv_text

import bench_checks
import bench_clock

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
SCHEDULERS = ("vrvfl", "scheme1", "scheme2")
DESK_POOL = (11, 12, 13, 14, 15)  # 11-13 are acceptance 7's seeds
DESK_ROUNDS = 2
DENSE_ROUNDS = 6
# alpha = 1 solves take under a millisecond; timed one at a time their cost
# relative to the reference kernel drifts by 15% with the host's load, by 9%
# when eight run back to back
ENDPOINT_REPEATS = 8

# overrides of tests/test_acceptance.py::_desk_config
DESK_OVERRIDES = {
    "traffic.arrival_rate_per_lane": "0.05",
    "physical.feedback_delay_s": "1e-4",
    "learning.feature_dim": "30",
    "learning.class_separation": "1.2",
    "learning.partitioning": "noniid",
    "learning.lr_base": "0.01",
    "learning.aggregation": "anchored",
    "learning.test_samples_per_class": "200",
}
DENSE_OVERRIDES = {"traffic.arrival_rate_per_lane": "2.0", "run.scheduler": "scheme1"}


def plan_alpha(cfg):
    """The alpha at which a round's RoundPlan.objective_value is stated."""
    return 1.0 if cfg.run.scheduler == "scheme2" else cfg.optimization.alpha


def round0_context(cfg, seed):
    """The round-0 scheduling instance of (cfg, seed), built on a separate Experiment."""
    exp = Experiment(cfg, seed)
    exp._refresh_channels()
    return scheduler.build_context(exp.vehicles.values(), exp.geometry, cfg)


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Pass:
    """Times of each operation of one pass, by operation key."""

    def __init__(self):
        self.seconds = {}  # key -> reference-host seconds, operations that completed
        self.wall = {}  # key -> wall seconds
        self.baseline = set()  # keys of operations scheduled by a baseline
        self.attempted = 0
        self.failed = 0

    def time(self, key, fn, baseline, label, repeats=1):
        """Run and time `repeats` back-to-back calls of one operation; an error fails them all.

        The time kept is per call, so an operation weighs the same however often
        it is repeated.
        """
        self.attempted += repeats
        try:
            out, wall, cost = bench_clock.timed(lambda: [fn() for _ in range(repeats)][-1])
        except Exception as err:  # the failure is counted and reported, the pass goes on
            self.failed += repeats
            print(f"{label}: failed: {err!r}", file=sys.stderr)
            return None
        self.seconds[key] = cost / repeats
        self.wall[key] = wall / repeats
        if baseline:
            self.baseline.add(key)
        return out


def _round_checks(exp, label):
    return (bench_checks.check_rounds(exp.records, exp.cfg, label)
            + bench_checks.check_final_accuracy(exp, label))


def _round0_ratio(exp, seed, label, bad):
    """Round-0 objective over the uniform point's; also checks the round-0 feasible count."""
    ctx = round0_context(exp.cfg, seed)
    if exp.records[0].n_feasible != ctx.size:
        bad.append(f"{label}: round-0 feasible count {exp.records[0].n_feasible} != {ctx.size}")
    ratio = exp.records[0].objective / bench_checks.reference_objective(ctx, plan_alpha(exp.cfg))
    if not ratio <= 1.0 + 1e-12:
        bad.append(f"{label}: round-0 objective above the uniform point by {ratio!r}")
    return ratio


class DeskCompare:
    name = "desk-compare"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.order = [(env, [SCHEDULERS[k] for k in rng.permutation(len(SCHEDULERS))])
                      for env in rng.permutation(DESK_POOL).tolist()]

    def setup(self):
        exps = {}
        for env, order in self.order:
            for sched in order:
                cfg = parse_config(overrides={**DESK_OVERRIDES, "run.scheduler": sched})
                exps[env, sched] = Experiment(cfg, seed=env)
        return exps

    def run(self, exps):
        p = Pass()
        for env, order in self.order:
            for sched in order:
                exp = exps[env, sched]
                for r in range(DESK_ROUNDS):
                    if p.time((env, sched, r), exp.run_round, sched != "vrvfl",
                              f"desk env {env} {sched} round {r}") is None:
                        break
        return p

    def fingerprint(self, exps):
        return {key: round_csv_text(exp.records) for key, exp in exps.items()}

    def check(self, exps):
        bad, ratios = [], []
        for env in DESK_POOL:
            cum = {}
            for sched in SCHEDULERS:
                exp = exps[env, sched]
                label = f"desk env {env} {sched}"
                bad += _round_checks(exp, label)
                if exp.records:
                    ratios.append(_round0_ratio(exp, env, label, bad))
                    cum[sched] = exp.records[-1].time_cum
            if len(cum) == len(SCHEDULERS) and not cum["vrvfl"] < min(cum["scheme1"],
                                                                        cum["scheme2"]):
                bad.append(f"desk env {env}: VR-VFL simulated time {cum['vrvfl']!r} is not "
                           f"below the baselines' {cum['scheme1']!r}, {cum['scheme2']!r}")
        return bad, geomean(ratios)


class DenseScheme1:
    name = "dense-scheme1"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        return Experiment(parse_config(overrides=DENSE_OVERRIDES), seed=self.seed), []

    def run(self, state):
        exp, populations = state
        p = Pass()
        for r in range(DENSE_ROUNDS):
            if p.time(r, exp.run_round, True, f"dense seed {self.seed} round {r}") is None:
                break
            populations.append(len(exp.vehicles))
        return p

    def fingerprint(self, state):
        return round_csv_text(state[0].records)

    def check(self, state):
        exp, populations = state
        label = f"dense seed {self.seed}"
        bad = _round_checks(exp, label)
        bad += bench_checks.check_dense_rounds(exp.records, populations, exp.cfg, label)
        return bad, _round0_ratio(exp, self.seed, label, bad)


def load_manifest():
    with open(CORPUS_DIR / "manifest.json", encoding="utf-8") as f:
        return json.load(f)["instances"]


class SolveCorpus:
    name = "solve-corpus"

    def __init__(self, seed):
        self.entries = load_manifest()
        shuffled = np.random.default_rng(seed).permutation(len(self.entries)).tolist()
        # the sub-millisecond alpha = 1 solves run first, so what precedes them
        # does not change with the seed
        self.order = sorted(shuffled, key=lambda k: self.entries[k]["alpha"] < 1.0)

    def setup(self):
        contexts = [scheduler.load_instance(CORPUS_DIR / e["file"]) for e in self.entries]
        return contexts, [None] * len(contexts)

    def run(self, state):
        contexts, results = state
        p = Pass()
        for k in self.order:
            ctx = contexts[k]
            endpoint = ctx.alpha >= 1.0
            results[k] = p.time(k, lambda: scheduler.bcd_solve(ctx), endpoint,
                                f"corpus {self.entries[k]['file']}",
                                ENDPOINT_REPEATS if endpoint else 1)
        return p

    def fingerprint(self, state):
        return [r[0].objective_value if r else None for r in state[1]]

    def check(self, state):
        bad, ratios = [], []
        for entry, ctx, result in zip(self.entries, *state):
            if result is None:
                continue
            plan, report = result
            found = bench_checks.check_plan(ctx, plan, report, entry.get("grid_min"))
            bad += [f"{entry['file']}: {msg}" for msg in found]
            ratios.append(plan.objective_value / bench_checks.reference_objective(ctx, ctx.alpha))
        return bad, geomean(ratios)


WORKLOADS = {w.name: w for w in (DeskCompare, DenseScheme1, SolveCorpus)}
