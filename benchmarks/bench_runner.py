"""Timed and traced runs of one workload, and the result object the benchmark prints.

Each workload pass repeats the same operations on fresh state.  An operation's
cost is the median over the passes of its reference-host time (bench_clock).
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time

import bench_clock
import bench_trace
from bench_workloads import WORKLOADS

MIN_PASSES = 3


class Stepper:
    """Runs a workload pass by pass, timing set-up apart from the operations.

    Keeps the state of the first pass for the output checks and counts later
    passes whose outputs differ from it.  With `traced`, each pass runs under
    its own installed Tracer.
    """

    def __init__(self, workload, traced=False):
        self.workload = workload
        self.traced = traced
        self.setups = []
        self.passes = []
        self.tracers = []
        self.first = None
        self.first_fingerprint = None
        self.mismatches = 0

    def step(self):
        state, _, cost = bench_clock.timed(self.workload.setup)
        self.setups.append(cost)
        tracer = bench_trace.install(bench_trace.Tracer()) if self.traced else None
        try:
            p = self.workload.run(state)
        finally:
            if tracer is not None:
                tracer.restore()
        fingerprint = self.workload.fingerprint(state)
        if self.first is None:
            self.first, self.first_fingerprint = state, fingerprint
        elif fingerprint != self.first_fingerprint:
            self.mismatches += 1
        self.passes.append(p)
        self.tracers.append(tracer)

    @property
    def attempted(self):
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self):
        return sum(p.failed for p in self.passes)

    def costs(self, baseline_only=False):
        """Median reference-host time of each completed operation over the passes, by key."""
        seen = {}
        for p in self.passes:
            for key, s in p.seconds.items():
                if not baseline_only or key in p.baseline:
                    seen.setdefault(key, []).append(s)
        return {key: statistics.median(v) for key, v in seen.items()}


def _until(seconds, steppers):
    """Whole passes of every stepper in turn, at least MIN_PASSES, until `seconds` pass."""
    start = time.perf_counter()
    while len(steppers[0].passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        for s in steppers:
            s.step()


def _rate(costs):
    return len(costs) / sum(costs.values()) if costs else math.nan


def _checked(stepper):
    problems, quality = stepper.workload.check(stepper.first)
    if stepper.mismatches:
        problems.append(f"{stepper.mismatches} later passes gave different outputs from the first")
    return problems, quality


def _complain(problems):
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run(name, seed, seconds, trace):
    """One benchmark run; returns the result object."""
    plain = Stepper(WORKLOADS[name](seed))
    if not trace:
        _until(seconds, [plain])
        problems, quality = _checked(plain)
        _complain(problems)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": _metric(statistics.median(plain.setups), "s"),
            "rounds_per_s": _metric(_rate(plain.costs()), "1/s"),
            "baseline_rounds_per_s": _metric(_rate(plain.costs(baseline_only=True)), "1/s"),
            "objective_ratio_geomean": _metric(quality, "ratio"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        }
        return {"correct": not problems, "attempted": plain.attempted, "failed": plain.failed,
                "metrics": metrics}

    # traced: passes alternate untraced and traced; the difference is the overhead
    traced = Stepper(WORKLOADS[name](seed), traced=True)
    _until(seconds, [plain, traced])
    problems, _ = _checked(plain)
    if traced.mismatches or traced.first_fingerprint != plain.first_fingerprint:
        problems.append("the traced run produced different outputs from the untraced run")
    _complain(problems)
    plain_costs, traced_costs = plain.costs(), traced.costs()
    overhead = (sum(traced_costs.values()) - sum(plain_costs.values())) / len(plain_costs)
    quietest = min(range(len(traced.passes)), key=lambda k: sum(traced.passes[k].wall.values()))
    values = bench_trace.layer_metrics(traced.tracers[quietest],
                                       traced.passes[quietest].attempted, overhead)
    metrics = {k: _metric(v, layer_unit(k)) for k, v in values.items()}
    return {"correct": not problems, "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics}
