"""Outside-in tracing: wrap the public functions of vflsim's modules, time them, count them.

Nothing under ``src/`` is edited.  The tracer swaps module and class attributes
for timing wrappers while it is installed and puts the originals back on
``restore()``.  Each timed call is a span; a span's self time is its duration
minus the part covered by the timed calls made inside it.  Count-only wrappers
add a counter and no span, so they do not split their caller's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from vflsim import channel, fl_core, mobility, scheduler, sim


class Tracer:
    """Totals per span name: inclusive seconds, self seconds and calls, plus named counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []  # [span name, seconds covered by child spans]
        self._saved = []  # (owner, attribute, original) in install order

    # -- wrapping -------------------------------------------------------------

    def _swap(self, owner, attr, make):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner, attr, name, after=None, outermost=False):
        """Time every call of owner.attr as span `name`; `after(result, args)` may add counts.

        With `outermost`, a call made while a span of the same name is open runs
        unwrapped, so a baseline that delegates to the full solver counts once.
        """
        stack, seconds, self_seconds, calls = self._stack, self.seconds, self.self_seconds, self.calls
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if outermost and any(frame[0] == name for frame in stack):
                    return fn(*args, **kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    seconds[name] += dt
                    self_seconds[name] += dt - frame[1]
                    calls[name] += 1
                    if stack:
                        stack[-1][1] += dt
                if after is not None:
                    after(result, args)
                return result
            return wrapper

        self._swap(owner, attr, make)

    def counter(self, owner, attr, name, inside=None):
        """Count calls of owner.attr, optionally only those made directly inside span `inside`."""
        stack, counts = self._stack, self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                if inside is None or (stack and stack[-1][0] == inside):
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._swap(owner, attr, make)

    def restore(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


SOLVERS = ("bcd_solve", "scheme1_baseline", "scheme2_baseline")


def install(tracer: Tracer):
    """Wrap the layer boundaries of a round; returns the tracer for chaining."""
    t, c = tracer, tracer.counts

    def add(key, value):
        c[key] += value

    def on_round(record, args):
        add("mobility.population", len(args[0].vehicles))
        add("scheduler.trim_events", record.trim_events)

    def on_context(ctx, _args):
        add("scheduler.feasible", ctx.size)
        add("scheduler.budget_dropped", len(ctx.budget_dropped))

    def on_solve(result, _args):
        add("scheduler.solves", 1)
        add("scheduler.converged", 1 if result[1].converged else 0)

    t.span(sim.Experiment, "run_round", "sim.round", after=on_round)
    t.span(sim.Experiment, "draw_outcomes", "sim.draw_outcomes")
    t.span(mobility.ArrivalProcess, "pop_until", "mobility.pop_until",
           after=lambda out, _a: add("mobility.arrivals", len(out)))
    # sim binds nearest_rsu_distance by name at import time
    t.span(sim, "nearest_rsu_distance", "mobility.nearest_rsu")
    t.span(channel, "sample_fading_pair", "channel.fading")
    t.span(channel, "temporal_correlation", "channel.correlation")
    t.span(channel, "large_scale_gain", "channel.pathloss")
    t.span(scheduler, "build_context", "scheduler.build_context", after=on_context)
    for fn in SOLVERS:
        t.span(scheduler, fn, "scheduler.solve", after=on_solve, outermost=True)
    t.span(scheduler, "solve_rate_block", "scheduler.rate_block")
    t.span(scheduler, "solve_inclusion_block", "scheduler.inclusion_block")
    t.span(scheduler, "objective", "scheduler.objective")
    t.counter(scheduler.SchedulingContext, "success_prob", "scheduler.success_prob_evals")
    t.span(scheduler, "realize_selection", "scheduler.select")
    t.span(fl_core, "make_partition", "fl_core.partition")
    t.span(fl_core, "local_train", "fl_core.local_train")
    t.counter(fl_core, "loss_and_grad", "fl_core.sgd_steps", inside="fl_core.local_train")
    t.span(fl_core, "aggregate", "fl_core.aggregate")
    t.span(fl_core, "evaluate", "fl_core.evaluate")
    return tracer


def layer_metrics(tracer: Tracer, ops, overhead_s):
    """Per-layer figures per operation (round or instance), in BENCHMARK.json's names."""
    s, own, n, c = tracer.seconds, tracer.self_seconds, tracer.calls, tracer.counts
    per = 1.0 / ops
    solves = c["scheduler.solves"]
    values = {
        "sim.round_self_s": own["sim.round"] * per,
        "sim.draw_outcomes_s": s["sim.draw_outcomes"] * per,
        "mobility.population": c["mobility.population"] * per,
        "mobility.arrivals": c["mobility.arrivals"] * per,
        "mobility.pop_until_s": s["mobility.pop_until"] * per,
        "mobility.nearest_rsu_s": s["mobility.nearest_rsu"] * per,
        "channel.refreshes": n["channel.fading"] * per,
        "channel.fading_s": s["channel.fading"] * per,
        "channel.correlation_s": s["channel.correlation"] * per,
        "channel.pathloss_s": s["channel.pathloss"] * per,
        "scheduler.build_context_s": s["scheduler.build_context"] * per,
        "scheduler.feasible": c["scheduler.feasible"] * per,
        "scheduler.budget_dropped": c["scheduler.budget_dropped"] * per,
        "scheduler.solve_s": s["scheduler.solve"] * per,
        "scheduler.solve_self_s": own["scheduler.solve"] * per,
        "scheduler.rate_blocks": n["scheduler.rate_block"] * per,
        "scheduler.rate_block_s": s["scheduler.rate_block"] * per,
        "scheduler.inclusion_blocks": n["scheduler.inclusion_block"] * per,
        "scheduler.inclusion_block_s": s["scheduler.inclusion_block"] * per,
        "scheduler.objective_evals": n["scheduler.objective"] * per,
        "scheduler.success_prob_evals": c["scheduler.success_prob_evals"] * per,
        "scheduler.converged_ratio": c["scheduler.converged"] / solves if solves else 0.0,
        "scheduler.select_s": s["scheduler.select"] * per,
        "scheduler.trim_events": c["scheduler.trim_events"] * per,
        "fl_core.partitions": n["fl_core.partition"] * per,
        "fl_core.partition_s": s["fl_core.partition"] * per,
        "fl_core.local_trains": n["fl_core.local_train"] * per,
        "fl_core.local_train_s": s["fl_core.local_train"] * per,
        "fl_core.sgd_steps": c["fl_core.sgd_steps"] * per,
        "fl_core.aggregate_s": s["fl_core.aggregate"] * per,
        "fl_core.evaluate_s": s["fl_core.evaluate"] * per,
        "bench.trace_overhead_s": overhead_s,
    }
    return values
