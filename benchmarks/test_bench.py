"""Fast checks of the benchmark itself: result schema, tracer hygiene, and that each
workload's output check rejects a broken program.

The workloads are cut down here (one environment, one or two rounds, a few
corpus instances, one pass) so the whole file runs in seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_runner
import bench_trace
import bench_workloads
from vflsim import fl_core, scheduler

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to one pass of a few cheap operations."""
    monkeypatch.setattr(bench_runner, "MIN_PASSES", 1)
    monkeypatch.setattr(bench_workloads, "DESK_POOL", (11,))
    monkeypatch.setattr(bench_workloads, "DESK_ROUNDS", 1)
    monkeypatch.setattr(bench_workloads, "DENSE_ROUNDS", 1)
    entries = bench_workloads.load_manifest()
    keep = [e for e in entries if e["regime"] == "small"][:3]
    keep += [e for e in entries if e["file"].startswith("desk_")][:1]
    keep += [e for e in entries if e["alpha"] == 1.0][:1]
    monkeypatch.setattr(bench_workloads, "load_manifest", lambda: keep)


def _problems(name, seed=1):
    stepper = bench_runner.Stepper(bench_workloads.WORKLOADS[name](seed))
    stepper.step()
    return bench_runner._checked(stepper)[0]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_result_carries_every_named_metric(small, name, trace):
    result = bench_runner.run(name, seed=3, seconds=0.0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_tracer_restores_every_wrapped_function():
    tracer = bench_trace.install(bench_trace.Tracer())
    saved = list(tracer._saved)
    try:
        assert len(saved) >= 20
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in saved:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


def test_traced_desk_pass_leaves_round_csv_identical(monkeypatch):
    monkeypatch.setattr(bench_workloads, "DESK_POOL", (11,))
    plain = bench_runner.Stepper(bench_workloads.DeskCompare(5))
    traced = bench_runner.Stepper(bench_workloads.DeskCompare(5), traced=True)
    plain.step()
    traced.step()
    assert traced.tracers[0].calls["sim.round"] == 2 * len(bench_workloads.SCHEDULERS)
    assert traced.first_fingerprint == plain.first_fingerprint


def test_corpus_check_rejects_a_plan_over_the_block_budget(small, monkeypatch):
    solve = scheduler.bcd_solve

    def greedy(ctx, **kwargs):
        plan, report = solve(ctx, **kwargs)
        plan.inclusion_probs = {i: 1.0 for i in plan.ids}
        return plan, report

    assert _problems("solve-corpus") == []
    monkeypatch.setattr(scheduler, "bcd_solve", greedy)
    assert any("exceeds N" in msg for msg in _problems("solve-corpus"))


def test_corpus_check_rejects_a_misreported_objective(small, monkeypatch):
    solve = scheduler.bcd_solve

    def flattering(ctx, **kwargs):
        plan, report = solve(ctx, **kwargs)
        return dataclasses.replace(plan, objective_value=0.99 * plan.objective_value), report

    monkeypatch.setattr(scheduler, "bcd_solve", flattering)
    assert any("own evaluation" in msg for msg in _problems("solve-corpus"))


def test_desk_check_rejects_a_wrong_accuracy(small, monkeypatch):
    evaluate = fl_core.evaluate
    monkeypatch.setattr(fl_core, "evaluate",
                        lambda *a, **k: (evaluate(*a, **k)[0] + 0.01, evaluate(*a, **k)[1]))
    assert any("final accuracy" in msg for msg in _problems("desk-compare"))


def test_dense_check_rejects_a_skipped_budget_drop(small, monkeypatch):
    build = scheduler.build_context

    def no_drop(vehicles, geometry, cfg):
        opt = cfg.optimization
        roomy = dataclasses.replace(cfg, optimization=dataclasses.replace(opt, u_min=1e-9))
        return dataclasses.replace(build(vehicles, geometry, roomy), u_min=opt.u_min)

    assert _problems("dense-scheme1") == []
    monkeypatch.setattr(scheduler, "build_context", no_drop)
    assert any("overflow" in msg for msg in _problems("dense-scheme1"))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "solve-corpus",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
