"""Command-line front end: run experiments, compare schedulers, self-validate.

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import channel, fl_core, scheduler, sim
from .config import ConfigError, iter_keys, parse_config, serialize_config


def _build_parser():
    keys_help = "\n".join(f"  {key} (default: {default!r})" + (f": {note}" if note else "")
                           for key, default, _, note in iter_keys())
    parser = argparse.ArgumentParser(
        prog="vflsim",
        description="Federated learning over a vehicular edge network with imperfect CSI.",
        epilog="configuration keys and defaults:\n" + keys_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("run", "run one experiment (or a batch over run.seeds)"),
        ("compare", "run VR-VFL (per alpha), scheme1 and scheme2 on shared environment seeds"),
        ("validate", "run the built-in Monte Carlo and oracle property checks"),
        ("dump-instance", "write one round-0 scheduling instance for offline debugging"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="config file (section.key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key, e.g. --set optimization.alpha=0.2")
        p.add_argument("--seed", type=int, help="run.seed override")
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
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.seeds is not None:
        overrides["run.seeds"] = args.seeds
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


def _seeds(cfg):
    return tuple(int(s) for s in cfg.run.seeds) or (cfg.run.seed,)


def cmd_run(cfg):
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(cfg):
        tag = f"{cfg.run.scheduler}_seed{seed}"
        records = sim.run_experiment(cfg, seed=seed,
                                     csv_path=out / f"rounds_{tag}.csv",
                                     manifest_path=out / f"manifest_{tag}.txt")
        last = records[-1].accuracy if records else float("nan")
        print(f"run {tag}: {len(records)} rounds, final accuracy {last}")
    return 0


def compare_labels(cfg):
    labels = [(f"vrvfl_a{a:g}", "vrvfl", float(a)) for a in cfg.run.compare_alphas]
    labels.append(("scheme1", "scheme1", cfg.optimization.alpha))
    labels.append(("scheme2", "scheme2", cfg.optimization.alpha))
    return labels


def cmd_compare(cfg):
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    merged = ["scheduler,seed,t,time_cum,accuracy"]
    for label, sched, alpha in compare_labels(cfg):
        for seed in _seeds(cfg):
            run_cfg = parse_config(text=serialize_config(cfg))  # deep copy
            run_cfg.run.scheduler = sched
            run_cfg.optimization.alpha = alpha
            tag = f"{label}_seed{seed}"
            records = sim.run_experiment(run_cfg, seed=seed,
                                         csv_path=out / f"rounds_{tag}.csv",
                                         manifest_path=out / f"manifest_{tag}.txt")
            for r in records:
                merged.append(f"{label},{seed},{r.t},{r.time_cum!r},{r.accuracy!r}")
            last = records[-1].accuracy if records else float("nan")
            print(f"compare {tag}: {len(records)} rounds, final accuracy {last}")
    (out / "merged_accuracy_vs_time.csv").write_text("\n".join(merged) + "\n", encoding="utf-8")
    print(f"merged table: {out / 'merged_accuracy_vs_time.csv'}")
    return 0


def cmd_dump_instance(cfg):
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = _seeds(cfg)[0]
    exp = sim.Experiment(cfg, seed)
    exp._refresh_channels()
    ctx = scheduler.build_context(exp.vehicles.values(), exp.geometry, cfg)
    path = out / f"instance_seed{seed}.txt"
    scheduler.dump_instance(ctx, path)
    print(f"instance with {ctx.size} feasible vehicles -> {path}")
    return 0


# ---------------------------------------------------------------------------
# validate: quick self-contained property checks (numpy only)
# ---------------------------------------------------------------------------

def _check_outage_mc(rng):
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.0, 2.0)
        h2 = rng.uniform(0.0, 4.0)
        closed = channel.success_probability(channel.OutageCoefficients(a, b), h2)
        draws = rng.exponential(1.0, size=100_000)
        mc = float(np.mean(draws <= (h2 - b) / a))
        worst = max(worst, abs(closed - mc))
    return worst <= 0.01, f"max |closed-form - MC| = {worst:.4f} (tol 0.01)"


def _check_fading(rng):
    worst = 0.0
    for eps in (0.2, 0.5, 0.9):
        n = 100_000
        h_est = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        h_err = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        h = eps * h_est + np.sqrt(1 - eps**2) * h_err
        corr = float(np.mean(h * np.conj(h_est)).real)
        power = float(np.mean(np.abs(h) ** 2))
        worst = max(worst, abs(corr - eps), abs(power - 1.0))
    return worst <= 0.02, f"max deviation = {worst:.4f} (tol 0.02)"


def _random_context(rng, n, alpha):
    from .scheduler import SchedulingContext
    eps = rng.uniform(0.3, 0.85, size=n)
    h2 = rng.uniform(0.2, 3.0, size=n)
    gain = 10.0 ** rng.uniform(-10, -7, size=n)
    soj = rng.uniform(15.0, 120.0, size=n)
    w = 5e5
    n0 = 10 ** (-174.0 / 10) * 1e-3
    p = 10 ** (23.0 / 10) * 1e-3
    z = 4.38e6
    snr = p * gain * eps**2 * h2 / (w * n0)
    r_max = w * np.log1p(snr) / math.log(2)
    r_min = z / np.minimum(60.0, soj)
    keep = r_min < r_max
    data = rng.integers(50, 300, size=n).astype(float)
    return SchedulingContext(
        ids=np.arange(n)[keep], data_sizes=data[keep], epsilon=eps[keep],
        h_est_sq=h2[keep], gain=gain[keep], sojourn=soj[keep],
        r_min=r_min[keep], r_max=r_max[keep], alpha=alpha, u_min=0.05,
        n_blocks=20.0, bandwidth=w, noise_density=n0, tx_power=p, model_bits=z,
        d_total=float(data[keep].sum()))


def _check_inclusion_cost_convexity(rng):
    worst = 0.0
    certificate_min = math.inf
    for _ in range(20):
        ctx = _random_context(rng, 4, alpha=0.5)
        if ctx.size == 0:
            continue
        v = int(rng.integers(ctx.size))
        grid = np.linspace(ctx.r_min[v], ctx.r_max[v], 1002)[1:-1]
        theta = scheduler.inclusion_cost_summand(grid, v, 0.3, ctx)
        d2 = np.diff(theta, 2)
        worst = min(worst, float(d2.min() / max(np.abs(theta).max(), 1e-300)))
        xi1, xi3 = scheduler.power_ratios(ctx.eps2[v], ctx.h_est_sq[v], ctx.gain[v],
                                          ctx.tx_power, ctx.bandwidth, ctx.noise_density)
        fgrid = 1.0 + (xi3 / xi1) * np.linspace(1e-9, 1 - 1e-9, 1001)
        certificate_min = min(certificate_min, float(np.min(
            scheduler.curvature_certificate(fgrid, xi1, xi3))))
    ok = worst >= -1e-6 and certificate_min > 0.0
    return ok, f"min scaled 2nd diff = {worst:.2e}, min certificate = {certificate_min:.3g}"


def _check_block_limits(rng):
    for _ in range(3):
        ctx = _random_context(rng, 5, alpha=0.5)
        if ctx.size == 0:
            continue
        u = np.full(ctx.size, 0.4)
        if not np.array_equal(scheduler.solve_rate_block(u, ctx, alpha=1.0), ctx.r_min):
            return False, "alpha=1 rate block deviates from the lower rate bounds"
        if not np.array_equal(scheduler.solve_rate_block(u, ctx, alpha=0.0), ctx.r_max):
            return False, "alpha=0 rate block deviates from the upper rate bounds"
        u0 = scheduler.solve_inclusion_block(ctx.r_min, ctx, alpha=0.0)
        if not np.allclose(u0, ctx.u_min):
            return False, "alpha=0 inclusion block deviates from u_min"
    return True, "alpha in {0,1} lands exactly on the monotone box corners"


def _check_gradient(rng):
    worst = 0.0
    for _ in range(5):
        n, d, c = 12, 4, 3
        x = rng.standard_normal((n, d))
        y = rng.integers(0, c, size=n)
        w = rng.standard_normal(c * d + c)
        ref = rng.standard_normal(c * d + c)
        _, g = fl_core.loss_and_grad(w, x, y, c, ref=ref, mu=0.01)
        fd = np.zeros_like(w)
        h = 1e-6
        for k in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            lp, _ = fl_core.loss_and_grad(wp, x, y, c, ref=ref, mu=0.01)
            lm, _ = fl_core.loss_and_grad(wm, x, y, c, ref=ref, mu=0.01)
            fd[k] = (lp - lm) / (2 * h)
        worst = max(worst, float(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)))
    return worst <= 1e-5, f"max relative gradient error = {worst:.2e} (tol 1e-5)"


def _check_selection_frequency(rng):
    ctx = _random_context(rng, 6, alpha=0.5)
    if ctx.size == 0:
        return True, "skipped (degenerate instance)"
    plan, _ = scheduler.bcd_solve(ctx)
    counts = {i: 0 for i in plan.ids}
    trials = 20_000
    for _ in range(trials):
        for vid in scheduler.realize_selection(plan, rng, ctx.n_blocks):
            counts[vid] += 1
    worst = max(abs(counts[i] / trials - plan.inclusion_probs[i]) for i in plan.ids)
    return worst <= 0.01, f"max |frequency - u| = {worst:.4f} (tol 0.01)"


def _check_determinism(cfg):
    small = parse_config(text=serialize_config(cfg))
    small.run.rounds = 3
    small.traffic.arrival_rate_per_lane = 0.05
    a = sim.round_csv_text(sim.run_experiment(small, seed=7))
    b = sim.round_csv_text(sim.run_experiment(small, seed=7))
    return a == b, "two 3-round runs produce byte-identical CSV text"


def cmd_validate(cfg):
    rng = np.random.default_rng(20240)
    checks = [
        ("outage closed form vs Monte Carlo", lambda: _check_outage_mc(rng)),
        ("fading correlation and power", lambda: _check_fading(rng)),
        ("inclusion cost convexity and curvature certificate",
         lambda: _check_inclusion_cost_convexity(rng)),
        ("block solver monotone limits", lambda: _check_block_limits(rng)),
        ("training gradient vs finite differences", lambda: _check_gradient(rng)),
        ("selection frequency matches inclusion probabilities",
         lambda: _check_selection_frequency(rng)),
        ("seeded determinism", lambda: _check_determinism(cfg)),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"validate: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
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
