"""The solver's blocked ceiling scan and its block searches' evaluations, bit for
bit against the references in tests/oracles.py: the scan one vehicle at a time
with sparse-table window minima and no pruning, and the evaluations on fresh
arrays.  The rate search's derivatives are held to differences of those
values.  Each exact block is held to the golden-section block it replaced,
searched cold: a value no higher, up to 1e-12 relative, with the box and, for
the inclusion block, the budget met.  The inclusion block's water-fill is held
to its KKT conditions on drawn inputs and at the ceilings of two dense
instances.
"""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from instances import (MODEL_BITS, NOISE, ROUND_CAP, TX_POWER, W_BLOCK, random_context,
                       symmetric_context)
from vflsim import scheduler
from vflsim.scheduler import SchedulingContext, load_instance, objective

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
INTERIOR = [p.name for p in sorted(CORPUS.glob("*.txt")) if 0.0 < load_instance(p).alpha < 1.0]


def built_context(eps, h2, gain, data, n_blocks=20.0, alpha=0.4):
    """Vehicles with the given channels, the default physics and a 90 s sojourn."""
    eps, h2, gain, data = (np.asarray(x, dtype=float) for x in (eps, h2, gain, data))
    snr = TX_POWER * gain * eps**2 * h2 / (W_BLOCK * NOISE)
    return SchedulingContext(
        ids=np.arange(len(eps)), data_sizes=data, epsilon=eps, h_est_sq=h2, gain=gain,
        sojourn=np.full(len(eps), 90.0), r_min=np.full(len(eps), MODEL_BITS / ROUND_CAP),
        r_max=W_BLOCK * np.log1p(snr) / math.log(2.0), alpha=alpha, u_min=0.05,
        n_blocks=n_blocks, bandwidth=W_BLOCK, noise_density=NOISE, tx_power=TX_POWER,
        model_bits=MODEL_BITS, d_total=max(float(data.sum()), 1.0))


def stronger(ctx, rng, decades=2.0):
    """ctx with each link's gain raised by up to `decades` decades (to at most 1e-5
    from random_context's 1e-7) and R_max raised to the new capacity, so the
    scan's log ceilings span many decades."""
    gain = ctx.gain * 10.0 ** rng.uniform(0.0, decades, ctx.size)
    snr = TX_POWER * gain * ctx.epsilon**2 * ctx.h_est_sq / (W_BLOCK * NOISE)
    return replace(ctx, gain=gain, r_max=W_BLOCK * np.log1p(snr) / math.log(2.0))


def degenerate(ctx, rng):
    """ctx with one vehicle's R_max within a relative 1e-14 to 1e-6 of its R_min."""
    r_max = ctx.r_max.copy()
    v = int(rng.integers(ctx.size))
    r_max[v] = ctx.r_min[v] * (1.0 + 10.0 ** rng.uniform(-14.0, -6.0))
    return replace(ctx, r_max=r_max)


def scan_both(ctx):
    """The reference's candidate, which ignores the budget, and the scan's.

    Where |V| u_min >= N the floor is the only point that fits: the scan's
    candidate is the floor's bytes, and the reference's overspends, is the
    floor's bytes or is None.  Otherwise both are None, or equal by their
    bytes where the reference's fits N; where it overspends, the scan's must
    fit N and the box.  The block bounds change no byte: the scan that computes
    every coarse ceiling's total returns the same."""
    got = scheduler._ceiling_scan(ctx, ctx.alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "_exact_ceilings", oracles.every_ceiling)
        unbounded = scheduler._ceiling_scan(ctx, ctx.alpha)
    assert (got is None) == (unbounded is None)
    assert got is None or got.tobytes() == unbounded.tobytes()
    want = oracles.reference_ceiling_scan(ctx, ctx.alpha)
    floor = np.full(ctx.size, ctx.u_min)
    if ctx.size * ctx.u_min >= ctx.n_blocks:
        assert got.tobytes() == floor.tobytes()
        assert want is None or want.sum() > ctx.n_blocks or want.tobytes() == floor.tobytes()
    elif want is None:
        assert got is None
    elif want.sum() <= ctx.n_blocks:
        assert got is not None and got.tobytes() == want.tobytes()
    else:
        assert got is not None and got.sum() <= ctx.n_blocks
        assert np.all(got >= ctx.u_min) and np.all(got <= 1.0)
    return want


def priced_against_reference(monkeypatch):
    """Make every scheduler._budget_priced call require the bytes of the
    (values, u, mu) that tests/oracles.py::reference_budget_priced returns for
    its arguments; returns the list of the calls' (arguments, result)."""
    calls = []
    price = scheduler._budget_priced

    def checked(*args):
        got = price(*args)
        want = oracles.reference_budget_priced(*args[:10])
        assert [a.tobytes() for a in got[:3]] == [b.tobytes() for b in want]
        calls.append((args, got))
        return got

    monkeypatch.setattr(scheduler, "_budget_priced", checked)
    return calls


class TestBudgetPriced:
    """The pricing's brackets kept in Python floats and its choices made once
    more at the final multipliers, against the pricing that kept everything in
    numpy arrays.  Inside a bracket the spend at the low end exceeds N and at
    the high end does not, and a ceiling whose spend equals N is done, so
    y_hi < 0 < y_lo and the secant is never flat."""

    def test_corpus(self, monkeypatch):
        calls = priced_against_reference(monkeypatch)
        for path in sorted(CORPUS.glob("*.txt")):
            scheduler.bcd_solve(load_instance(path))
        assert len(calls) == 4 * 9  # four passes of each default and desk VR-VFL solve

    def test_random_slack_and_tight_budgets(self, monkeypatch):
        # the coarse passes on the stride grid, the last pass at one ceiling on
        # every grid point; some ceilings leave a vehicle no option
        calls = priced_against_reference(monkeypatch)
        rng = np.random.default_rng(30)
        for i in range(60):
            ctx = random_context(rng, int(rng.integers(2, 40)), n_blocks=float(rng.integers(1, 20)),
                                 u_min=(0.05, 1e-9, 0.2)[i % 3])
            scheduler._ceiling_scan(ctx, ctx.alpha)
        assert len(calls) > 60
        assert any(np.isinf(got[0]).any() and np.isfinite(got[0]).any() for _, got in calls)

    def test_no_room_at_the_water_level(self, monkeypatch):
        # N vehicles with 1e2-1e6 times the data keep u = 1 while the rest sit
        # at the water level, so the spend off the water level is N exactly and
        # the closed-form step divides by zero room: the numpy pricing's x/0
        # steps away, and so must the one in Python floats.  Six of these draws
        # take such a step
        calls = priced_against_reference(monkeypatch)
        rng = np.random.default_rng(1)
        for _ in range(24):
            n_blocks = int(rng.integers(1, 4))
            ctx = random_context(rng, n_blocks + int(rng.integers(1, 3)),
                                 n_blocks=float(n_blocks), u_min=1e-9)
            data = ctx.data_sizes.copy()
            data[:n_blocks] *= 10.0 ** rng.uniform(2, 6)
            ctx = replace(ctx, data_sizes=data, d_total=float(data.sum()))
            scheduler._ceiling_scan(ctx, ctx.alpha)
        assert len(calls) > 24

    def test_no_multiplier_fits(self, monkeypatch):
        # with |V| u_min > N every u at u_min still overspends: no mu fits, the
        # search runs to its cap and every ceiling prices inf.  The scan returns
        # the floor first, so the pricing of a desk scan is called on a budget
        # of 1 for its 24 vehicles
        calls = priced_against_reference(monkeypatch)
        ctx = load_instance(CORPUS / "desk_vrvfl_s12_r0.txt")
        scheduler._ceiling_scan(ctx, ctx.alpha)
        pinched = replace(ctx, n_blocks=1.0)
        assert pinched.size * pinched.u_min > pinched.n_blocks
        for args, _ in calls[:]:
            values, _, mu, steps = scheduler._budget_priced(pinched, *args[1:])
            assert np.all(np.isinf(values)) and np.all(np.isinf(mu))
            assert steps == scheduler._EXACT_ITERS


class TestCeilingScan:
    @pytest.mark.parametrize("name", INTERIOR)
    def test_corpus(self, name):
        scan_both(load_instance(CORPUS / name))

    def test_random_slack_and_tight_budgets(self):
        rng = np.random.default_rng(2026)
        candidates = {"slack": 0, "tight fits": 0, "tight overspends": 0}
        for i in range(160):
            n = int(rng.integers(2, 13))
            tight = i % 2 == 1
            n_blocks = float(rng.integers(1, n) if tight else rng.integers(n, 21))
            u = scan_both(random_context(rng, n, n_blocks=n_blocks))
            if u is None:
                continue
            if tight:
                candidates["tight fits" if u.sum() <= n_blocks else "tight overspends"] += 1
            else:
                candidates["slack"] += 1
        # the reference ignores the budget, so a tight one may fit it or be
        # overspent; the scan prices the overspent ones into it
        assert min(candidates.values()) > 0, candidates

    def test_window_no_prefix_minimum_settles(self, monkeypatch):
        # a weak estimate (small h_est_sq * eps^2 / (1 - eps^2)) on a strong link
        # makes log q rise from the grid's start and fall again before the
        # capacity wall: a window past the start does not hold the minimum of
        # the grid up to its right end, so it is sliced.  The block bounds leave
        # out the ceilings of those windows, so here the scan computes every
        # coarse total, as it did before them
        monkeypatch.setattr(scheduler, "_exact_ceilings", oracles.every_ceiling)
        sliced = []
        real = scheduler._slice_minima

        def counted(ln_q, rows, left, right):
            sliced.append(len(rows))
            return real(ln_q, rows, left, right)

        monkeypatch.setattr(scheduler, "_slice_minima", counted)
        scan_both(built_context([0.4, 0.8], [0.1, 1.0], [1e-7, 3e-9], [150.0, 150.0]))
        assert sum(sliced) > 0

    def test_bounds_skip_only_where_the_unpriced_candidate_overspends(self, monkeypatch):
        # wherever the block bounds, or the interval bounds with the riders' u
        # floors, send the scan straight to pricing, so that its fine pass never
        # runs, the unpriced reference candidate overspends N
        rng = np.random.default_rng(29)
        spy = oracles.FinePassSpy()
        monkeypatch.setattr(scheduler, "np", spy)
        skipped = 0
        for i in range(100):
            n_blocks = float(rng.integers(1, 21))
            ctx = random_context(rng, int(rng.integers(2, 60)), n_blocks=n_blocks,
                                 u_min=(0.05, 1e-9, 0.2)[i % 3])
            spy.passes = 0
            skips = scheduler._ceiling_scan(ctx, ctx.alpha) is not None and spy.passes == 0
            want = scan_both(ctx)
            if skips and ctx.size * ctx.u_min < ctx.n_blocks:  # a pinned scan skips no bound
                skipped += 1
                assert want is not None and want.sum() > ctx.n_blocks, i
        assert skipped >= 40  # 52 of the 100 skip

    def test_rider_floors_hold_at_every_ceiling_of_their_span(self, monkeypatch):
        # each vehicle's u floor over a coarse interval, against the reference's
        # choice at both ends of the interval and inside it: 6 intervals of each
        # drawn context, and every interval of the two-vehicle context whose
        # windows no prefix minimum settles, at N = 1, where the floors read the
        # first minimum of 2 sliced windows
        rng = np.random.default_rng(31)
        floors, sliced = [], []
        bound, slice_minima = scheduler._exact_ceilings, scheduler._slice_minima

        def kept(ctx, alpha, coarse, k_end, *args):
            floors.append((coarse, k_end, args[-1]))
            return bound(ctx, alpha, coarse, k_end, *args)

        def counted(ln_q, rows, left, right):
            sliced.append(len(rows))
            return slice_minima(ln_q, rows, left, right)

        monkeypatch.setattr(scheduler, "_exact_ceilings", kept)
        monkeypatch.setattr(scheduler, "_slice_minima", counted)
        riders = 0
        for i in range(25):
            if i < 24:
                ctx = random_context(rng, int(rng.integers(10, 41)),
                                     n_blocks=float(rng.integers(1, 21)),
                                     u_min=(0.05, 1e-9, 0.2)[i % 3])
            else:
                ctx = built_context([0.4, 0.8], [0.1, 1.0], [1e-7, 3e-9], [150.0, 150.0],
                                    n_blocks=1.0)
            floors.clear()
            scheduler._ceiling_scan(ctx, ctx.alpha)
            if not floors:
                continue
            coarse, k_end, u_floor = floors[0]
            spans = min(k_end, scheduler._SCAN_CEILINGS - 1)
            at = rng.choice(spans, 6) if i < 24 else np.arange(spans)
            lo, hi = coarse[at + 1], coarse[at]
            sliced.clear()
            floor = u_floor(lo, hi)
            riders += int(np.sum(floor > ctx.u_min))
            ells = np.concatenate((lo, hi, 0.5 * (lo + hi)))
            for k, u in enumerate(oracles.reference_ceiling_scan(ctx, ctx.alpha, ells)):
                assert u is None or np.all(u >= floor[:, k % len(at)]), (i, k)
        assert riders > 100
        assert len(at) == 334 and sum(sliced) == 2

    def test_no_finite_total(self):
        # a NaN data size leaves no ceiling with a finite total
        ctx = built_context([0.4, 0.8], [0.1, 1.0], [1e-7, 3e-9], [np.nan, 150.0])
        ctx.d_total = 150.0
        assert scan_both(ctx) is None

    # The scan prices only the ceilings before the first whose lower bound on the
    # total exceeds an upper bound on the minimum, and computes each grid only as
    # far as those ceilings and the refinement read.  The cases below stress
    # both bounds against the unpruned reference.

    @pytest.mark.parametrize("strong", [False, True], ids=["weak CSI", "strong CSI"])
    def test_pruning_on_strong_links(self, strong):
        # gains up to 1e-5 and n up to 60, at u_min 0.05, 1e-9 and 1 and at
        # alpha drawn, 1e-9 and 1 - 1e-9
        rng = np.random.default_rng(13 + strong)
        for i in range(24):
            alpha = (None, 1e-9, 1.0 - 1e-9)[i % 3]
            u_min = (0.05, 1e-9, 1.0)[i // 3 % 3]
            ctx = random_context(rng, int(rng.integers(2, 61)), alpha=alpha, u_min=u_min,
                                 strong=strong)
            scan_both(stronger(ctx, rng))

    def test_pruning_where_riding_the_ceiling_wins(self):
        # weak estimates and low alpha make the riding branch, which the u = 1
        # bound ignores, win by most: a lower bound taken at f1 >= -log s in
        # place of ln u_min - log s, with no margin, prunes the minimum here
        rng = np.random.default_rng(9)
        for i in range(120):
            ctx = random_context(rng, int(rng.integers(2, 13)), u_min=(0.05, 1e-9)[i % 2],
                                 alpha=float(rng.uniform(0.1, 0.5)))
            scan_both(ctx)

    def test_zero_data_vehicle(self):
        rng = np.random.default_rng(17)
        for i in range(12):
            ctx = random_context(rng, int(rng.integers(2, 13)), strong=bool(i % 2))
            ctx.data_sizes[0] = 0.0
            ctx.d_total = float(ctx.data_sizes.sum())
            scan_both(stronger(ctx, rng) if i % 3 else ctx)

    def test_degenerate_rows(self):
        # R_max within 1e-6 of R_min: pulling the grid's end 1e-9 off the
        # zero-success edge puts it below the start, and the grid must stay one
        # repeated point rather than descend.  At u_min = 1 such a vehicle's
        # riding window can hold no grid point, and a ceiling where it has no
        # option must price inf
        rng = np.random.default_rng(19)
        descending = 0
        for i in range(60):
            ctx = degenerate(random_context(rng, int(rng.integers(2, 13)),
                                            strong=bool(i // 2 % 2),
                                            u_min=(0.05, 1e-9, 1.0)[i % 3]),
                             rng)
            f1_lo = np.expm1(ctx.r_min * math.log(2.0) / ctx.bandwidth)
            f1_hi = np.expm1(ctx.r_max * math.log(2.0) / ctx.bandwidth)
            descending += bool(np.any(f1_hi * (1 - 1e-9) < f1_lo))
            scan_both(ctx)
        assert descending > 0

    def test_minimum_at_the_last_kept_ceiling(self, monkeypatch):
        # The refinement around the last kept ceiling reads the ceiling below it,
        # so the grids must reach that one.  16 weak links (zero success from
        # f1 = 5 on) end the ceilings at that edge, where the lower bound reaches
        # its cap; at alpha = 1e-12 the max term puts the minimum on the last kept
        # ceiling.  A vehicle with a high R_min, as a short sojourn gives, has a
        # grid fine enough that two columns do not span a ceiling step; its
        # minimum of log q lies between the last two ceilings, and it rides the
        # ceiling there.  The weak links' whole grids set the one grid width.
        n = 17
        eps, h2 = np.array([0.8] * (n - 1) + [0.3]), np.array([1.0] * (n - 1) + [0.1])
        snr = np.array([5.0] * (n - 1) + [9.12])
        ctx = built_context(eps, h2, snr * W_BLOCK * NOISE / (TX_POWER * eps**2 * h2),
                            np.full(n, 150.0), alpha=1e-12)
        ctx = replace(ctx, r_min=np.append(ctx.r_min[1:], W_BLOCK * math.log2(7.0)))
        kept = []
        real = scheduler._priced_ceilings

        def spy(*args):
            kept.append(real(*args))
            return kept[-1]

        monkeypatch.setattr(scheduler, "_priced_ceilings", spy)
        u = scan_both(ctx)
        # scan_both scans with the block bounds and without them
        assert kept == [scheduler._SCAN_CEILINGS - 1] * 2
        assert u[-1] < 1.0


def searched(monkeypatch, search):
    """The (function, lo, hi) of every call of scheduler.<search> made while installed."""
    searches = []
    real = getattr(scheduler, search)

    def spy(fn, lo, hi):
        searches.append((fn, lo, hi))
        return real(fn, lo, hi)

    monkeypatch.setattr(scheduler, search, spy)
    return searches


def psi_values(psi):
    """The reduced objective alone of the inclusion search's evaluation function."""
    return lambda ell: psi(ell).psi


def phi_values(phi):
    """The reduced objective alone of the rate search's evaluation function."""
    return lambda ell: phi(ell)[0]


def same_values(fn, reference, lo, hi, extra=()):
    """fn at 64 ceilings over [lo - 1, hi + 0.5] and at `extra`, asserted equal by
    bytes to reference's."""
    ells = np.append(np.linspace(lo - 1.0, hi + 0.5, 64), extra)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = np.array([fn(ell) for ell in ells])
        want = np.array([reference(ell) for ell in ells])
    assert got.tobytes() == want.tobytes()
    return got


def same_derivatives(phi, reference, lo, hi):
    """phi's one-sided derivatives against differences of the reference's values,
    to 1e-5 relative.  At each of same_values' 64 ceilings above lo where the
    reference is finite and no kink lies within two steps, the first and second
    derivatives against central differences; at each kink in (lo, hi], the left
    and right first derivatives against backward and forward differences.
    Returns the number of ceilings checked."""
    def close(got, want, scale):
        assert abs(got - want) <= 1e-5 * (abs(want) + abs(scale)), (got, want)

    checked = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ell in np.linspace(lo - 1.0, hi + 0.5, 64):
            t = 3e-5 * max(1.0, abs(ell))
            f_lo, f, f_hi = reference(ell - t), reference(ell), reference(ell + t)
            if (ell - 2 * t <= lo or np.any(np.abs(phi.kinks - ell) <= 2 * t)
                    or not math.isfinite(f_lo + f + f_hi)):
                continue
            _, d_minus, d_plus, h_minus, h_plus = phi(ell)
            assert (d_minus, h_minus) == (d_plus, h_plus)
            close(d_minus, (f_hi - f_lo) / (2 * t), f)
            close(h_minus, (f_hi - 2 * f + f_lo) / t**2, f)
            checked += 1
        for k in phi.kinks[(phi.kinks > lo) & (phi.kinks <= hi)]:
            t = 1e-7 * max(1.0, abs(k))
            f_lo, f, f_hi = reference(k - t), reference(k), reference(k + t)
            if k - t <= lo or not math.isfinite(f_lo + f + f_hi):
                continue
            _, d_minus, d_plus, _, _ = phi(k)
            close(d_minus, (f - f_lo) / t, f)
            close(d_plus, (f_hi - f) / t, f)
            checked += 1
    return checked


def capped_context():
    """Vehicle 0 carries no data, and its rate cap lies past its capacity, where its
    success probability is 0; the budget binds."""
    ctx = built_context([0.4, 0.8, 0.7], [0.1, 1.0, 0.5], [1e-7, 3e-9, 1e-8],
                        [0.0, 150.0, 90.0], n_blocks=1.0)
    ctx.r_max[0] *= 1.01
    return ctx


TIGHT = (1, 2, 4, 20, 20)  # block budgets of the random contexts
EVALUATED = INTERIOR + [f"random-{i}" for i in range(len(TIGHT))] + ["capped"]


def evaluation_context(name):
    if name == "capped":
        return capped_context()
    if name.startswith("random-"):
        i = int(name.split("-")[1])
        rng = np.random.default_rng(100 + i)
        return random_context(rng, int(rng.integers(2, 13)), n_blocks=float(TIGHT[i]))
    return load_instance(CORPUS / name)


class TestLineSearchEvaluations:
    @pytest.mark.parametrize("name", EVALUATED)
    def test_rate_block(self, name, monkeypatch):
        ctx = evaluation_context(name)
        u = np.random.default_rng(1).uniform(ctx.u_min, 1.0, ctx.size)
        searches = searched(monkeypatch, "_newton_min")
        scheduler.solve_rate_block(u, ctx)
        phi, lo, hi = searches[-1]
        reference = oracles.reference_rate_block_phi(u, ctx, ctx.alpha)
        same_values(phi_values(phi), reference, lo, hi)
        assert same_derivatives(phi, reference, lo, hi) > 0

    @pytest.mark.parametrize("name", EVALUATED)
    def test_inclusion_block(self, name, monkeypatch):
        ctx = evaluation_context(name)
        rates = np.random.default_rng(2).uniform(ctx.r_min, ctx.r_max * (1.0 - 1e-6))
        searches = searched(monkeypatch, "_piecewise_min")
        scheduler.solve_inclusion_block(rates, ctx)
        psi, lo, hi = searches[-1]
        same_values(psi_values(psi), oracles.reference_inclusion_block_psi(rates, ctx, ctx.alpha),
                    lo, hi)

    def test_zero_success_probability_is_infinite_with_zero_data(self, monkeypatch):
        ctx = capped_context()
        searches = searched(monkeypatch, "_newton_min")
        u = np.full(ctx.size, 0.3)
        # the program path raises no floating-point warning, 0/0 included
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scheduler.solve_rate_block(u, ctx)
        phi, lo, hi = searches[-1]
        # a ceiling this low holds vehicle 0 at its cap: infinite, where 0/0 would be NaN
        f1_max = np.expm1(ctx.r_max * math.log(2.0) / ctx.bandwidth)
        low = float(np.max(np.log(u) - f1_max)) - 1.0
        reference = oracles.reference_rate_block_phi(u, ctx, ctx.alpha)
        got = same_values(phi_values(phi), reference, lo, hi, extra=[low])
        assert np.isinf(got).any() and np.isfinite(got).any()
        assert same_derivatives(phi, reference, lo, hi) > 0
        inclusion_searches = searched(monkeypatch, "_piecewise_min")
        for rates, finite in ((ctx.r_max, False), (ctx.r_max * 0.99, True)):
            # past the capacity vehicle 0 costs inf; below it, its zero data cost
            # 0, which takes the water-fill's general path
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scheduler.solve_inclusion_block(rates, ctx)
            psi, lo, hi = inclusion_searches[-1]
            got = same_values(psi_values(psi),
                              oracles.reference_inclusion_block_psi(rates, ctx, ctx.alpha), lo, hi)
            assert np.isfinite(got).all() if finite else np.isinf(got).all()


def check_inclusion_block(rates, ctx):
    """The exact block on (rates, ctx) against the golden-section reference: a
    value no higher up to 1e-12 relative, u in the box and the budget kept (up
    to 1e-12 relative, the rounding of the fill's sums).  Returns (value,
    reference value)."""
    u = scheduler.solve_inclusion_block(rates, ctx)
    u_ref, _ = oracles.reference_inclusion_block(rates, ctx)
    value, want = objective(u, rates, ctx), objective(u_ref, rates, ctx)
    assert value <= want * (1.0 + 1e-12)
    assert np.all(u >= ctx.u_min) and np.all(u <= 1.0)
    assert u.sum() <= ctx.n_blocks * (1.0 + 1e-12)
    return value, want


def block_inputs(ctx, monkeypatch, block):
    """The input of every solve of scheduler.<block> in one bcd_solve of ctx, a
    stacked call's rows one by one."""
    inputs = []
    solve = getattr(scheduler, block)

    def recorded(x, context):
        inputs.extend(np.atleast_2d(np.array(x)))
        return solve(x, context)

    monkeypatch.setattr(scheduler, block, recorded)
    scheduler.bcd_solve(ctx)
    monkeypatch.undo()
    return inputs


class TestExactInclusionBlock:
    @pytest.mark.parametrize("name", INTERIOR)
    def test_corpus_inputs(self, name, monkeypatch):
        ctx = load_instance(CORPUS / name)
        inputs = block_inputs(ctx, monkeypatch, "solve_inclusion_block")
        if ctx.size * ctx.u_min >= ctx.n_blocks:
            # a pinned run never solves the block: check it at the rates it reached
            assert not inputs
            inputs = [scheduler.bcd_solve(ctx)[0].r]
        assert inputs
        for rates in inputs:
            check_inclusion_block(rates, ctx)

    def test_random_slack_and_tight_budgets(self):
        rng = np.random.default_rng(2026)
        for i in range(3000):
            n = int(rng.integers(2, 13))
            tight = i % 2 == 1
            n_blocks = float(rng.integers(1, n) if tight else rng.integers(n, 21))
            ctx = random_context(rng, n, n_blocks=n_blocks)
            rates = rng.uniform(ctx.r_min, ctx.r_max * (1.0 - 1e-6))
            check_inclusion_block(rates, ctx)

    def test_zero_data_vehicle_rests_at_the_floor(self):
        ctx = built_context([0.4, 0.8, 0.7], [0.1, 1.0, 0.5], [1e-7, 3e-9, 1e-8],
                            [0.0, 150.0, 90.0], n_blocks=1.0)
        rates = ctx.r_min + 0.5 * (ctx.r_max - ctx.r_min)
        check_inclusion_block(rates, ctx)
        u = scheduler.solve_inclusion_block(rates, ctx)
        assert u[0] == ctx.u_min

    def test_zero_success_vehicle_is_infinite(self):
        ctx = capped_context()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, want = check_inclusion_block(ctx.r_max, ctx)
        assert math.isinf(value) and math.isinf(want)

    @pytest.mark.parametrize("alpha", [0.4, 1.0])
    def test_zero_success_vehicle_at_a_tiny_floor(self, alpha):
        # at u_min = 1e-9 the infinite cost's floor breakpoint 1e300/u_min^2
        # overflows, and that must raise no warning
        ctx = replace(capped_context(), u_min=1e-9, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = scheduler.solve_inclusion_block(ctx.r_max, ctx)
        assert np.all(u >= ctx.u_min) and np.all(u <= 1.0)

    def test_budget_slack_at_every_ceiling(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 9):
            ctx = random_context(rng, n, n_blocks=float(n))
            rates = rng.uniform(ctx.r_min, ctx.r_max * (1.0 - 1e-6))
            check_inclusion_block(rates, ctx)

    def test_one_vehicle(self):
        rng = np.random.default_rng(32)
        for n_blocks in (1.0, 0.5, 0.05):
            ctx = random_context(rng, 1, n_blocks=n_blocks)
            check_inclusion_block(ctx.r_min + 0.3 * (ctx.r_max - ctx.r_min), ctx)

    @pytest.mark.parametrize("n_blocks", [1.0, 2.5, 4.0])
    def test_equal_costs(self, n_blocks):
        ctx = symmetric_context(5, alpha=0.4, n_blocks=n_blocks)
        check_inclusion_block(ctx.r_min, ctx)
        u = scheduler.solve_inclusion_block(ctx.r_min, ctx)
        assert np.all(u == u[0])

    @pytest.mark.parametrize("name", ["dense_vrvfl_s1_r0.txt", "dense_vrvfl_s2_r0.txt"])
    def test_budget_exactly_the_floor_total(self, name, monkeypatch):
        # 400 vehicles at u_min = 0.05 fill N = 20 exactly: every plan rests at
        # the floor, so the block stops at the lowest ceiling.  The exact search
        # needs only the fill at the top, where every cap is 1.  At the ceilings
        # below it, rounding in the sums of 400 distinct caps can put the spend
        # of the all-floor piece over N, and the fill must still meet its KKT
        # conditions there
        ctx = load_instance(CORPUS / name)
        assert ctx.size * ctx.u_min == ctx.n_blocks
        rates = ctx.r_min + 0.3 * (ctx.r_max - ctx.r_min)
        searches = searched(monkeypatch, "_piecewise_min")
        check_inclusion_block(rates, ctx)
        psi, lo, hi = searches[-1]
        binding = 0
        for ell in np.linspace(lo, hi, 64):
            caps = np.exp(np.minimum(0.0, ell - psi.ln_e))
            binding += check_waterfill_kkt(psi.cost, ctx.u_min, caps, ctx.n_blocks)[1] > 0.0
        assert binding > 0
        u = scheduler.solve_inclusion_block(rates, ctx)
        assert np.all(u == ctx.u_min)


def check_waterfill_kkt(cost, lo, caps, budget):
    """The water-fill of cost against caps (raised to lo) under the budget, held
    to its KKT conditions: every u finite and in [lo, cap]; mu = 0 exactly when
    the caps fit the budget or no cost is positive, and otherwise a spend at the budget and
    each positive-cost u at clip(sqrt(c/mu), lo, cap), an infinite cost standing
    as 1e300.  The spend is held to 1e-12 of the budget or of the caps' total,
    whichever is larger: the fill's running sums start from that total and lose
    its ulps when they cancel down to a budget far below it.  Returns (u, mu)."""
    caps = np.maximum(caps, lo)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fill = scheduler._waterfill_solver(cost, lo, budget)
        u, mu = fill(caps.copy())
    assert np.all(np.isfinite(u)) and np.all(u >= lo) and np.all(u <= caps)
    act = cost > 0.0
    assert np.all(u[~act] == lo)
    total = np.where(act, caps, lo).sum()
    # with no positive cost every u rests at lo, unpriced, whatever the rounding
    assert (mu == 0.0) == (total <= budget or not act.any())
    if mu == math.inf:
        # 1e300 at a water level below about 7e-5 puts mu past the float range:
        # every vehicle rests at its floor, under the budget
        assert np.isinf(cost).any() and np.all(u == lo)
        assert u.sum() <= budget * (1.0 + 1e-12)
    elif mu > 0.0:
        assert abs(u.sum() - budget) <= 1e-12 * max(budget, total)
        c = np.where(np.isfinite(cost), cost, 1e300)[act]
        want = np.clip(np.sqrt(c / mu), lo, caps[act])
        assert np.all(np.abs(u[act] - want) <= 4.0 * np.spacing(want))
    return u, mu


@st.composite
def waterfill_inputs(draw):
    """Costs with zeros, infinities and exact ties, a floor lo, caps in [lo, 1]
    with some at exactly lo or 1, and a budget from the floor total n*lo to past
    the caps' sum."""
    n = draw(st.integers(1, 24))
    pool = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4))
    cost = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.just(math.inf), st.sampled_from(pool), st.floats(1e-6, 1e3)),
        min_size=n, max_size=n)))
    lo = draw(st.sampled_from([1e-9, 0.05, 1.0 / n]))
    caps = np.array(draw(st.lists(st.one_of(st.just(lo), st.just(1.0), st.floats(lo, 1.0)),
                                  min_size=n, max_size=n)))
    spent = float(np.where(cost > 0.0, caps, lo).sum())
    t = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.2)))
    return cost, lo, caps, n * lo + t * (spent - n * lo)


class TestWaterfillKKT:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(waterfill_inputs())
    # one vehicle whose water level at the floor spends just over N = lo: the
    # all-floor piece is the first that fits, with no room and no vehicle at
    # the water level
    @example((np.array([0.5]), 0.05, np.array([1.0]), 0.05))
    def test_random_inputs(self, inputs):
        check_waterfill_kkt(*inputs)

    def test_caps_just_over_the_budget_bind(self):
        # caps summing to N(1 + 5e-13) overspend the budget: the fill binds and
        # spends at most N, where a slack test with a 1e-12 margin returned the caps
        cost, caps = np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.5)
        budget = float(caps.sum()) / (1.0 + 5e-13)
        u, mu = check_waterfill_kkt(cost, 0.05, caps, budget)
        assert mu > 0.0 and u.sum() <= budget


def check_rate_block(u, ctx):
    """The exact block on (u, ctx) against the golden-section reference, searched
    cold: a value no higher up to 1e-12 relative, rates in the box and every
    success probability positive.  Returns (value, reference value)."""
    rates = scheduler.solve_rate_block(u, ctx)
    rates_ref, _ = oracles.reference_rate_block(u, ctx)
    value, want = objective(u, rates, ctx), objective(u, rates_ref, ctx)
    assert value <= want * (1.0 + 1e-12)
    assert np.all(rates >= ctx.r_min) and np.all(rates <= ctx.r_max)
    assert np.all(ctx.success_prob(rates) > 0.0)
    return value, want


class TestExactRateBlock:
    @pytest.mark.parametrize("name", INTERIOR)
    def test_corpus_inputs(self, name, monkeypatch):
        ctx = load_instance(CORPUS / name)
        inputs = block_inputs(ctx, monkeypatch, "solve_rate_block")
        assert inputs
        for u in inputs:
            check_rate_block(u, ctx)

    def test_random_slack_and_tight_budgets(self):
        # every seventh draw includes every vehicle: those sharing R_min then have
        # kinks that tie at the top ceiling
        rng = np.random.default_rng(2026)
        for i in range(3000):
            n = int(rng.integers(2, 13))
            tight = i % 2 == 1
            n_blocks = float(rng.integers(1, n) if tight else rng.integers(n, 21))
            ctx = random_context(rng, n, n_blocks=n_blocks)
            u = np.ones(n) if i % 7 == 0 else rng.uniform(ctx.u_min, 1.0, n)
            check_rate_block(u, ctx)

    def test_rate_cap_past_capacity(self):
        ctx = capped_context()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for u in (np.full(ctx.size, 0.3), np.ones(ctx.size)):
                value, _ = check_rate_block(u, ctx)
                assert math.isfinite(value)

    def test_zero_data_vehicle(self):
        # vehicle 0 costs nothing at any rate, so only the ceiling prices raising it
        ctx = built_context([0.4, 0.8, 0.7], [0.1, 1.0, 0.5], [1e-7, 3e-9, 1e-8],
                            [0.0, 150.0, 90.0])
        for u in (np.array([0.9, 0.3, 0.6]), np.array([0.05, 1.0, 1.0])):
            check_rate_block(u, ctx)

    def test_one_vehicle(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            ctx = random_context(rng, 1)
            check_rate_block(rng.uniform(ctx.u_min, 1.0, 1), ctx)

    @pytest.mark.parametrize("alpha", [1e-9, 1.0 - 1e-6])
    def test_alpha_near_an_endpoint(self, alpha):
        rng = np.random.default_rng(34)
        for _ in range(50):
            ctx = random_context(rng, int(rng.integers(1, 13)), alpha=alpha)
            check_rate_block(rng.uniform(ctx.u_min, 1.0, ctx.size), ctx)

    def test_minimum_at_the_top_ceiling(self, monkeypatch):
        # three of four vehicles share R_min at u = 1, so their kinks tie at the top
        # ceiling, where the minimum is: the left derivative there, with all three
        # at their kink, is already <= 0
        ctx = random_context(np.random.default_rng(40), 4, alpha=0.6)
        u = np.ones(ctx.size)
        _, ell_ref = oracles.reference_rate_block(u, ctx)
        evaluations = []
        evaluate = scheduler._RatePhi.__call__

        def counted(phi, ell):
            evaluations.append(ell)
            return evaluate(phi, ell)

        monkeypatch.setattr(scheduler._RatePhi, "__call__", counted)
        check_rate_block(u, ctx)
        top = float(np.max(scheduler._RatePhi(u, ctx).kinks))
        assert ell_ref == top
        assert evaluations == [top]
