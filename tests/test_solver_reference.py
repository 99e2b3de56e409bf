"""The solver's blocked ceiling scan and buffered line-search evaluations, bit
for bit against the references in tests/oracles.py: the scan one vehicle at a
time with sparse-table window minima, and the evaluations on fresh arrays.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from instances import MODEL_BITS, NOISE, ROUND_CAP, TX_POWER, W_BLOCK, random_context
from vflsim import scheduler
from vflsim.scheduler import SchedulingContext, load_instance

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


def scan_both(ctx):
    """The scan's candidate, asserted equal by its bytes to the reference's (or both None)."""
    got = scheduler._ceiling_scan(ctx, ctx.alpha)
    want = oracles.reference_ceiling_scan(ctx, ctx.alpha)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tobytes() == want.tobytes()
    return want


class TestCeilingScan:
    @pytest.mark.parametrize("name", INTERIOR)
    def test_corpus(self, name):
        scan_both(load_instance(CORPUS / name))

    def test_random_slack_and_tight_budgets(self):
        rng = np.random.default_rng(2026)
        candidates = {"slack": 0, "tight": 0, "tight none": 0}
        for i in range(160):
            n = int(rng.integers(2, 13))
            tight = i % 2 == 1
            n_blocks = float(rng.integers(1, n) if tight else rng.integers(n, 21))
            found = scan_both(random_context(rng, n, n_blocks=n_blocks)) is not None
            if tight:
                candidates["tight" if found else "tight none"] += 1
            else:
                candidates["slack"] += found
        # the scan ignores the budget, so a tight one may still keep its candidate
        assert min(candidates.values()) > 0, candidates

    def test_window_no_prefix_or_suffix_minimum_settles(self, monkeypatch):
        # a weak estimate (small h_est_sq * eps^2 / (1 - eps^2)) on a strong link
        # makes log q rise from the grid's start and fall again before the
        # capacity wall: a window past the start holds neither the minimum of
        # the grid up to its right end nor that from its left end on
        sliced = []
        real = scheduler._slice_minima

        def counted(ln_q, rows, left, right):
            sliced.append(len(rows))
            return real(ln_q, rows, left, right)

        monkeypatch.setattr(scheduler, "_slice_minima", counted)
        scan_both(built_context([0.4, 0.8], [0.1, 1.0], [1e-7, 3e-9], [150.0, 150.0]))
        assert sum(sliced) > 0

    def test_no_finite_total(self):
        # a NaN data size leaves no ceiling with a finite total
        ctx = built_context([0.4, 0.8], [0.1, 1.0], [1e-7, 3e-9], [np.nan, 150.0])
        ctx.d_total = 150.0
        assert scan_both(ctx) is None


def searched(monkeypatch):
    """The (function, lo, hi) of every _golden_min call made while installed."""
    searches = []
    golden = scheduler._golden_min

    def spy(fn, lo, hi, start=None):
        searches.append((fn, lo, hi))
        return golden(fn, lo, hi, start)

    monkeypatch.setattr(scheduler, "_golden_min", spy)
    return searches


def same_values(fn, reference, lo, hi, extra=()):
    """fn at 64 ceilings over [lo - 1, hi + 0.5] and at `extra`, asserted equal by
    bytes to reference's."""
    ells = np.append(np.linspace(lo - 1.0, hi + 0.5, 64), extra)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = np.array([fn(ell) for ell in ells])
        want = np.array([reference(ell) for ell in ells])
    assert got.tobytes() == want.tobytes()
    return got


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
        searches = searched(monkeypatch)
        scheduler.solve_rate_block(u, ctx)
        phi, lo, hi = searches[-1]
        same_values(phi, oracles.reference_rate_block_phi(u, ctx, ctx.alpha), lo, hi)

    @pytest.mark.parametrize("name", EVALUATED)
    def test_inclusion_block(self, name, monkeypatch):
        ctx = evaluation_context(name)
        rates = np.random.default_rng(2).uniform(ctx.r_min, ctx.r_max * (1.0 - 1e-6))
        searches = searched(monkeypatch)
        scheduler.solve_inclusion_block(rates, ctx)
        psi, lo, hi = searches[-1]
        same_values(psi, oracles.reference_inclusion_block_psi(rates, ctx, ctx.alpha), lo, hi)

    def test_zero_success_probability_is_infinite_with_zero_data(self, monkeypatch):
        ctx = capped_context()
        searches = searched(monkeypatch)
        u = np.full(ctx.size, 0.3)
        # the program path raises no floating-point warning, 0/0 included
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scheduler.solve_rate_block(u, ctx)
        phi, lo, hi = searches[-1]
        # a ceiling this low holds vehicle 0 at its cap: infinite, where 0/0 would be NaN
        f1_max = np.expm1(ctx.r_max * math.log(2.0) / ctx.bandwidth)
        low = float(np.max(np.log(u) - f1_max)) - 1.0
        got = same_values(phi, oracles.reference_rate_block_phi(u, ctx, ctx.alpha), lo, hi,
                          extra=[low])
        assert np.isinf(got).any() and np.isfinite(got).any()
        for rates, finite in ((ctx.r_max, False), (ctx.r_max * 0.99, True)):
            # past the capacity vehicle 0 costs inf; below it, its zero data cost
            # 0, which takes the water-fill's general path
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scheduler.solve_inclusion_block(rates, ctx)
            psi, lo, hi = searches[-1]
            got = same_values(psi, oracles.reference_inclusion_block_psi(rates, ctx, ctx.alpha),
                              lo, hi)
            assert np.isfinite(got).all() if finite else np.isinf(got).all()
