import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (bayes_weights, lockstep_local_train, reference_local_train,
                     reference_loss_and_grad)
from vflsim import fl_core, sim
from vflsim.config import parse_config
from vflsim.fl_core import (Partition, aggregate, convergence_proxy, evaluate,
                            init_weights, local_train, loss_and_grad, lr_schedule,
                            make_partition, make_test_set, sample_blob)


def learning_cfg(**overrides):
    cfg = parse_config().learning
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


class TestPartitions:
    def test_iid_exact_counts(self):
        cfg = learning_cfg(partitioning="iid", samples_per_class=7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            part = make_partition(rng, cfg)
            assert part.size == 7 * cfg.num_classes
            counts = np.bincount(part.labels, minlength=cfg.num_classes)
            assert np.all(counts == 7)

    def test_noniid_support_size(self):
        cfg = learning_cfg(partitioning="noniid", noniid_min_samples=30,
                           noniid_max_samples=90, noniid_max_classes=3)
        rng = np.random.default_rng(1)
        sizes = set()
        for _ in range(200):
            part = make_partition(rng, cfg)
            support = np.unique(part.labels)
            sizes.add(len(support))
            assert 1 <= len(support) <= 3
            assert 30 <= part.size <= 90
        assert sizes == {1, 2, 3}

    def test_sample_conservation(self):
        cfg = learning_cfg(partitioning="noniid")
        rng = np.random.default_rng(2)
        parts = [make_partition(rng, cfg) for _ in range(20)]
        for p in parts:
            assert p.features.shape == (p.size, cfg.feature_dim)
            assert p.labels.shape == (p.size,)


class TestGradient:
    @pytest.mark.parametrize("mu", [0.0, 0.01])
    def test_leading_dimensions_match_reference_per_problem(self, mu):
        rng = np.random.default_rng(3)
        c, d, n = 10, 20, 13
        w = rng.standard_normal((2, 3, c * (d + 1)))
        x = rng.standard_normal((2, 3, n, d))
        y = rng.integers(0, c, size=(2, 3, n))
        ref = rng.standard_normal(c * (d + 1))
        loss, grad = loss_and_grad(w, x, y, c, ref=ref, mu=mu)
        assert loss.shape == (2, 3) and grad.shape == w.shape
        for i in np.ndindex(2, 3):
            want_loss, want_grad = reference_loss_and_grad(w[i], x[i], y[i], c, ref=ref, mu=mu)
            assert loss[i] == want_loss
            assert grad[i].tobytes() == want_grad.tobytes()
        one_loss, one_grad = loss_and_grad(w[0, 0], x[0, 0], y[0, 0], c, ref=ref, mu=mu)
        assert one_loss == loss[0, 0] and one_grad.tobytes() == grad[0, 0].tobytes()

    def test_row_max_chain_keeps_the_softmax_bits(self):
        # a padded (m, 32, 10) stack: a row mixing +0.0, -0.0 and -1.0 (whose
        # maximum's zero sign depends on the reduction order), an all -0.0 row
        # and a row holding a NaN
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 32, 10))
        logits[0, 3] = [0.0, -0.0, 0.0, -0.0, -0.0, -1.0, -1.0, 0.0, -0.0, -1.0]
        logits[0, 4] = -0.0
        logits[2, 7, 4] = np.nan
        labels = rng.integers(0, 10, size=(6, 32))
        rows = np.array([32, 5, 20, 1, 32, 17])
        want = logits.copy()
        want -= want.max(axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        probs, loss, _, _ = fl_core._softmax_loss(logits.copy(), labels, rows)
        nan_row = np.zeros((6, 32), dtype=bool)
        nan_row[2, 7] = True
        assert np.isnan(probs[nan_row]).all() and np.isnan(want[nan_row]).all()
        assert probs[~nan_row].tobytes() == want[~nan_row].tobytes()
        assert np.isnan(loss[2]) and np.isfinite(np.delete(loss, 2)).all()

    def test_prox_requires_reference(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            loss_and_grad(np.zeros(9), rng.standard_normal((4, 2)),
                          np.array([0, 1, 2, 0]), 3, ref=None, mu=0.1)


class TestLocalTrain:
    @staticmethod
    def _small_instance(rng, n=60, d=4, c=3):
        labels = rng.integers(0, c, size=n)
        feats = rng.standard_normal((n, d)) + 2.0 * np.eye(d)[:c][labels][:, :d]
        return Partition(features=feats, labels=labels)

    def test_zero_epochs_identity(self):
        rng = np.random.default_rng(5)
        part = self._small_instance(rng)
        cfg = learning_cfg(num_classes=3, feature_dim=4, local_epochs=0)
        w0 = rng.standard_normal(3 * 4 + 3)
        out, = local_train(w0, [part], w0, cfg, [np.random.default_rng(0)], lr=0.1)
        assert np.array_equal(out, w0)

    def test_zero_mu_matches_plain_momentum_sgd(self):
        rng = np.random.default_rng(6)
        part = self._small_instance(rng)
        cfg = learning_cfg(num_classes=3, feature_dim=4, batch_size=16,
                           momentum=0.9, local_epochs=3, prox_mu=0.0)
        w0 = rng.standard_normal(15)
        got, = local_train(w0, [part], w0, cfg, [np.random.default_rng(9)], lr=0.05)
        # independent hand-rolled loop over the same shuffles
        w = w0.copy()
        vel = np.zeros_like(w)
        ref_rng = np.random.default_rng(9)
        for _ in range(3):
            order = ref_rng.permutation(part.size)
            for start in range(0, part.size, 16):
                sel = order[start:start + 16]
                _, g = loss_and_grad(w, part.features[sel], part.labels[sel], 3)
                vel = 0.9 * vel + g
                w -= 0.05 * vel
        assert np.allclose(got, w, rtol=0, atol=0)

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(7)
        part = self._small_instance(rng)
        cfg = learning_cfg(num_classes=3, feature_dim=4)
        w0 = np.zeros(15)
        a, = local_train(w0, [part], w0, cfg, [np.random.default_rng(3)], lr=0.05)
        b, = local_train(w0, [part], w0, cfg, [np.random.default_rng(3)], lr=0.05)
        assert np.array_equal(a, b)

    def test_loss_decreases_with_small_steps(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 3, size=100)
        feats = rng.standard_normal((100, 4))
        feats[np.arange(100), labels % 4] += 2.0
        part = Partition(features=feats, labels=labels)
        cfg = learning_cfg(num_classes=3, feature_dim=4, batch_size=100, momentum=0.0,
                           local_epochs=1, prox_mu=0.0)
        w = np.zeros(15)
        losses = [loss_and_grad(w, feats, labels, 3)[0]]
        for _ in range(25):
            w, = local_train(w, [part], w, cfg, [np.random.default_rng(0)], lr=1e-3)
            losses.append(loss_and_grad(w, feats, labels, 3)[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_nan_loss_aborts_with_diagnostic(self):
        rng = np.random.default_rng(9)
        part = self._small_instance(rng)
        part.features[0] = np.nan
        cfg = learning_cfg(num_classes=3, feature_dim=4)
        with pytest.raises(RuntimeError, match="non-finite"):
            local_train(np.zeros(15), [part], np.zeros(15), cfg,
                        [np.random.default_rng(0)], lr=0.1)


class TestStackedTraining:
    """Lockstep training gives each vehicle the bits of its own one-batch-at-a-time loop."""

    @staticmethod
    def _partitions(rng, partitioning, n_vehicles, cfg):
        if partitioning == "iid":
            sizes = [150] * n_vehicles
        elif n_vehicles == 1:
            sizes = [100]
        else:  # below one batch, one sample, exact multiples, a one-sample tail, then ragged
            sizes = [7, 1, 64, 32, 33, 65] + rng.integers(1, 226, size=n_vehicles - 6).tolist()
        parts = []
        for n in sizes:
            labels = rng.integers(0, cfg.num_classes, size=n)
            parts.append(Partition(features=sample_blob(rng, labels, cfg.num_classes,
                                                        cfg.feature_dim, cfg.class_separation),
                                   labels=labels))
        return parts

    @pytest.mark.parametrize("feature_dim", [20, 30])
    @pytest.mark.parametrize("n_vehicles", [1, 20])
    @pytest.mark.parametrize("partitioning", ["iid", "noniid"])
    def test_matches_per_vehicle_reference(self, partitioning, n_vehicles, feature_dim):
        cfg = learning_cfg(feature_dim=feature_dim, batch_size=32)
        rng = np.random.default_rng(20 + feature_dim + n_vehicles)
        parts = self._partitions(rng, partitioning, n_vehicles, cfg)
        w0 = 0.1 * rng.standard_normal(cfg.num_classes * (feature_dim + 1))
        global_ref = w0 + 0.01 * rng.standard_normal(len(w0))
        for mu in (0.0, 0.0025):
            for momentum in (0.0, 0.9):
                for epochs in (0, 1, 5):
                    run_cfg = learning_cfg(feature_dim=feature_dim, batch_size=32, prox_mu=mu,
                                           momentum=momentum, local_epochs=epochs)
                    seeds = [(epochs, k) for k in range(n_vehicles)]
                    rngs = [np.random.default_rng(s) for s in seeds]
                    got = local_train(w0, parts, global_ref, run_cfg, rngs, lr=0.05)
                    assert len(got) == n_vehicles
                    for k, part in enumerate(parts):
                        ref_rng = np.random.default_rng(seeds[k])
                        want = reference_local_train(w0, part, global_ref, ref_rng, 0.05,
                                                     cfg.num_classes, epochs, 32, momentum, mu)
                        where = (f"vehicle {k} (n={part.size}), mu={mu}, "
                                 f"momentum={momentum}, epochs={epochs}")
                        assert got[k].tobytes() == want.tobytes(), where
                        assert rngs[k].bit_generator.state == ref_rng.bit_generator.state, where

    def test_no_vehicles(self):
        cfg = learning_cfg()
        assert local_train(np.zeros(210), [], np.zeros(210), cfg, [], lr=0.1) == []

    def test_padded_rows_keep_gemm_bits(self):
        """The BLAS behaviour that padded training's equality with the unpadded references
        and the stored goldens rests on (its determinism does not): a gemm's row has the
        same bits for every row count of 2 or more, and zero delta rows add nothing to the
        backward."""
        rng = np.random.default_rng(22)
        c = 10
        for d in (20, 30):
            for width in range(2, 33):
                mats = rng.standard_normal((3, c, d))
                xs = rng.standard_normal((3, width, d))
                padded = xs @ mats.swapaxes(-1, -2)
                for rows in range(2, width + 1):
                    where = (f"BLAS assumption broken: a gemm's first {rows} rows differ "
                             f"with {width} rows (d={d})")
                    alone = xs[1, :rows] @ mats[1].T
                    assert padded[1, :rows].tobytes() == alone.tobytes(), where
                    assert (xs[1] @ mats[1].T)[:rows].tobytes() == alone.tobytes(), where
                    delta = rng.standard_normal((width, c))
                    delta[rows:] = 0.0
                    want = delta[:rows].T @ xs[1, :rows]
                    assert (delta.T @ xs[1]).tobytes() == want.tobytes(), (
                        f"BLAS assumption broken: zero delta rows past {rows} of {width} "
                        f"change the backward gemm (d={d})")

    def test_padded_call_matches_reference_per_problem(self):
        rng = np.random.default_rng(23)
        c, d, width = 10, 30, 32
        rows = np.array([1, 2, 7, 31, 32, 1, 17])
        w = rng.standard_normal((len(rows), c * (d + 1)))
        x = rng.standard_normal((len(rows), width, d))
        y = rng.integers(0, c, size=(len(rows), width))
        ref = rng.standard_normal(c * (d + 1))
        loss, grad = loss_and_grad(w, x, y, c, ref=ref, mu=0.01, rows=rows)
        for k, size in enumerate(rows):
            want_loss, want_grad = reference_loss_and_grad(w[k], x[k, :size], y[k, :size], c,
                                                           ref=ref, mu=0.01)
            assert loss[k] == pytest.approx(want_loss, rel=1e-12)
            assert grad[k].tobytes() == want_grad.tobytes(), f"problem {k} ({size} rows)"

    def test_non_finite_loss_in_a_padded_batch_aborts(self):
        cfg = learning_cfg(num_classes=3, feature_dim=4, batch_size=32)
        rng = np.random.default_rng(24)
        parts = [TestLocalTrain._small_instance(rng, n=n) for n in (60, 5, 60)]
        parts[1].features[2] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite local loss \(nan\) at lr=0.1, "
                                               r"batch of 5 samples"):
            local_train(np.zeros(15), parts, np.zeros(15), cfg,
                        [np.random.default_rng(k) for k in range(3)], lr=0.1)
        # the same vehicles with finite data train: padded rows raise nothing
        parts[1].features[2] = 0.0
        for trained in local_train(np.zeros(15), parts, np.zeros(15), cfg,
                                   [np.random.default_rng(k) for k in range(3)], lr=0.1):
            assert np.isfinite(trained).all()

    def test_non_finite_loss_of_any_vehicle_aborts(self):
        cfg = learning_cfg(num_classes=3, feature_dim=4)
        rng = np.random.default_rng(21)
        parts = [TestLocalTrain._small_instance(rng, n=n) for n in (60, 45, 60)]
        parts[1].features[3] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite local loss \(nan\) at lr=0.1"):
            local_train(np.zeros(15), parts, np.zeros(15), cfg,
                        [np.random.default_rng(k) for k in range(3)], lr=0.1)


class TestRoundWidth:
    """Every lockstep step is padded to one width that the config alone sets."""

    @staticmethod
    def _widths(monkeypatch, cfg, sizes, together):
        """The widths of the batches fl_core._logits receives while partitions of the
        given sizes train, each alone or all together."""
        rng = np.random.default_rng(40)
        parts = []
        for n in sizes:
            labels = rng.integers(0, cfg.num_classes, size=n)
            parts.append(Partition(sample_blob(rng, labels, cfg.num_classes, cfg.feature_dim,
                                               cfg.class_separation), labels))
        widths = set()
        logits = fl_core._logits

        def spy(w, features, *args):
            widths.add(features.shape[-2])
            return logits(w, features, *args)

        monkeypatch.setattr(fl_core, "_logits", spy)
        w0 = np.zeros(cfg.num_classes * (cfg.feature_dim + 1))
        for group in ([parts] if together else [[part] for part in parts]):
            local_train(w0, group, w0, cfg, [np.random.default_rng(k) for k in range(len(group))],
                        lr=0.05)
        return widths

    # sizes without a one-sample batch, whose one-row product would add a width of 1
    @pytest.mark.parametrize("learning, sizes, width", [
        (dict(partitioning="noniid"), [7, 40, 100, 224], 32),
        (dict(partitioning="iid", samples_per_class=5, batch_size=64), [50, 50], 50),
        (dict(partitioning="noniid", batch_size=1000, noniid_max_samples=225), [30, 100], 225),
    ])
    def test_one_width_alone_and_beside_others(self, monkeypatch, learning, sizes, width):
        cfg = learning_cfg(local_epochs=2, **learning)
        assert width == min(cfg.batch_size, cfg.num_classes * cfg.samples_per_class
                            if cfg.partitioning == "iid" else cfg.noniid_max_samples)
        assert self._widths(monkeypatch, cfg, sizes, together=False) == {width}
        assert self._widths(monkeypatch, cfg, sizes, together=True) == {width}


# trains non-iid vehicles, the first with a one-sample tail batch, each alone and
# then the first j of them together for j = 2..5, and prints the core and the
# number of trained vehicles whose bytes differ from their lone run
CO_TRAINERS = """
import numpy as np
from vflsim import fl_core, sim
from vflsim.config import parse_config

cfg = parse_config(overrides={"learning.partitioning": "noniid"}).learning
differ = compared = 0
for trial in range(10):
    parts = [fl_core.make_partition(np.random.default_rng((trial, k)), cfg) for k in range(5)]
    tail = (parts[0].size - 1) // cfg.batch_size * cfg.batch_size + 1
    parts[0] = fl_core.Partition(parts[0].features[:tail], parts[0].labels[:tail])
    rng = np.random.default_rng(trial)
    w0 = 0.1 * rng.standard_normal(cfg.num_classes * (cfg.feature_dim + 1))
    ref = w0 + 0.01 * rng.standard_normal(len(w0))

    def train(ks):
        return fl_core.local_train(w0, [parts[k] for k in ks], ref, cfg,
                                   [np.random.default_rng((trial, k, 1)) for k in ks], lr=0.05)

    alone = [train([k])[0].tobytes() for k in range(5)]
    for j in range(2, 6):
        for k, w in enumerate(train(range(j))):
            differ += w.tobytes() != alone[k]
            compared += 1
print(sim.blas_core(), differ, compared)
"""


@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge", "Haswell", "SkylakeX"])
def test_co_trainers_leave_a_vehicles_bits_alone(coretype):
    """A vehicle's trained bytes are the same alone and beside 1-4 others, under each
    OpenBLAS kernel family, whether or not its gemms keep a row's bits as rows are added."""
    if sim.blas_core() is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(fl_core.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", CO_TRAINERS], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    core, differ, compared = out.stdout.split()
    assert differ == "0", (f"{differ} of {compared} vehicles trained beside others differ "
                           f"from their lone run under {core} kernels")


@st.composite
def training_inputs(draw):
    """1-25 vehicles of 1-230 samples, some with a one-sample tail batch, a batch
    of 1-40, 0-5 epochs, and mu and momentum each 0 or drawn."""
    batch_size = draw(st.integers(1, 40))
    tail = st.integers(0, 229 // batch_size).map(lambda q: q * batch_size + 1)
    sizes = draw(st.lists(st.one_of(st.integers(1, 230), tail), min_size=1, max_size=25))
    c = draw(st.integers(2, 10))
    return dict(sizes=sizes, batch_size=batch_size, num_classes=c,
                feature_dim=draw(st.integers(c, 30)), local_epochs=draw(st.integers(0, 5)),
                prox_mu=draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.1))),
                momentum=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99))),
                seed=draw(st.integers(0, 2**32 - 1)))


def training_setup(sizes, seed, **learning):
    """Partitions of the given sizes and a start and reference near 0, drawn from seed."""
    cfg = learning_cfg(**learning)
    rng = np.random.default_rng(seed)
    parts = []
    for n in sizes:
        labels = rng.integers(0, cfg.num_classes, size=n)
        parts.append(Partition(features=sample_blob(rng, labels, cfg.num_classes,
                                                    cfg.feature_dim, cfg.class_separation),
                               labels=labels))
    w0 = 0.1 * rng.standard_normal(cfg.num_classes * (cfg.feature_dim + 1))
    return cfg, parts, w0, w0 + 0.01 * rng.standard_normal(len(w0))


def train_outcome(train, monkeypatch, module, w0, parts, global_ref, cfg, lr):
    """What train does: ("trained", each vehicle's weight bytes, each stream's state) or
    ("raised", its message, the bytes of the weights its last loss_and_grad call saw)."""
    seen = []
    loss_and_grad = fl_core.loss_and_grad

    def recording(w, *args, **kwargs):
        seen.append(np.array(w).tobytes())
        return loss_and_grad(w, *args, **kwargs)

    monkeypatch.setattr(module, "loss_and_grad", recording)
    rngs = [np.random.default_rng((3, k)) for k in range(len(parts))]
    try:
        with np.errstate(all="ignore"):  # inf - inf and overflow warn on the way
            trained = train(w0, parts, global_ref, cfg, rngs, lr)
    except RuntimeError as err:
        return "raised", str(err), seen[-1]
    finally:
        monkeypatch.setattr(module, "loss_and_grad", loss_and_grad)
    return ("trained", [w.tobytes() for w in trained],
            [rng.bit_generator.state for rng in rngs])


class TestLeanTraining:
    """local_train against the lockstep loop it replaced, which computed every
    step's loss: the same bits, and the same error at the same step."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(training_inputs())
    # a one-sample tail batch in a wider step, beside a one-sample vehicle
    @example(dict(sizes=[65, 33, 1, 64], batch_size=32, num_classes=10, feature_dim=30,
                  local_epochs=2, prox_mu=0.0025, momentum=0.9, seed=1))
    def test_bits_match_the_lockstep_oracle(self, inputs):
        inputs = dict(inputs)
        sizes, seed = inputs.pop("sizes"), inputs.pop("seed")
        cfg, parts, w0, global_ref = training_setup(sizes, seed, **inputs)
        got_rngs = [np.random.default_rng((seed, k)) for k in range(len(parts))]
        want_rngs = [np.random.default_rng((seed, k)) for k in range(len(parts))]
        got = local_train(w0, parts, global_ref, cfg, got_rngs, lr=0.05)
        want = lockstep_local_train(w0, parts, global_ref, cfg, want_rngs, lr=0.05)
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
        assert ([rng.bit_generator.state for rng in got_rngs]
                == [rng.bit_generator.state for rng in want_rngs])

    @staticmethod
    def _same_outcome(monkeypatch, w0, parts, global_ref, cfg, lr):
        got = train_outcome(local_train, monkeypatch, fl_core, w0, parts, global_ref, cfg, lr)
        want = train_outcome(lockstep_local_train, monkeypatch, oracles, w0, parts,
                             global_ref, cfg, lr)
        assert got == want
        return got

    @pytest.mark.parametrize("mu", [0.0, 0.0025])
    @pytest.mark.parametrize("vehicle, sample", [(1, 2), (0, 40)])  # padded, unpadded batch
    def test_nan_features(self, monkeypatch, mu, vehicle, sample):
        cfg, parts, w0, global_ref = training_setup([60, 5, 60], 30, num_classes=3,
                                                    feature_dim=4, batch_size=32, prox_mu=mu)
        parts[vehicle].features[sample] = np.nan
        outcome = self._same_outcome(monkeypatch, w0, parts, global_ref, cfg, lr=0.1)
        assert outcome[0] == "raised" and "(nan)" in outcome[1]

    @pytest.mark.parametrize("mu", [0.0, 0.0025])
    @pytest.mark.parametrize("entry, value", [(0, np.nan), (1, np.inf), (13, -np.inf),
                                              (14, np.inf)])
    def test_non_finite_weights_in(self, monkeypatch, mu, entry, value):
        cfg, parts, w0, global_ref = training_setup([60, 5, 60], 31, num_classes=3,
                                                    feature_dim=4, prox_mu=mu)
        w0[entry] = value
        outcome = self._same_outcome(monkeypatch, w0, parts, global_ref, cfg, lr=0.1)
        # a -inf bias drives its class's probability to 0: finite without the pull
        assert outcome[0] == ("trained" if (entry, mu) == (13, 0.0) else "raised")

    @pytest.mark.parametrize("mu, lr", [(0.0, 1e307), (0.0025, 1e100)])
    def test_overflowing_learning_rate(self, monkeypatch, mu, lr):
        """Without the pull the weights overflow to inf; with it, |w - ref|^2 does."""
        cfg, parts, w0, global_ref = training_setup([60, 5, 60], 32, num_classes=3,
                                                    feature_dim=4, batch_size=8, prox_mu=mu)
        outcome = self._same_outcome(monkeypatch, w0, parts, global_ref, cfg, lr=lr)
        assert outcome[0] == "raised"
        assert np.abs(np.frombuffer(outcome[2])).max() > 1e100  # after the weights grew

    @pytest.mark.parametrize("scale, raised", [(1e160, True), (3e153, False)])
    def test_distant_reference(self, monkeypatch, scale, raised):
        """|w - ref|^2 overflows at 1e160; at 3e153 the check fails on every step
        but the loss stays finite, and training goes on."""
        cfg, parts, w0, global_ref = training_setup([60, 5, 60], 33, num_classes=3,
                                                    feature_dim=4, prox_mu=0.0025)
        outcome = self._same_outcome(monkeypatch, w0, parts, np.full(len(w0), scale), cfg,
                                     lr=0.1)
        assert outcome[0] == ("raised" if raised else "trained")
        if raised:
            assert "(inf)" in outcome[1]


class TestAggregate:
    def test_single_full_weight(self):
        w_prev = np.zeros(4)
        w_v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(aggregate([w_v], [100], [1.0], [1.0], 100, w_prev), w_v)
        assert np.allclose(aggregate([w_v], [100], [1.0], [1.0], 100, w_prev, anchored=True), w_v)

    def test_empty_keeps_previous(self):
        w_prev = np.array([1.0, 2.0])
        out = aggregate([], [], [], [], 50, w_prev)
        assert np.array_equal(out, w_prev)
        out[0] = 99.0
        assert w_prev[0] == 1.0  # returned copy, not an alias

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="model 0"):
            aggregate([np.ones(2)], [10], [0.0], [0.5], 10, np.zeros(2))
        with pytest.raises(ValueError, match="model 0"):
            aggregate([np.ones(2)], [10], [0.5], [0.0], 10, np.zeros(2))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            aggregate([np.ones(2), np.ones(2)], [10], [0.5, 0.5], [0.5, 0.5], 10, np.zeros(2))

    def test_models_added_in_the_order_given(self):
        rng = np.random.default_rng(9)
        w_prev = rng.standard_normal(5)
        ws = rng.standard_normal((4, 5))
        d, u, p = np.array([60.0, 80.0, 50.0, 70.0]), rng.uniform(0.3, 1, 4), rng.uniform(0.3, 1, 4)
        expected = w_prev.copy()
        for k in range(4):
            expected += d[k] / (300.0 * u[k] * p[k]) * (ws[k] - w_prev)
        out = aggregate(ws, d, u, p, 300.0, w_prev, anchored=True)
        assert out.tobytes() == expected.tobytes()

    def test_data_scale_invariance(self):
        rng = np.random.default_rng(10)
        w_prev = rng.standard_normal(5)
        ws = [rng.standard_normal(5) for _ in range(4)]
        d = np.array([50 + 10 * i for i in range(4)])
        u, p = np.full(4, 0.5), np.full(4, 0.8)
        base = aggregate(ws, d, u, p, 200, w_prev)
        assert np.allclose(aggregate(ws, d * 17, u, p, 200 * 17, w_prev), base, rtol=1e-12)

    def test_anchored_mode_unbiased(self):
        rng = np.random.default_rng(11)
        n, dim = 6, 4
        w_prev = rng.standard_normal(dim)
        locals_ = rng.standard_normal((n, dim))
        d = rng.integers(50, 200, size=n).astype(float)
        u = rng.uniform(0.4, 0.9, n)
        p = rng.uniform(0.5, 0.95, n)
        target = w_prev + sum(d[v] / d.sum() * (locals_[v] - w_prev) for v in range(n))
        trials = 4000
        acc = np.zeros(dim)
        for _ in range(trials):
            got = [v for v in range(n) if rng.uniform() < u[v] and rng.uniform() < p[v]]
            acc += aggregate(locals_[got], d[got], u[got], p[got], d.sum(), w_prev, anchored=True)
        assert np.allclose(acc / trials, target, atol=0.05)


class TestEvaluate:
    def test_bayes_model_on_separated_blobs(self):
        cfg = learning_cfg(class_separation=6.0, test_samples_per_class=100)
        x, y = make_test_set(np.random.default_rng(12), cfg)
        acc, loss = evaluate(bayes_weights(cfg), x, y, cfg.num_classes)
        assert acc >= 0.99
        assert loss < 0.1

    def test_zero_weights_chance_level(self):
        cfg = learning_cfg(test_samples_per_class=100)
        x, y = make_test_set(np.random.default_rng(13), cfg)
        acc, _ = evaluate(init_weights(cfg.num_classes, cfg.feature_dim), x, y,
                          cfg.num_classes)
        assert acc == pytest.approx(0.1, abs=0.02)

    def test_deterministic(self):
        cfg = learning_cfg()
        x, y = make_test_set(np.random.default_rng(14), cfg)
        w = np.random.default_rng(15).standard_normal(len(init_weights(10, 20)))
        assert evaluate(w, x, y, 10) == evaluate(w, x, y, 10)

    def test_same_bits_as_reference_loss_and_argmax(self):
        cfg = learning_cfg(test_samples_per_class=100)
        x, y = make_test_set(np.random.default_rng(14), cfg)
        w = np.random.default_rng(16).standard_normal(len(init_weights(10, 20)))
        acc, loss = evaluate(w, x, y, 10)
        pred = np.argmax(x @ w[:200].reshape(10, 20).T + w[200:], axis=1)
        assert acc == float(np.mean(pred == y))
        assert loss == float(reference_loss_and_grad(w, x, y, 10)[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(6), np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


def proxy(stats):
    """convergence_proxy of (data_size, u, p) rows."""
    d, u, p = np.array(stats, dtype=float).reshape(-1, 3).T
    return convergence_proxy(d, u, p)


class TestConvergenceProxy:
    def test_perfect_participation_is_zero(self):
        assert proxy([(100, 1.0, 1.0), (50, 1.0, 1.0)]) == 0.0

    def test_single_half_half(self):
        assert proxy([(80, 0.5, 0.5)]) == pytest.approx(3.0)

    def test_monotone_in_probabilities(self):
        base = proxy([(10, 0.5, 0.6), (20, 0.7, 0.8)])
        assert proxy([(10, 0.6, 0.6), (20, 0.7, 0.8)]) < base
        assert proxy([(10, 0.5, 0.6), (20, 0.7, 0.9)]) < base

    def test_zero_probability_is_infinite(self):
        assert proxy([(10, 0.0, 0.5)]) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            stats = [(int(rng.integers(1, 100)), float(rng.uniform(0.01, 1)),
                      float(rng.uniform(0.01, 1))) for _ in range(5)]
            assert proxy(stats) >= 0.0

    def test_bits_equal_the_running_sum(self):
        rng = np.random.default_rng(18)
        cases = [[], [(0, 0.5, 0.5)], [(0, 0.0, 0.5), (0, 1.0, 1.0)], [(10, 0.5, 0.0)],
                 [(10, 1.0, 1.0), (0, 0.5, 0.5)], [(5, 1.0, 1.0), (7, 1.0, 1.0)]]
        for _ in range(3000):
            n = int(rng.integers(1, 400))
            sizes = rng.integers(1, 1000, n) if rng.uniform() < 0.5 else rng.uniform(0, 1000, n)
            u = rng.uniform(0.0, 1.0, n) ** float(rng.choice([1.0, 8.0]))
            p = rng.uniform(0.0, 1.0, n)
            u[rng.uniform(size=n) < 0.05] = 1.0
            cases.append(list(zip(sizes.tolist(), u.tolist(), p.tolist())))
        for stats in cases:
            want = oracles.reference_convergence_proxy(stats)
            got = proxy(stats)
            assert type(got) is float and got.hex() == want.hex(), stats


def test_lr_schedule_steps():
    assert lr_schedule(0, 0.1, 25) == 0.1
    assert lr_schedule(24, 0.1, 25) == 0.1
    assert lr_schedule(25, 0.1, 25) == pytest.approx(0.05)
    assert lr_schedule(75, 0.1, 25) == pytest.approx(0.025)


def test_federated_tracks_centralized_on_iid():
    """Full participation on IID shards stays near centralized training with the
    same total number of gradient steps."""
    cfg = learning_cfg(num_classes=4, feature_dim=8, class_separation=2.0,
                       partitioning="iid", samples_per_class=30, batch_size=32,
                       momentum=0.9, local_epochs=2, prox_mu=0.0)
    rng = np.random.default_rng(17)
    n_vehicles = 4
    parts = [make_partition(rng, cfg) for _ in range(n_vehicles)]
    union_x = np.vstack([p.features for p in parts])
    union_y = np.concatenate([p.labels for p in parts])
    dim = len(init_weights(4, 8))
    rounds, lr = 50, 0.05

    w_fed = init_weights(4, 8)
    total = sum(p.size for p in parts)
    for t in range(rounds):
        trained = [local_train(w_fed, [p], w_fed, cfg, [np.random.default_rng((t, v))], lr=lr)[0]
                   for v, p in enumerate(parts)]
        ones = np.ones(n_vehicles)
        w_fed = aggregate(trained, [p.size for p in parts], ones, ones, total, w_fed)

    steps_per_vehicle = cfg.local_epochs * math.ceil(parts[0].size / cfg.batch_size)
    total_steps = rounds * n_vehicles * steps_per_vehicle
    w_cen = init_weights(4, 8)
    vel = np.zeros(dim)
    cen_rng = np.random.default_rng(18)
    done = 0
    union = Partition(features=union_x, labels=union_y)
    while done < total_steps:
        order = cen_rng.permutation(union.size)
        for start in range(0, union.size, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            _, g = loss_and_grad(w_cen, union_x[sel], union_y[sel], 4)
            vel = 0.9 * vel + g
            w_cen -= lr * vel
            done += 1
            if done >= total_steps:
                break

    loss_fed, _ = loss_and_grad(w_fed, union_x, union_y, 4)
    loss_cen, _ = loss_and_grad(w_cen, union_x, union_y, 4)
    assert loss_fed <= 1.05 * loss_cen

