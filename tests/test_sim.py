import copy
from pathlib import Path

import numpy as np
import pytest

import oracles
from vflsim import channel, fl_core, scheduler, sim
from vflsim.config import parse_config
from vflsim.fl_core import Partition, make_partition
from vflsim.mobility import Population
from vflsim.sim import Experiment, round_csv_text, run_experiment


def small_cfg(**kv):
    cfg = parse_config()
    cfg.run.rounds = 3
    cfg.traffic.arrival_rate_per_lane = 0.05
    for key, val in kv.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, val)
    return cfg


def _data_stream(seed, vid):
    """Vehicle `vid`'s own partition stream, spawn key (7, 1 + vid)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7, 1 + vid)))


def partition(exp, vid):
    """The dataset of vehicle `vid` on the experiment's road."""
    return exp.partitions([vid])[0]


def solved_round():
    """A populated road at seed 3, its scheduling context and its VR-VFL plan."""
    cfg = small_cfg(physical__feedback_delay_s=1e-4)
    exp = Experiment(cfg, seed=3)
    exp._refresh_channels()
    ctx = scheduler.build_context(exp.vehicles, exp.geometry, cfg)
    plan, _ = scheduler.bcd_solve(ctx)
    return exp, ctx, plan


class FixedDraws:
    """Stands in for the outage stream: its one exponential call returns set values."""

    def __init__(self, values):
        self.values = np.array(values)

    def exponential(self, scale, size):
        assert scale == 1.0 and size == len(self.values)
        return self.values


class TestRoundMechanics:
    def test_empty_road_round(self):
        cfg = small_cfg(traffic__arrival_rate_per_lane=0.0)
        exp = Experiment(cfg, seed=0)
        w_before = exp.weights.copy()
        rec = exp.run_round()
        assert (rec.n_feasible, rec.n_selected, rec.n_success) == (0, 0, 0)
        assert rec.round_time == cfg.optimization.round_time_cap_s
        assert np.array_equal(exp.weights, w_before)

    def test_certain_single_vehicle_succeeds_every_round(self):
        # a 1-bit model over a 60 s cap gives a vanishing minimum rate, so the
        # success probability degenerates to exactly 1
        cfg = small_cfg(traffic__arrival_rate_per_lane=0.0,
                        physical__model_bits=1.0,
                        run__scheduler="scheme2", run__rounds=5)
        exp = Experiment(cfg, seed=1)
        part = make_partition(np.random.default_rng(0), cfg.learning)
        p = cfg.physical
        eps = channel.temporal_correlation(5.0, p.carrier_freq_hz, p.feedback_delay_s)
        exp.vehicles = Population(ids=[0], lane=[0], position=[0.0], velocity=[5.0],
                                  spawn_time=[0.0], epsilon=[eps], data_size=[part.size])
        exp.vehicles.partitions[0] = part
        exp.next_id = 1
        for _ in range(5):
            rec = exp.run_round()
            assert rec.n_feasible == 1
            assert rec.n_selected == 1
            assert rec.n_success == 1

    def test_counts_ordered(self):
        cfg = small_cfg(run__rounds=6)
        recs = run_experiment(cfg, seed=2)
        for r in recs:
            assert r.n_success <= r.n_selected <= r.n_feasible

    def test_outage_frequency_matches_closed_form(self):
        exp, ctx, plan = solved_round()
        plan.selected_set = set(plan.ids)
        rng = np.random.default_rng(99)
        trials = 10_000
        counts = dict.fromkeys(plan.ids, 0)
        for _ in range(trials):
            for vid in exp.draw_outcomes(plan, ctx, rng):
                counts[vid] += 1
        for vid in plan.ids:
            assert counts[vid] / trials == pytest.approx(plan.success_probs[vid], abs=0.02)

    def test_planned_probability_and_drawn_event_share_one_margin(self):
        exp, ctx, plan = solved_round()
        margin = ctx.support_margin([plan.rates[i] for i in plan.ids])
        assert np.all(margin > 0.0)
        for vid, m in zip(plan.ids, margin):
            assert plan.success_probs[vid] == float(-np.expm1(-m))
        # every other vehicle is selected; their error powers land just above,
        # just below or exactly on their margins
        picked = list(range(1, ctx.size, 2))
        plan.selected_set = {plan.ids[k] for k in picked}
        draws = [np.nextafter(margin[k], (np.inf, -np.inf, margin[k])[j % 3])
                 for j, k in enumerate(picked)]
        kept = [plan.ids[k] for j, k in enumerate(picked) if j % 3]
        assert len(picked) >= 6
        assert exp.draw_outcomes(plan, ctx, FixedDraws(draws)) == kept


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        cfg = small_cfg(run__rounds=4)
        run_experiment(cfg, seed=5, csv_path=tmp_path / "a.csv")
        run_experiment(cfg, seed=5, csv_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_output(self):
        cfg = small_cfg(run__rounds=4)
        a = round_csv_text(run_experiment(cfg, seed=5))
        b = round_csv_text(run_experiment(cfg, seed=6))
        assert a != b

    def test_zero_rounds_header_only(self):
        cfg = small_cfg(run__rounds=0)
        text = round_csv_text(run_experiment(cfg, seed=0))
        assert text == ("t,time_start,T_t,time_cum,n_feasible,n_selected,"
                        "n_success,objective,proxy,accuracy,loss\n")


class TestTimeAccounting:
    def test_cumulative_time_is_exact_sum(self):
        cfg = small_cfg(run__rounds=8)
        recs = run_experiment(cfg, seed=7)
        total = 0.0
        for r in recs:
            assert r.time_start == total
            total += r.round_time
            assert r.time_cum == total

    def test_round_times_positive(self):
        cfg = small_cfg(run__rounds=8, physical__feedback_delay_s=1e-4)
        for r in run_experiment(cfg, seed=8):
            assert r.round_time > 0.0


class TestSchedulerSwapIsolation:
    def test_environment_identical_across_schedulers(self):
        populations = {}
        for sched in ("vrvfl", "scheme1", "scheme2"):
            cfg = small_cfg(run__rounds=3, run__scheduler=sched)
            exp = Experiment(cfg, seed=9)
            exp.run()
            pop = exp.vehicles
            populations[sched] = {
                vid: (lane, t0, speed, shadow, size, part.features.tobytes(),
                      part.labels.tobytes())
                for vid, lane, t0, speed, shadow, size, part in zip(
                    pop.ids.tolist(), pop.lane.tolist(), pop.spawn_time.tolist(),
                    pop.velocity.tolist(), pop.shadowing_db.tolist(), pop.data_size.tolist(),
                    exp.partitions(pop.ids.tolist()))
            }
        ids_common = set.intersection(*[set(p) for p in populations.values()])
        assert ids_common  # rounds overlap enough to share vehicles
        for vid in ids_common:
            assert populations["vrvfl"][vid] == populations["scheme1"][vid]
            assert populations["vrvfl"][vid] == populations["scheme2"][vid]

    def test_partition_depends_only_on_vehicle_id(self):
        cfg = small_cfg()
        a = Experiment(cfg, seed=10)
        b = Experiment(cfg, seed=10)
        for vid in set(a.vehicles.ids.tolist()) & set(b.vehicles.ids.tolist()):
            assert np.array_equal(partition(a, vid).features, partition(b, vid).features)


DESK = {"traffic.arrival_rate_per_lane": "0.05", "physical.feedback_delay_s": "1e-4",
        "learning.feature_dim": "30", "learning.class_separation": "1.2",
        "learning.partitioning": "noniid", "learning.lr_base": "0.01",
        "learning.aggregation": "anchored", "learning.test_samples_per_class": "200"}
DENSE = {"traffic.arrival_rate_per_lane": "2.0", "run.scheduler": "scheme1"}
# the platform that wrote tests/data/*.csv: their bits hold on it, and may move
# with numpy or the BLAS kernels alone
GOLDEN_PLATFORM = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX"


def platform_note():
    return f"tests/data written under {GOLDEN_PLATFORM}; this run: {sim.platform()}"


class _ReferenceCheckedExperiment(Experiment):
    """An experiment whose refresh and context are compared with the per-vehicle references."""

    check_rounds = (0, 3)

    def __init__(self, cfg, seed):
        self.checked = []  # context sizes of the rounds checked
        super().__init__(cfg, seed)

    def _refresh_channels(self):
        rng = copy.deepcopy(self.rng_fading)
        super()._refresh_channels()
        if len(self.records) not in self.check_rounds:
            return
        expected = oracles.reference_channels(self.vehicles, self.geometry, self.cfg, rng)
        assert rng.bit_generator.state == self.rng_fading.bit_generator.state
        for name, want in zip(("h_est_sq", "epsilon", "gain"), expected):
            have = getattr(self.vehicles, name)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), name
        sizes = [len(oracles.eager_partition(_data_stream(self.seed, vid), self.cfg.learning)[1])
                 for vid in self.vehicles.ids.tolist()]
        assert self.vehicles.data_size.tolist() == sizes
        got = scheduler.build_context(self.vehicles, self.geometry, self.cfg)
        ref = oracles.reference_context(self.vehicles, self.geometry, self.cfg)
        for name in ("ids", "data_sizes", "epsilon", "h_est_sq", "gain", "sojourn",
                     "r_min", "r_max", "xi1", "xi3"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.d_total, got.budget_dropped) == (ref.d_total, ref.budget_dropped)
        self.checked.append(got.size)


class TestBatchedRoundMatchesPerVehicleReference:
    @pytest.mark.parametrize("overrides,seed", [({}, 1), (DESK, 11), (DENSE, 2)],
                             ids=["default", "desk", "dense"])
    def test_channels_and_context_at_rounds_0_and_3(self, overrides, seed):
        exp = _ReferenceCheckedExperiment(parse_config(overrides=overrides), seed=seed)
        for _ in range(4):
            exp.run_round()
        assert len(exp.checked) == 2 and min(exp.checked) > 0


class TestLazyPartitions:
    @pytest.mark.parametrize("partitioning", ["iid", "noniid"])
    def test_late_read_equals_eager_draw(self, partitioning):
        cfg = small_cfg(learning__partitioning=partitioning)
        exp = Experiment(cfg, seed=13)
        vids = exp.vehicles.ids.tolist()
        late = vids[len(vids) // 2]
        for vid in vids:  # everyone else first, the chosen vehicle last
            if vid != late:
                partition(exp, vid).features
        for vid in vids[-3:] + [late]:
            part = partition(exp, vid)
            feats, labels = oracles.eager_partition(_data_stream(13, vid), cfg.learning)
            assert part.size == len(labels) == exp.vehicles.data_size[exp.vehicles.rows([vid])[0]]
            assert part.features.tobytes() == feats.tobytes()
            assert part.labels.tobytes() == labels.tobytes()

    def test_only_trained_vehicles_draw_features(self, monkeypatch):
        cfg = small_cfg(run__rounds=12, run__scheduler="scheme1")
        exp = Experiment(cfg, seed=14)
        draws, trained = [], {}  # id -> partition, which keeps the id from being reused
        sample_blob, local_train = fl_core.sample_blob, fl_core.local_train

        def counting_blob(*args):
            draws.append(args)
            return sample_blob(*args)

        def recording_train(w, parts, *args):
            trained.update((id(part), part) for part in parts)
            return local_train(w, parts, *args)

        monkeypatch.setattr(fl_core, "sample_blob", counting_blob)
        monkeypatch.setattr(fl_core, "local_train", recording_train)
        spawned_before = set(exp.vehicles.ids.tolist())
        exp.run()
        departed = spawned_before - set(exp.vehicles.ids.tolist())
        assert departed and exp.next_id > len(spawned_before)
        assert trained and len(draws) == len(trained)  # one draw per trained vehicle, none else

    def test_partition_from_arrays(self):
        feats, labels = np.zeros((3, 2)), np.array([0, 1, 1])
        part = Partition(features=feats, labels=labels)
        assert part.features is feats and part.labels is labels and part.size == 3
        with pytest.raises(TypeError):
            Partition(labels=labels)


class TestArrivalPartitions:
    def test_arrival_gone_within_its_window_gets_no_partition(self, monkeypatch):
        cfg = parse_config(overrides={"learning.partitioning": "noniid"})
        made = []  # vehicle ids whose dataset size was drawn at admission
        partition_sizes = fl_core.partition_sizes

        def recording(ids, rng_of, lc):
            made.extend(ids)
            return partition_sizes(ids, rng_of, lc)

        monkeypatch.setattr(fl_core, "partition_sizes", recording)
        exp = Experiment(cfg, seed=12)
        on_road = exp.vehicles.ids.tolist()
        assert made == on_road
        # the warm-up window holds fast early arrivals that had already left
        gone = sorted(set(range(exp.next_id)) - set(on_road))
        after = [vid + 1 for vid in gone if vid + 1 in on_road]
        assert gone and after
        for vid in after:  # the next vehicle's stream has not moved
            part = partition(exp, vid)
            feats, labels = oracles.eager_partition(_data_stream(12, vid), cfg.learning)
            assert part.labels.tobytes() == labels.tobytes()
            assert part.features.tobytes() == feats.tobytes()

    def test_dense_round_makes_partitions_for_its_trainers_only(self, monkeypatch):
        made = []  # vehicle id of each partition made, read off its (7, 1 + id) stream key
        make_partition = fl_core.make_partition

        def recording(rng, lc, drawn):
            made.append(rng.bit_generator.seed_seq.spawn_key[-1] - 1)
            return make_partition(rng, lc, drawn)

        monkeypatch.setattr(fl_core, "make_partition", recording)
        exp = Experiment(parse_config(overrides=DENSE), seed=1)
        assert made == [] and len(exp.vehicles) > 1000
        trainers, draw_outcomes = [], exp.draw_outcomes
        exp.draw_outcomes = lambda *args: trainers.append(draw_outcomes(*args)) or trainers[-1]
        for _ in range(3):
            before = list(made)
            parts = dict(exp.vehicles.partitions)
            exp.run_round()
            new = sorted(set(trainers[-1]) - set(parts))
            assert made == before + new and 0 < len(trainers[-1]) < 50
            # a vehicle still on the road keeps the partition it was first given
            for vid, part in parts.items():
                if vid in exp.vehicles.partitions:
                    assert exp.vehicles.partitions[vid] is part
            assert set(exp.vehicles.partitions) <= set(exp.vehicles.ids.tolist())

    @pytest.mark.parametrize("partitioning", ["iid", "noniid"])
    def test_partition_made_on_training_equals_eager_draw(self, partitioning):
        cfg = small_cfg(learning__partitioning=partitioning, run__scheduler="scheme1")
        exp = Experiment(cfg, seed=15)
        exp.run()
        assert exp.vehicles.partitions
        for vid, part in exp.vehicles.partitions.items():
            feats, labels = oracles.eager_partition(_data_stream(15, vid), cfg.learning)
            assert part.labels.tobytes() == labels.tobytes()
            assert part.features.tobytes() == feats.tobytes()
            assert exp.vehicles.data_size[exp.vehicles.rows([vid])[0]] == len(labels)


def test_dense_scheme1_rounds_keep_their_bytes():
    """Three rounds of about 1,080 vehicles against the CSV the per-vehicle simulator wrote."""
    cfg = parse_config(overrides={**DENSE, "run.rounds": "3"})
    stored = Path(__file__).resolve().parent / "data" / "dense_scheme1_s1.csv"
    assert round_csv_text(run_experiment(cfg, seed=1)).encode() == stored.read_bytes(), \
        platform_note()


def test_dense_noniid_rounds_keep_their_bytes():
    """Three non-iid dense rounds against the CSV the eager-partition simulator wrote:
    every arrival's size comes from its own label draw."""
    cfg = parse_config(overrides={**DENSE, "learning.partitioning": "noniid", "run.rounds": "3"})
    stored = Path(__file__).resolve().parent / "data" / "dense_noniid_s1.csv"
    assert round_csv_text(run_experiment(cfg, seed=1)).encode() == stored.read_bytes(), \
        platform_note()


def test_thousand_round_run_completes():
    cfg = small_cfg(run__rounds=1000, run__scheduler="scheme1",
                    traffic__arrival_rate_per_lane=0.01,
                    learning__samples_per_class=3,
                    learning__test_samples_per_class=10)
    recs = run_experiment(cfg, seed=12)
    assert len(recs) == 1000
    assert recs[-1].time_cum == pytest.approx(sum(r.round_time for r in recs))


def test_trim_events_recorded():
    # inflate inclusion by shrinking the block budget so overflow must trim
    cfg = small_cfg(physical__n_blocks=2, run__rounds=15, run__scheduler="scheme1",
                    traffic__arrival_rate_per_lane=0.1)
    recs = run_experiment(cfg, seed=11)
    assert all(r.n_selected <= 2 for r in recs)
    assert any(r.trim_events > 0 for r in recs)
