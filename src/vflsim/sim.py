"""Round-by-round experiment engine.

One experiment is a pure function of (config, seed).  The master seed splits
into named independent substreams so that the traffic environment (arrival
times, speeds, shadowing, per-vehicle datasets) is byte-identical no matter
which scheduler runs on top of it:

    spawn_key (0,) arrivals    (1,) speeds   (2,) shadowing  (3,) fading
              (4,) selection  (5,) outage
              (6, vehicle_id, round) per-vehicle-per-round training
              (7, 0) test set, (7, 1 + vehicle_id) per-vehicle partition

Each round: advance mobility by the previous round time, admit arrivals,
redraw fast fading, solve the scheduling problem, realize the stochastic
selection, draw the estimation-error power of each transmission and test the
rate-support event, train the survivors locally, aggregate with
inverse-probability weights, and set the round time from the slowest
successful rate.
"""

from __future__ import annotations

import functools
import subprocess
import time as _time
from dataclasses import dataclass

import numpy as np

from . import channel, fl_core, scheduler
from .config import SimConfig, config_hash, serialize_config
from .mobility import ArrivalProcess, RoadGeometry, VehicleState, nearest_rsu_distance

_ARRIVALS, _SPEEDS, _SHADOWING, _FADING, _SELECTION, _OUTAGE, _TRAINING, _DATA = range(8)

CSV_COLUMNS = ("t", "time_start", "T_t", "time_cum", "n_feasible", "n_selected",
               "n_success", "objective", "proxy", "accuracy", "loss")


@dataclass
class RoundRecord:
    t: int
    time_start: float
    round_time: float
    time_cum: float
    n_feasible: int
    n_selected: int
    n_success: int
    objective: float
    proxy: float
    accuracy: float
    loss: float
    trim_events: int = 0


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class Experiment:
    """Mutable state of one seeded run."""

    def __init__(self, cfg: SimConfig, seed=None):
        cfg.validate()
        self.cfg = cfg
        self.seed = cfg.run.seed if seed is None else seed
        self.geometry = RoadGeometry(
            road_length=cfg.geometry.road_length_m,
            lane_count=cfg.geometry.lane_count,
            lane_width=cfg.geometry.lane_width_m,
            rsu_spacing=cfg.geometry.rsu_spacing_m,
        )
        self.rng_shadowing = _stream(self.seed, _SHADOWING)
        self.rng_fading = _stream(self.seed, _FADING)
        self.rng_selection = _stream(self.seed, _SELECTION)
        self.rng_outage = _stream(self.seed, _OUTAGE)
        mean_speed = 0.5 * (cfg.speed_min_mps + cfg.speed_max_mps)
        self.warmup = cfg.geometry.road_length_m / mean_speed
        self.arrivals = ArrivalProcess(
            self.geometry,
            cfg.traffic.arrival_rate_per_lane,
            (cfg.speed_min_mps, cfg.speed_max_mps),
            _stream(self.seed, _ARRIVALS),
            _stream(self.seed, _SPEEDS),
            start_time=-self.warmup,
        )
        self.vehicles = {}
        self.next_id = 0
        self.time = 0.0
        self.pop_synced_at = -self.warmup
        self.records = []
        lc = cfg.learning
        self.weights = fl_core.init_weights(lc.num_classes, lc.feature_dim)
        self.test_x, self.test_y = fl_core.make_test_set(_stream(self.seed, _DATA, 0), lc)
        self._advance_population(0.0)  # populate the road before round 0

    # -- environment ---------------------------------------------------------

    def _advance_population(self, t_new):
        dt = t_new - self.pop_synced_at
        road = self.geometry.road_length
        p = self.cfg.physical
        for vid in [i for i, v in self.vehicles.items()
                    if v.position + v.velocity * dt > road]:
            del self.vehicles[vid]
        for v in self.vehicles.values():
            v.position += v.velocity * dt
        arrivals = self.arrivals.pop_until(t_new)
        shadows = self.rng_shadowing.normal(0.0, p.shadowing_sigma_db, len(arrivals)).tolist()
        epsilons = channel.temporal_correlation(
            np.array([speed for _, _, speed in arrivals]), p.carrier_freq_hz,
            p.feedback_delay_s).tolist()
        for (t_arr, lane, speed), shadow, eps in zip(arrivals, shadows, epsilons):
            vid = self.next_id
            self.next_id += 1
            part = fl_core.make_partition(functools.partial(_stream, self.seed, _DATA, 1 + vid),
                                          self.cfg.learning)
            pos = speed * (t_new - t_arr)
            if pos > road:
                continue  # spawned and departed within the same advance window
            self.vehicles[vid] = VehicleState(
                id=vid, lane=lane, position=pos, velocity=speed, spawn_time=t_arr,
                shadowing_db=shadow, dataset=part, epsilon=eps,
            )
        self.pop_synced_at = t_new

    def _refresh_channels(self):
        p = self.cfg.physical
        vehicles = [self.vehicles[vid] for vid in sorted(self.vehicles)]
        fading = [channel.sample_fading_pair(self.rng_fading) for _ in vehicles]
        dist = np.array([nearest_rsu_distance(v, self.geometry) for v in vehicles])
        shadow = np.array([v.shadowing_db for v in vehicles])
        gains = channel.large_scale_gain(dist, p.carrier_freq_hz, shadow, p.min_distance_m)
        for v, (h_est, h_err), gain in zip(vehicles, fading, gains.tolist()):
            v.channel = channel.ChannelState(h_est=h_est, h_err=h_err, epsilon=v.epsilon,
                                             large_scale_gain=gain)

    # -- one round ------------------------------------------------------------

    def _solve(self, ctx):
        name = self.cfg.run.scheduler
        if name == "scheme1":
            return scheduler.scheme1_baseline(ctx)
        if name == "scheme2":
            return scheduler.scheme2_baseline(ctx)
        return scheduler.bcd_solve(ctx)

    def draw_outcomes(self, plan, rng=None):
        """Realized rate-support events for the selected vehicles, id ascending.

        Draws the unknown error power |h_err|^2 ~ Exp(1) per selected vehicle
        and keeps those satisfying |h_err|^2 <= (|h_est|^2 - b)/a at the
        assigned rate.
        """
        rng = self.rng_outage if rng is None else rng
        cfg = self.cfg
        successful = []
        for vid in sorted(plan.selected_set):
            err_power = float(rng.exponential(1.0))
            ch = self.vehicles[vid].channel
            coeffs = channel.outage_coefficients(
                plan.rates[vid], cfg.block_bandwidth_hz, ch.epsilon,
                cfg.tx_power_w, ch.large_scale_gain, cfg.noise_density_w_hz)
            if coeffs.a == 0.0:
                ok = ch.h_est_power > coeffs.b
            else:
                ok = err_power <= (ch.h_est_power - coeffs.b) / coeffs.a
            if ok:
                successful.append(vid)
        return successful

    def run_round(self):
        cfg = self.cfg
        t_idx = len(self.records)
        self._advance_population(self.time)  # moves by the previous round time
        self._refresh_channels()
        ctx = scheduler.build_context(self.vehicles.values(), self.geometry, cfg)
        if ctx.size == 0:
            plan = scheduler.RoundPlan()
            successful = []
        else:
            plan, _report = self._solve(ctx)
            scheduler.realize_selection(plan, self.rng_selection, cfg.physical.n_blocks)
            successful = self.draw_outcomes(plan)
        lr = fl_core.lr_schedule(t_idx, cfg.learning.lr_base, cfg.learning.lr_decay_rounds)
        ids = sorted(successful)
        parts = [self.vehicles[vid].dataset for vid in ids]
        trained = fl_core.local_train(self.weights, parts, self.weights, cfg.learning,
                                      [_stream(self.seed, _TRAINING, vid, t_idx) for vid in ids],
                                      lr)
        updates = [fl_core.ClientUpdate(vehicle_id=vid, weights=w, data_size=part.size,
                                        inclusion_prob=plan.inclusion_probs[vid],
                                        success_prob=plan.success_probs[vid])
                   for vid, part, w in zip(ids, parts, trained)]
        self.weights = fl_core.aggregate(updates, max(ctx.d_total, 1.0), self.weights,
                                         anchored=cfg.learning.aggregation == "anchored")
        t_round = scheduler.round_time(plan, successful, cfg.physical.model_bits,
                                       cfg.optimization.round_time_cap_s)
        plan.round_time = t_round
        if ctx.size:
            proxy = fl_core.convergence_proxy(
                (ctx.data_sizes[k], plan.inclusion_probs[int(i)], plan.success_probs[int(i)])
                for k, i in enumerate(ctx.ids))
        else:
            proxy = float("nan")
        acc, loss = fl_core.evaluate(self.weights, self.test_x, self.test_y,
                                     cfg.learning.num_classes)
        rec = RoundRecord(
            t=t_idx, time_start=self.time, round_time=t_round,
            time_cum=self.time + t_round, n_feasible=ctx.size,
            n_selected=len(plan.selected_set), n_success=len(successful),
            objective=plan.objective_value, proxy=proxy, accuracy=acc, loss=loss,
            trim_events=plan.trim_events)
        self.records.append(rec)
        self.time += t_round
        return rec

    def run(self):
        for _ in range(self.cfg.run.rounds):
            self.run_round()
        return self.records


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def round_csv_text(records):
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join([
            _fmt(r.t), _fmt(r.time_start), _fmt(r.round_time), _fmt(r.time_cum),
            _fmt(r.n_feasible), _fmt(r.n_selected), _fmt(r.n_success),
            _fmt(r.objective), _fmt(r.proxy), _fmt(r.accuracy), _fmt(r.loss)]))
    return "\n".join(lines) + "\n"


def write_round_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(round_csv_text(records))


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_manifest(path, cfg, seed, wall_clock_s):
    with open(path, "w", encoding="utf-8") as f:
        f.write("vflsim-manifest 1\n")
        f.write(f"seed = {seed}\n")
        f.write(f"config_hash = {config_hash(cfg)}\n")
        f.write(f"git = {git_describe()}\n")
        f.write(f"wall_clock_s = {wall_clock_s:.3f}\n")
        f.write("[config]\n")
        f.write(serialize_config(cfg))


def run_experiment(cfg: SimConfig, seed=None, csv_path=None, manifest_path=None):
    """One seeded run; optionally writes the per-round CSV and manifest."""
    started = _time.monotonic()
    exp = Experiment(cfg, seed)
    records = exp.run()
    if csv_path is not None:
        write_round_csv(records, csv_path)
    if manifest_path is not None:
        write_manifest(manifest_path, cfg, exp.seed, _time.monotonic() - started)
    return records
