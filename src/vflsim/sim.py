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

import ctypes
import math
import subprocess
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channel, fl_core, scheduler
from .config import SimConfig, config_hash, serialize_config
from .mobility import ArrivalProcess, Population, nearest_rsu_distance

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

    def __init__(self, cfg: SimConfig, seed):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        self.geometry = cfg.geometry
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
        self.vehicles = Population()
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
        road = self.geometry.road_length_m
        p = self.cfg.physical
        pop = self.vehicles
        pop.position = pop.position + pop.velocity * dt
        pop.keep(~(pop.position > road))
        t_arr, lane, speed = self.arrivals.pop_until(t_new).T
        ids = self.next_id + np.arange(len(t_arr))
        self.next_id += len(t_arr)
        shadows = self.rng_shadowing.normal(0.0, p.shadowing_sigma_db, len(t_arr))
        epsilons = channel.temporal_correlation(speed, p.carrier_freq_hz, p.feedback_delay_s)
        pos = speed * (t_new - t_arr)
        # an arrival that spawned and departed within this advance window keeps
        # its id, so no later vehicle's streams move, but gets no row
        on = ~(pos > road)
        sizes, draws = fl_core.partition_sizes(ids[on].tolist(), self._data_stream,
                                               self.cfg.learning)
        pop.extend(Population(ids=ids[on], lane=lane[on], position=pos[on], velocity=speed[on],
                              spawn_time=t_arr[on], shadowing_db=shadows[on],
                              epsilon=epsilons[on], data_size=sizes))
        pop.label_draws.update(draws)
        self.pop_synced_at = t_new

    def _data_stream(self, vid):
        """Vehicle vid's own dataset stream."""
        return _stream(self.seed, _DATA, 1 + vid)

    def partitions(self, ids):
        """The datasets of the vehicles `ids`, which must be on the road.

        A vehicle's dataset is made from its own stream the first time it is
        asked for, continuing from the label draw admission made for a non-iid
        vehicle, and kept while the vehicle stays on the road.
        """
        self.vehicles.rows(ids)  # KeyError for a vehicle not on the road
        made, kept = self.vehicles.partitions, self.vehicles.label_draws
        for vid in ids:
            if vid not in made:
                rng, drawn = kept.pop(vid) if vid in kept else (self._data_stream(vid), None)
                made[vid] = fl_core.make_partition(rng, self.cfg.learning, drawn)
        return [made[vid] for vid in ids]

    def _refresh_channels(self):
        """Draw the round's fading estimates and large-scale gains, one array call each.

        The error half of each fading draw is drawn and dropped: the outcome
        draw in draw_outcomes stands in for it, and drawing it keeps the
        fading stream where it was.
        """
        p = self.cfg.physical
        pop = self.vehicles
        h_est, _ = channel.sample_fading_pair(self.rng_fading, len(pop))
        # Python's complex abs and float power: numpy's round differently
        h_est_sq = np.array([abs(h) ** 2 for h in h_est.tolist()])
        dist = nearest_rsu_distance(pop.position, pop.lane, self.geometry)
        pop.set_channels(h_est_sq, channel.large_scale_gain(dist, p.carrier_freq_hz,
                                                            pop.shadowing_db, p.min_distance_m))

    # -- one round ------------------------------------------------------------

    def _solve(self, ctx):
        name = self.cfg.run.scheduler
        if name == "scheme1":
            return scheduler.scheme1_baseline(ctx)
        if name == "scheme2":
            return scheduler.scheme2_baseline(ctx)
        return scheduler.bcd_solve(ctx)

    def draw_outcomes(self, plan, ctx, selected, rng=None):
        """The selected positions whose transmission survives, ascending.

        Draws the unknown error power |h_err|^2 ~ Exp(1) of each position in
        `selected`, an ascending array of positions in the plan's arrays, in
        one call, and keeps those whose draw is at most the support margin of
        their assigned rate: the event whose probability is the plan's `p`.
        """
        rng = self.rng_outage if rng is None else rng
        err_power = rng.exponential(1.0, size=len(selected))
        return selected[err_power <= ctx.support_margin(plan.r)[selected]]

    def run_round(self):
        cfg = self.cfg
        t_idx = len(self.records)
        self._advance_population(self.time)  # moves by the previous round time
        self._refresh_channels()
        ctx = scheduler.build_context(self.vehicles, self.geometry, cfg)
        plan, _report = self._solve(ctx)
        selected, trimmed = scheduler.realize_selection(plan, self.rng_selection,
                                                        cfg.physical.n_blocks)
        successful = self.draw_outcomes(plan, ctx, selected)
        lr = fl_core.lr_schedule(t_idx, cfg.learning.lr_base, cfg.learning.lr_decay_rounds)
        ids = ctx.ids[successful].tolist()
        parts = self.partitions(ids)
        trained = fl_core.local_train(self.weights, parts, self.weights, cfg.learning,
                                      [_stream(self.seed, _TRAINING, vid, t_idx) for vid in ids],
                                      lr)
        self.weights = fl_core.aggregate(trained, ctx.data_sizes[successful],
                                         plan.u[successful], plan.p[successful], ctx.d_total,
                                         self.weights,
                                         anchored=cfg.learning.aggregation == "anchored")
        t_round = scheduler.round_time(plan, successful, cfg.physical.model_bits,
                                       cfg.optimization.round_time_cap_s)
        proxy = fl_core.convergence_proxy(ctx.data_sizes, plan.u, plan.p) if ctx.size else math.nan
        acc, loss = fl_core.evaluate(self.weights, self.test_x, self.test_y,
                                     cfg.learning.num_classes)
        rec = RoundRecord(
            t=t_idx, time_start=self.time, round_time=t_round,
            time_cum=self.time + t_round, n_feasible=ctx.size,
            n_selected=len(selected), n_success=len(successful),
            objective=plan.objective_value, proxy=proxy, accuracy=acc, loss=loss,
            trim_events=trimmed)
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


def blas_core():
    """The CPU core whose kernels numpy's bundled OpenBLAS runs, as OpenBLAS names it
    (Prescott kernels read "Katmai"), or None where numpy bundles no OpenBLAS."""
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(str(lib))  # the library numpy loaded, not a second copy
        except OSError:
            continue
        # numpy 2 wheels bundle scipy-openblas, numpy 1 wheels OpenBLAS itself
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            if hasattr(dll, name):
                corename = getattr(dll, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def platform():
    """numpy's version, its BLAS and the BLAS core: the platform a CSV's bits rest on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        name = "blas unknown"
    return f"numpy {np.__version__}, {name}, core {blas_core() or 'unknown'}"


def write_manifest(path, cfg, seed, wall_clock_s):
    with open(path, "w", encoding="utf-8") as f:
        f.write("vflsim-manifest 1\n")
        f.write(f"seed = {seed}\n")
        f.write(f"config_hash = {config_hash(cfg)}\n")
        f.write(f"git = {git_describe()}\n")
        f.write(f"platform = {platform()}\n")
        f.write(f"wall_clock_s = {wall_clock_s:.3f}\n")
        f.write("[config]\n")
        f.write(serialize_config(cfg))


def run_experiment(cfg: SimConfig, seed, csv_path=None, manifest_path=None):
    """One seeded run; optionally writes the per-round CSV and manifest."""
    started = _time.monotonic()
    exp = Experiment(cfg, seed)
    records = exp.run()
    if csv_path is not None:
        write_round_csv(records, csv_path)
    if manifest_path is not None:
        write_manifest(manifest_path, cfg, seed, _time.monotonic() - started)
    return records
