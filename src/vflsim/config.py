"""Experiment configuration: flat dotted key-value text files plus CLI overrides.

The on-disk format is one `section.key = value` pair per line, `#` comments,
blank lines ignored.  Power-like quantities are configured in dB/dBm as is
conventional; everything downstream of parsing works in linear SI units via
the derived properties, so mixed-unit bugs cannot creep into the physics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .channel import temporal_correlation


class ConfigError(Exception):
    """Invalid, unknown or out-of-range configuration input."""


@dataclass
class PhysicalConfig:
    carrier_freq_hz: float = 5.9e9
    bandwidth_hz: float = 1.0e7
    n_blocks: int = 20
    noise_density_dbm_hz: float = -174.0
    feedback_delay_s: float = 5e-4
    tx_power_dbm: float = 23.0
    model_bits: float = 4.38e6
    shadowing_sigma_db: float = 3.0
    min_distance_m: float = 1.0


@dataclass
class GeometryConfig:
    road_length_m: float = 2000.0
    lane_count: int = 6
    lane_width_m: float = 4.0
    rsu_spacing_m: float = 100.0


@dataclass
class TrafficConfig:
    arrival_rate_per_lane: float = 0.2  # vehicles/s/lane
    speed_min_kmh: float = 60.0
    speed_max_kmh: float = 100.0


@dataclass
class OptimizationConfig:
    alpha: float = 0.4  # weight between inclusion cost (1) and round-time pressure (0)
    u_min: float = 0.05
    round_time_cap_s: float = 60.0


@dataclass
class LearningConfig:
    num_classes: int = 10
    feature_dim: int = 20
    class_separation: float = 3.0
    partitioning: str = "iid"  # iid | noniid
    samples_per_class: int = 15  # iid: per class per vehicle
    noniid_min_samples: int = 75
    noniid_max_samples: int = 225
    noniid_max_classes: int = 3
    local_epochs: int = 5
    batch_size: int = 32
    momentum: float = 0.9
    prox_mu: float = 0.0025
    lr_base: float = 0.1
    lr_decay_rounds: int = 25
    test_samples_per_class: int = 100
    aggregation: str = "verbatim"  # verbatim | anchored


@dataclass
class RunConfig:
    rounds: int = 200
    seed: int = 1
    seeds: tuple = ()  # batch seeds; empty means single run with `seed`
    scheduler: str = "vrvfl"  # vrvfl | scheme1 | scheme2
    out_dir: str = "out"
    compare_alphas: tuple = (0.4,)


_SECTIONS = {
    "physical": PhysicalConfig,
    "geometry": GeometryConfig,
    "traffic": TrafficConfig,
    "optimization": OptimizationConfig,
    "learning": LearningConfig,
    "run": RunConfig,
}


@dataclass
class SimConfig:
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    optimization: OptimizationConfig = field(default_factory=OptimizationConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    run: RunConfig = field(default_factory=RunConfig)

    # -- derived linear-unit quantities -------------------------------------
    @property
    def noise_density_w_hz(self):
        return 10.0 ** (self.physical.noise_density_dbm_hz / 10.0) * 1e-3

    @property
    def tx_power_w(self):
        return 10.0 ** (self.physical.tx_power_dbm / 10.0) * 1e-3

    @property
    def block_bandwidth_hz(self):
        return self.physical.bandwidth_hz / self.physical.n_blocks

    @property
    def speed_min_mps(self):
        return self.traffic.speed_min_kmh / 3.6

    @property
    def speed_max_mps(self):
        return self.traffic.speed_max_kmh / 3.6

    def validate(self):
        # an infinite arrival rate would stall the arrival process and an
        # infinite cap would pass every bound below
        for section in _SECTIONS:
            for name, value in vars(getattr(self, section)).items():
                if _FIELD_TYPES[(section, name)] is float and not math.isfinite(value):
                    raise ConfigError(f"{section}.{name} must be finite, got {value!r}")
        p, g, t, o, l, r = (self.physical, self.geometry, self.traffic,
                            self.optimization, self.learning, self.run)
        checks = [
            (p.carrier_freq_hz > 0, "physical.carrier_freq_hz must be > 0"),
            (p.bandwidth_hz > 0, "physical.bandwidth_hz must be > 0"),
            (p.n_blocks >= 1, "physical.n_blocks must be >= 1"),
            # a zero delay gives epsilon = J0(0) = 1: no estimation error, which
            # the outage model divides by (see the correlation check below)
            (p.feedback_delay_s > 0, "physical.feedback_delay_s must be > 0"),
            (p.model_bits > 0, "physical.model_bits must be > 0"),
            (p.min_distance_m > 0, "physical.min_distance_m must be > 0"),
            (p.shadowing_sigma_db >= 0, "physical.shadowing_sigma_db must be >= 0"),
            (g.road_length_m > 0, "geometry.road_length_m must be > 0"),
            (g.lane_count >= 1, "geometry.lane_count must be >= 1"),
            (g.lane_width_m > 0, "geometry.lane_width_m must be > 0"),
            (0 < g.rsu_spacing_m <= g.road_length_m,
             "geometry.rsu_spacing_m must lie in (0, road_length_m]"),
            (t.arrival_rate_per_lane >= 0, "traffic.arrival_rate_per_lane must be >= 0"),
            (0 < t.speed_min_kmh <= t.speed_max_kmh,
             "traffic speeds must satisfy 0 < speed_min_kmh <= speed_max_kmh"),
            (0.0 <= o.alpha <= 1.0, "optimization.alpha must lie in [0, 1]"),
            (0.0 < o.u_min <= 1.0, "optimization.u_min must lie in (0, 1]"),
            (o.round_time_cap_s > 0, "optimization.round_time_cap_s must be > 0"),
            (l.num_classes >= 2, "learning.num_classes must be >= 2"),
            (l.feature_dim >= l.num_classes,
             "learning.feature_dim must be >= num_classes (class means use one axis each)"),
            (l.class_separation > 0, "learning.class_separation must be > 0"),
            (l.partitioning in ("iid", "noniid"),
             "learning.partitioning must be 'iid' or 'noniid'"),
            (l.samples_per_class >= 1, "learning.samples_per_class must be >= 1"),
            (1 <= l.noniid_min_samples <= l.noniid_max_samples,
             "learning non-iid sample bounds must satisfy 1 <= min <= max"),
            (1 <= l.noniid_max_classes <= l.num_classes,
             "learning.noniid_max_classes must lie in [1, num_classes]"),
            (l.noniid_min_samples >= l.noniid_max_classes,
             "learning.noniid_min_samples must cover at least one sample per drawn class"),
            (l.local_epochs >= 0, "learning.local_epochs must be >= 0"),
            (l.batch_size >= 1, "learning.batch_size must be >= 1"),
            (0.0 <= l.momentum < 1.0, "learning.momentum must lie in [0, 1)"),
            (l.prox_mu >= 0, "learning.prox_mu must be >= 0"),
            (l.lr_base > 0, "learning.lr_base must be > 0"),
            (l.lr_decay_rounds >= 1, "learning.lr_decay_rounds must be >= 1"),
            (l.test_samples_per_class >= 1, "learning.test_samples_per_class must be >= 1"),
            (l.aggregation in ("verbatim", "anchored"),
             "learning.aggregation must be 'verbatim' or 'anchored'"),
            (r.rounds >= 0, "run.rounds must be >= 0"),
            # numpy seeds its generators from non-negative integers only
            (r.seed >= 0, "run.seed must be >= 0"),
            (all(float(s).is_integer() for s in r.seeds), "run.seeds items must be integers"),
            (all(s >= 0 for s in r.seeds), "run.seeds items must be >= 0"),
            (all(0.0 <= a <= 1.0 for a in r.compare_alphas),
             "run.compare_alphas items must lie in [0, 1]"),
            (r.scheduler in ("vrvfl", "scheme1", "scheme2"),
             "run.scheduler must be one of vrvfl, scheme1, scheme2"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        # the slowest vehicle has the best CSI; once its correlation rounds to 1
        # the estimation error vanishes as above
        eps = temporal_correlation(self.speed_min_mps, p.carrier_freq_hz, p.feedback_delay_s)
        if not eps * eps < 1.0:
            raise ConfigError("physical.feedback_delay_s is too short: the CSI correlation "
                              "of the slowest vehicle rounds to 1")
        return self


def _coerce(raw, py_type, key):
    raw = raw.strip()
    try:
        if py_type is float:
            return float(raw)
        if py_type is int:
            return int(raw)
        if py_type is tuple:
            if raw == "":
                return ()
            parts = [s.strip() for s in raw.split(",") if s.strip() != ""]
            vals = []
            for s in parts:
                v = float(s)
                vals.append(int(v) if v == int(v) and "." not in s and "e" not in s.lower() else v)
            return tuple(vals)
        if py_type is str:
            return raw
    except (ValueError, OverflowError) as e:  # int(inf) overflows
        raise ConfigError(f"cannot parse value for {key}: {e}") from None
    raise ConfigError(f"unsupported type for {key}")


def set_key(cfg: SimConfig, dotted_key: str, raw_value: str):
    """Assign one dotted key, coercing the string value to the field's type."""
    if "." not in dotted_key:
        raise ConfigError(f"unknown key '{dotted_key}' (expected section.field)")
    section, name = dotted_key.split(".", 1)
    if section not in _SECTIONS:
        raise ConfigError(f"unknown key '{dotted_key}' (no section '{section}')")
    sub = getattr(cfg, section)
    if (section, name) not in _FIELD_TYPES:
        raise ConfigError(f"unknown key '{dotted_key}' (no field '{name}' in section '{section}')")
    setattr(sub, name, _coerce(raw_value, _FIELD_TYPES[(section, name)], dotted_key))


# dataclass field .type is a string under `from __future__ import annotations`;
# resolve the concrete types once
_FIELD_TYPES = {}
for _sec, _cls in _SECTIONS.items():
    for _f in fields(_cls):
        _t = _f.type
        if isinstance(_t, str):
            _t = {"float": float, "int": int, "str": str, "tuple": tuple}[_t]
        _FIELD_TYPES[(_sec, _f.name)] = _t


def parse_config(path=None, overrides=None, text=None):
    """Config from an optional file plus optional override pairs; defaults fill the rest."""
    cfg = SimConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    if text is not None:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
            key, _, raw = line.partition("=")
            set_key(cfg, key.strip(), raw)
    for key, raw in (overrides or {}).items():
        set_key(cfg, key, str(raw))
    return cfg.validate()


def serialize_config(cfg: SimConfig):
    """Text round-trip of a config; parse(serialize(cfg)) compares equal to cfg."""
    lines = []
    for section, cls in _SECTIONS.items():
        sub = getattr(cfg, section)
        for f in fields(cls):
            val = getattr(sub, f.name)
            if isinstance(val, tuple):
                val = ",".join(repr(v) for v in val)
            elif not isinstance(val, str):
                val = repr(val)
            lines.append(f"{section}.{f.name} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: SimConfig):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def iter_keys():
    """All (dotted_key, default, type) tuples, for CLI help and docs."""
    out = []
    defaults = SimConfig()
    for section, cls in _SECTIONS.items():
        sub = getattr(defaults, section)
        for f in fields(cls):
            out.append((f"{section}.{f.name}", getattr(sub, f.name),
                        _FIELD_TYPES[(section, f.name)]))
    return out
