"""Scenario parameters, unit conversions, and SINR decode thresholds.

A validated ``ScenarioConfig`` is the single source of truth shared by the
closed-form model and the Monte Carlo engine.  All radio quantities are given
in the customary dB/dBm units and cached in linear units at construction;
everything downstream works in linear units only.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "INT_FIELDS",
    "validate",
    "sinr_threshold",
    "phase1_threshold",
    "phase2_threshold",
    "full_slot_cell_threshold",
    "full_slot_d2d_threshold",
    "dbm_to_watts",
    "db_to_linear",
    "parse_config",
    "format_config",
    "read_config",
]


class ConfigError(ValueError):
    """One or more scenario invariants are violated.

    ``problems`` lists every violation, each prefixed with the offending
    field name(s), so a bad config is reported in full rather than one
    failure at a time.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def db_to_linear(value_db: float) -> float:
    """Convert a gain from dB to a linear factor; inf past the float range."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power from dBm to watts; inf past the float range."""
    return db_to_linear(value_dbm) * 1e-3


# dB or dBm field: (its cached linear attribute, the conversion)
_LINEAR_FIELDS = {
    "tx_power_gbs_dbm": ("tx_power_gbs_w", dbm_to_watts),
    "tx_power_uav_dbm": ("tx_power_uav_w", dbm_to_watts),
    "ref_gain_cell_db": ("ref_gain_cell", db_to_linear),
    "ref_gain_d2d_db": ("ref_gain_d2d", db_to_linear),
    "noise_phase1_dbm": ("noise_phase1_w", dbm_to_watts),
    "intf_noise_phase2_dbm": ("intf_noise_phase2_w", dbm_to_watts),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """All geometry, radio, and protocol parameters of one scenario.

    Unit conventions are carried in the field names (``_m`` metres, ``_db``
    decibel gain, ``_dbm`` decibel-milliwatt power, ``_hz`` hertz, ``_s``
    seconds).  ``message_bits`` is a real number so a target SINR threshold
    can be matched exactly.  Instances are immutable and safe to share
    across parallel workers.
    """

    n_uavs: int
    m_available: int
    m_occupied: int
    coverage_radius_m: float
    swarm_radius_m: float
    swarm_altitude_m: float
    min_separation_m: float
    pathloss_exp_cell: float
    pathloss_exp_d2d: float
    rician_k: float
    ref_gain_cell_db: float
    ref_gain_d2d_db: float
    tx_power_gbs_dbm: float
    tx_power_uav_dbm: float
    bandwidth_cell_hz: float
    bandwidth_d2d_hz: float
    sinr_gap_cell: float
    sinr_gap_d2d: float
    intf_noise_phase2_dbm: float
    message_bits: float
    tau_total_s: float
    tau_phase1_s: float
    # cellular-stage AWGN is kept in the simulation but should stay far below
    # the co-channel interference; the closed-form model drops it entirely
    noise_phase1_dbm: float = -100.0

    def __post_init__(self):
        # linear-unit cache: converted exactly once per instance
        for source, (target, convert) in _LINEAR_FIELDS.items():
            object.__setattr__(self, target, convert(getattr(self, source)))

    @property
    def m_total(self) -> int:
        return self.m_available + self.m_occupied

    @property
    def tau_phase2_s(self) -> float:
        return self.tau_total_s - self.tau_phase1_s


# the fields annotated int; every other field is a float
INT_FIELDS = frozenset(k for k, t in typing.get_type_hints(ScenarioConfig).items() if t is int)


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant of ``config`` and return it unchanged.

    Raises ``ConfigError`` listing all violations at once.  Packing
    infeasibility (the hard-core sampler cannot possibly place ``n_uavs``
    disks of radius ``min_separation_m / 2`` inside the swarm) is reported
    as its own violation, and so is a non-finite value, or a dB or dBm value
    whose linear form leaves the float range (above about 3080 dB it
    overflows to inf, below about -3200 dB it underflows to 0).
    """
    p = []
    for f in fields(config):
        value = getattr(config, f.name)
        if not math.isfinite(value):
            p.append(f"{f.name}: must be finite, got {value}")
        elif f.name in _LINEAR_FIELDS:
            linear = getattr(config, _LINEAR_FIELDS[f.name][0])
            if not 0.0 < linear < math.inf:
                p.append(f"{f.name}: {value} is out of float range in linear units")
    if config.n_uavs < 1:
        p.append(f"n_uavs: must be >= 1, got {config.n_uavs}")
    if config.m_available < 1:
        p.append(f"m_available: must be >= 1, got {config.m_available}")
    if config.m_occupied < 0:
        p.append(f"m_occupied: must be >= 0, got {config.m_occupied}")
    if config.coverage_radius_m <= 0:
        p.append(f"coverage_radius_m: must be > 0, got {config.coverage_radius_m}")
    if config.swarm_radius_m <= 0:
        p.append(f"swarm_radius_m: must be > 0, got {config.swarm_radius_m}")
    if config.swarm_altitude_m <= 0:
        p.append(f"swarm_altitude_m: must be > 0, got {config.swarm_altitude_m}")
    if config.min_separation_m < 0:
        p.append(f"min_separation_m: must be >= 0, got {config.min_separation_m}")
    elif config.min_separation_m >= 2.0 * config.swarm_radius_m:
        p.append(
            "min_separation_m: must be < 2 * swarm_radius_m "
            f"({config.min_separation_m} >= {2.0 * config.swarm_radius_m})"
        )
    if config.pathloss_exp_cell < 2.0:
        p.append(f"pathloss_exp_cell: must be >= 2, got {config.pathloss_exp_cell}")
    if config.pathloss_exp_d2d < 2.0:
        p.append(f"pathloss_exp_d2d: must be >= 2, got {config.pathloss_exp_d2d}")
    if config.rician_k < 0:
        p.append(f"rician_k: must be >= 0, got {config.rician_k}")
    if config.bandwidth_cell_hz <= 0:
        p.append(f"bandwidth_cell_hz: must be > 0, got {config.bandwidth_cell_hz}")
    if config.bandwidth_d2d_hz <= 0:
        p.append(f"bandwidth_d2d_hz: must be > 0, got {config.bandwidth_d2d_hz}")
    if not 0.0 < config.sinr_gap_cell <= 1.0:
        p.append(f"sinr_gap_cell: must be in (0, 1], got {config.sinr_gap_cell}")
    if not 0.0 < config.sinr_gap_d2d <= 1.0:
        p.append(f"sinr_gap_d2d: must be in (0, 1], got {config.sinr_gap_d2d}")
    if config.message_bits < 0:
        p.append(f"message_bits: must be >= 0, got {config.message_bits}")
    if config.tau_total_s <= 0:
        p.append(f"tau_total_s: must be > 0, got {config.tau_total_s}")
    if not 0.0 < config.tau_phase1_s < config.tau_total_s:
        p.append(
            "tau_phase1_s: must satisfy 0 < tau_phase1_s < tau_total_s, got "
            f"{config.tau_phase1_s} (tau_total_s={config.tau_total_s})"
        )
    if config.min_separation_m >= 0 and config.swarm_radius_m > 0:
        ratio = config.min_separation_m / (2.0 * config.swarm_radius_m)
        coverage = config.n_uavs * ratio * ratio
        if coverage > 1.0:
            p.append(
                "n_uavs/swarm_radius_m/min_separation_m: packing-infeasible geometry, "
                f"n_uavs * (min_separation_m / (2 swarm_radius_m))^2 = {coverage:g} exceeds 1"
            )
    if p:
        raise ConfigError(p)
    return config


def sinr_threshold(bits: float, duration_s: float, bandwidth_hz: float, gap: float) -> float:
    """Minimum linear SINR that decodes ``bits`` within ``duration_s``.

    Inverts the gapped capacity constraint
    ``duration * bandwidth * log2(1 + gap * sinr) >= bits``.
    """
    if duration_s <= 0:
        raise ConfigError(f"duration_s: must be > 0, got {duration_s}")
    if bandwidth_hz <= 0:
        raise ConfigError(f"bandwidth_hz: must be > 0, got {bandwidth_hz}")
    if not 0.0 < gap <= 1.0:
        raise ConfigError(f"gap: must be in (0, 1], got {gap}")
    if bits < 0:
        raise ConfigError(f"bits: must be >= 0, got {bits}")
    capacity = duration_s * bandwidth_hz  # underflowed to 0, no finite SINR carries bits
    ratio = bits / capacity if capacity > 0 else (math.inf if bits > 0 else 0.0)
    try:
        threshold = math.expm1(ratio * math.log(2.0)) / gap
    except OverflowError:
        threshold = math.inf
    if not math.isfinite(threshold):
        raise ConfigError(
            f"bits/(duration_s*bandwidth_hz) = {ratio:g}: the decode threshold "
            "(2^x - 1)/gap overflows the float range"
        )
    return threshold


def phase1_threshold(config: ScenarioConfig) -> float:
    """Decode threshold for the cellular downlink stage of the split slot."""
    return sinr_threshold(
        config.message_bits, config.tau_phase1_s, config.bandwidth_cell_hz, config.sinr_gap_cell
    )


def phase2_threshold(config: ScenarioConfig) -> float:
    """Decode threshold for the D2D relay stage of the split slot."""
    return sinr_threshold(
        config.message_bits, config.tau_phase2_s, config.bandwidth_d2d_hz, config.sinr_gap_d2d
    )


def full_slot_cell_threshold(config: ScenarioConfig) -> float:
    """Cellular decode threshold when the whole slot is used (no relaying)."""
    return sinr_threshold(
        config.message_bits, config.tau_total_s, config.bandwidth_cell_hz, config.sinr_gap_cell
    )


def full_slot_d2d_threshold(config: ScenarioConfig) -> float:
    """D2D decode threshold for one relay round spanning a whole slot."""
    return sinr_threshold(
        config.message_bits, config.tau_total_s, config.bandwidth_d2d_hz, config.sinr_gap_d2d
    )


# --- config file round-trip ------------------------------------------------
#
# Flat "key = value" lines keyed exactly by the field names above.  Floats
# are written with repr() so that write -> read is bit-exact, which sweep
# tooling relies on.

_FIELD_NAMES = [f.name for f in fields(ScenarioConfig)]
_REQUIRED = [f.name for f in fields(ScenarioConfig) if f.default is MISSING]


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat key=value config format; unknown keys are errors."""
    problems = []
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_NAMES:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = int(val) if key in INT_FIELDS else float(val)
        except ValueError:
            problems.append(f"line {lineno}: {key}: cannot parse {val!r}")
    for name in _REQUIRED:
        if name not in values:
            problems.append(f"{name}: missing")
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**values)


def format_config(config: ScenarioConfig) -> str:
    """Serialize a config so that ``parse_config`` round-trips it exactly."""
    lines = []
    for f in fields(ScenarioConfig):
        v = getattr(config, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def read_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

