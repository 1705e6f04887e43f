"""Scenario parameters, unit conversions, and SINR decode thresholds.

A validated ``ScenarioConfig`` is the single source of truth shared by the
closed-form model and the Monte Carlo engine.  Each field declares its own
rule: the range of its values, and for a radio quantity given in the
customary dB or dBm units, the attribute that caches it in linear units at
construction; everything downstream works in linear units only.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "INT_FIELDS",
    "validate",
    "sinr_threshold",
    "stage_thresholds",
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


def _range(op, low, high=None):
    """Field metadata: values ``op`` (">=" or ">") ``low``, and at most ``high`` if given."""
    text = f"{op} {low}" if high is None else f"in {'[' if op == '>=' else '('}{low}, {high}]"
    return {"range": (op == ">=", low, high, text)}


def _linear(attribute, convert):
    """Field metadata: a dB or dBm value that ``convert`` caches in linear units."""
    return {"linear": (attribute, convert)}


def _range_problem(name, value, rule):
    """``name: must be <range>, got <value>`` when ``value`` is outside ``rule``, else None.

    A NaN passes a lower bound alone (``validate`` reports it as non-finite)
    but fails an upper one.
    """
    closed, low, high, text = rule
    if (value < low if closed else value <= low) or (high is not None and not value <= high):
        return f"{name}: must be {text}, got {value}"
    return None


@dataclass(frozen=True)
class ScenarioConfig:
    """All geometry, radio, and protocol parameters of one scenario.

    Unit conventions are carried in the field names (``_m`` metres, ``_db``
    decibel gain, ``_dbm`` decibel-milliwatt power, ``_hz`` hertz, ``_s``
    seconds).  ``message_bits`` is a real number so a target SINR threshold
    can be matched exactly.  Instances are immutable and safe to share
    across parallel workers.
    """

    n_uavs: int = field(metadata=_range(">=", 1))
    m_available: int = field(metadata=_range(">=", 1))
    m_occupied: int = field(metadata=_range(">=", 0))
    coverage_radius_m: float = field(metadata=_range(">", 0))
    swarm_radius_m: float = field(metadata=_range(">", 0))
    swarm_altitude_m: float = field(metadata=_range(">", 0))
    min_separation_m: float = field(metadata=_range(">=", 0))  # and < 2 swarm_radius_m
    pathloss_exp_cell: float = field(metadata=_range(">=", 2))
    pathloss_exp_d2d: float = field(metadata=_range(">=", 2))
    rician_k: float = field(metadata=_range(">=", 0))
    ref_gain_cell_db: float = field(metadata=_linear("ref_gain_cell", db_to_linear))
    ref_gain_d2d_db: float = field(metadata=_linear("ref_gain_d2d", db_to_linear))
    tx_power_gbs_dbm: float = field(metadata=_linear("tx_power_gbs_w", dbm_to_watts))
    tx_power_uav_dbm: float = field(metadata=_linear("tx_power_uav_w", dbm_to_watts))
    bandwidth_cell_hz: float = field(metadata=_range(">", 0))
    bandwidth_d2d_hz: float = field(metadata=_range(">", 0))
    sinr_gap_cell: float = field(metadata=_range(">", 0, 1))
    sinr_gap_d2d: float = field(metadata=_range(">", 0, 1))
    intf_noise_phase2_dbm: float = field(metadata=_linear("intf_noise_phase2_w", dbm_to_watts))
    message_bits: float = field(metadata=_range(">=", 0))
    tau_total_s: float = field(metadata=_range(">", 0))
    tau_phase1_s: float  # 0 < tau_phase1_s < tau_total_s
    # cellular-stage AWGN is kept in the simulation but should stay far below
    # the co-channel interference; the closed-form model drops it entirely
    noise_phase1_dbm: float = field(default=-100.0,
                                    metadata=_linear("noise_phase1_w", dbm_to_watts))

    def __post_init__(self):
        # linear-unit cache: converted exactly once per instance
        for source, (target, convert) in _UNITS.items():
            object.__setattr__(self, target, convert(getattr(self, source)))

    @property
    def m_total(self) -> int:
        return self.m_available + self.m_occupied

    @property
    def tau_phase2_s(self) -> float:
        return self.tau_total_s - self.tau_phase1_s


# the declarations, read once: the fields annotated int (every other field is
# a float), the required ones, each declared range and each dB or dBm unit
INT_FIELDS = frozenset(k for k, t in typing.get_type_hints(ScenarioConfig).items() if t is int)
_FIELD_NAMES = [f.name for f in fields(ScenarioConfig)]
_REQUIRED = [f.name for f in fields(ScenarioConfig) if f.default is MISSING]
_RANGES = {f.name: f.metadata["range"] for f in fields(ScenarioConfig) if "range" in f.metadata}
_UNITS = {f.name: f.metadata["linear"] for f in fields(ScenarioConfig) if "linear" in f.metadata}


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant of ``config`` and return it unchanged.

    Raises ``ConfigError`` listing all violations at once: each value that
    is not finite, each dB or dBm value whose linear form leaves the float
    range (above about 3080 dB it overflows to inf, below about -3200 dB it
    underflows to 0), and each value outside the range its field declares,
    in the one range message that ``sinr_threshold`` also uses.  The
    cross-field rules follow: ``min_separation_m`` below the swarm diameter,
    ``tau_phase1_s`` inside the slot, and packing infeasibility (the
    hard-core sampler cannot possibly place ``n_uavs`` disks of radius
    ``min_separation_m / 2`` inside the swarm).
    """
    p = []
    for name in _FIELD_NAMES:
        value = getattr(config, name)
        if not math.isfinite(value):
            p.append(f"{name}: must be finite, got {value}")
        elif name in _UNITS and not 0.0 < getattr(config, _UNITS[name][0]) < math.inf:
            p.append(f"{name}: {value} is out of float range in linear units")
    for name, rule in _RANGES.items():
        problem = _range_problem(name, getattr(config, name), rule)
        if problem:
            p.append(problem)
        # the separation's bound by the swarm diameter is checked once its range
        # holds, and listed in its place
        elif name == "min_separation_m" and config.min_separation_m >= 2.0 * config.swarm_radius_m:
            p.append(
                "min_separation_m: must be < 2 * swarm_radius_m "
                f"({config.min_separation_m} >= {2.0 * config.swarm_radius_m})"
            )
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
    for name, value, like in (("duration_s", duration_s, "tau_total_s"),
                              ("bandwidth_hz", bandwidth_hz, "bandwidth_cell_hz"),
                              ("gap", gap, "sinr_gap_cell"), ("bits", bits, "message_bits")):
        problem = _range_problem(name, value, _RANGES[like])
        if problem:
            raise ConfigError(problem)
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


def stage_thresholds(config: ScenarioConfig, whole_slot: bool = False,
                     relays: bool = True) -> tuple[float, float | None]:
    """The (cellular, D2D) decode thresholds of a slot's two stages.

    The split slot gives the cellular stage ``tau_phase1_s`` and the D2D
    stage the rest; with ``whole_slot`` each stage has all of
    ``tau_total_s``.  Without ``relays`` the D2D threshold is None: past its
    rate cap an unused one would raise ``ConfigError``.
    """
    cell_s, d2d_s = ((config.tau_total_s, config.tau_total_s) if whole_slot else
                     (config.tau_phase1_s, config.tau_phase2_s))
    bits = config.message_bits
    cell = sinr_threshold(bits, cell_s, config.bandwidth_cell_hz, config.sinr_gap_cell)
    if not relays:
        return cell, None
    return cell, sinr_threshold(bits, d2d_s, config.bandwidth_d2d_hz, config.sinr_gap_d2d)


# --- config file round-trip ------------------------------------------------
#
# Flat "key = value" lines keyed exactly by the field names above.  Floats
# are written with repr() so that write -> read is bit-exact, which sweep
# tooling relies on.

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

