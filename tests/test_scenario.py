import math

import pytest

from swarmrel import scenario
from swarmrel.scenario import ConfigError

from conftest import make_config, write_config


def test_baseline_config_is_valid():
    cfg = make_config()
    assert cfg.tau_phase2_s == pytest.approx(0.5e-3)
    assert cfg.m_total == 16


def test_tau_split_boundary_rejected():
    with pytest.raises(ConfigError, match="tau_phase1_s"):
        make_config(tau_phase1_s=1e-3)  # equal to tau_total_s


def test_packing_infeasible_rejected():
    # 1000 * (5/2)^2 = 6250 exceeds 30^2 = 900
    with pytest.raises(ConfigError, match="packing-infeasible"):
        make_config(n_uavs=1000)


def test_all_violations_reported_at_once():
    with pytest.raises(ConfigError) as err:
        make_config(n_uavs=0, rician_k=-1.0, sinr_gap_cell=2.0)
    text = str(err.value)
    assert "n_uavs" in text and "rician_k" in text and "sinr_gap_cell" in text
    # and every other range check, each naming its field
    bad = dict(m_available=0, m_occupied=-1, swarm_radius_m=0.0, swarm_altitude_m=0.0,
               min_separation_m=-1.0, pathloss_exp_cell=1.5, pathloss_exp_d2d=1.5,
               bandwidth_cell_hz=0.0, bandwidth_d2d_hz=0.0, sinr_gap_d2d=0.0,
               message_bits=-1.0, tau_total_s=0.0)
    with pytest.raises(ConfigError) as err:
        make_config(**bad)
    problems = err.value.problems
    for field in bad:
        assert any(p.startswith(f"{field}: must") for p in problems), (field, problems)


# each declared range: its bound, whether the bound is allowed, a value past
# it, and the range as the message states it
DECLARED_RANGES = [
    ("n_uavs", 1, True, 0, ">= 1"),
    ("m_available", 1, True, 0, ">= 1"),
    ("m_occupied", 0, True, -1, ">= 0"),
    ("coverage_radius_m", 0.0, False, -5e-324, "> 0"),
    ("swarm_radius_m", 0.0, False, -5e-324, "> 0"),
    ("swarm_altitude_m", 0.0, False, -5e-324, "> 0"),
    ("min_separation_m", 0.0, True, -5e-324, ">= 0"),
    ("pathloss_exp_cell", 2.0, True, math.nextafter(2.0, 0.0), ">= 2"),
    ("pathloss_exp_d2d", 2.0, True, math.nextafter(2.0, 0.0), ">= 2"),
    ("rician_k", 0.0, True, -5e-324, ">= 0"),
    ("bandwidth_cell_hz", 0.0, False, -5e-324, "> 0"),
    ("bandwidth_d2d_hz", 0.0, False, -5e-324, "> 0"),
    ("sinr_gap_cell", 0.0, False, -5e-324, "in (0, 1]"),
    ("sinr_gap_cell", 1.0, True, math.nextafter(1.0, 2.0), "in (0, 1]"),
    ("sinr_gap_d2d", 0.0, False, -5e-324, "in (0, 1]"),
    ("sinr_gap_d2d", 1.0, True, math.nextafter(1.0, 2.0), "in (0, 1]"),
    ("message_bits", 0.0, True, -5e-324, ">= 0"),
    ("tau_total_s", 0.0, False, -5e-324, "> 0"),
]


@pytest.mark.parametrize("field, bound, allowed, past, rule", DECLARED_RANGES)
def test_declared_range_at_its_bound(field, bound, allowed, past, rule):
    if allowed:
        assert getattr(make_config(**{field: bound}), field) == bound
    for value in (past,) if allowed else (bound, past):
        with pytest.raises(ConfigError) as err:
            make_config(**{field: value})
        assert f"{field}: must be {rule}, got {value}" in err.value.problems


@pytest.mark.parametrize("argument, bound, allowed, past, rule", [
    ("duration_s", 0.0, False, -5e-324, "> 0"),
    ("bandwidth_hz", 0.0, False, -5e-324, "> 0"),
    ("gap", 0.0, False, -5e-324, "in (0, 1]"),
    ("gap", 1.0, True, math.nextafter(1.0, 2.0), "in (0, 1]"),
    ("bits", 0.0, True, -5e-324, ">= 0"),
])
def test_sinr_threshold_arguments_share_the_range_message(argument, bound, allowed, past, rule):
    reference = dict(bits=40.0, duration_s=0.5e-3, bandwidth_hz=200e3, gap=5 / 6)
    if allowed:
        assert scenario.sinr_threshold(**{**reference, argument: bound}) >= 0.0
    for value in (past,) if allowed else (bound, past):
        with pytest.raises(ConfigError) as err:
            scenario.sinr_threshold(**{**reference, argument: value})
        assert err.value.problems == [f"{argument}: must be {rule}, got {value}"]


def test_non_finite_values_rejected():
    # nan passes every comparison, and inf slips past the upper bounds
    for field, value in (("message_bits", math.nan), ("tau_total_s", math.inf),
                         ("coverage_radius_m", -math.inf), ("rician_k", math.nan),
                         ("noise_phase1_dbm", -math.inf)):
        with pytest.raises(ConfigError, match=f"{field}: must be finite"):
            make_config(**{field: value})


def test_db_values_out_of_linear_float_range_rejected():
    # 5000 dBm is 1e497 W: the linear cache holds inf and validate names the
    # field; -5000 dB underflows to a zero gain
    assert scenario.dbm_to_watts(5000.0) == math.inf
    assert scenario.db_to_linear(5000.0) == math.inf
    for field, value in (("tx_power_gbs_dbm", 5000.0), ("ref_gain_d2d_db", 5000.0),
                         ("intf_noise_phase2_dbm", 5000.0), ("tx_power_uav_dbm", -5000.0)):
        with pytest.raises(ConfigError, match=f"{field}: {value} is out of float range"):
            make_config(**{field: value})


def test_conversions():
    assert scenario.dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert scenario.dbm_to_watts(23.0) == pytest.approx(0.19952623149688797)
    assert scenario.db_to_linear(-40.0) == pytest.approx(1e-4)


def test_linear_cache_matches_conversions():
    cfg = make_config()
    assert cfg.tx_power_gbs_w == scenario.dbm_to_watts(43.0)
    assert cfg.ref_gain_d2d == scenario.db_to_linear(-40.0)
    assert cfg.noise_phase1_w == scenario.dbm_to_watts(-100.0)


def test_sinr_threshold_values():
    # 40 bits over 0.5 ms x 200 kHz with a 5/6 gap
    theta = scenario.sinr_threshold(40.0, 0.5e-3, 200e3, 5.0 / 6.0)
    assert theta == pytest.approx((2**0.4 - 1) * 1.2, rel=1e-12)
    assert theta == pytest.approx(0.38341, abs=5e-6)
    theta4 = scenario.sinr_threshold(4.0, 0.5e-3, 200e3, 5.0 / 6.0)
    assert theta4 == pytest.approx(0.033737, abs=5e-7)
    assert scenario.sinr_threshold(0.0, 0.5e-3, 200e3, 5.0 / 6.0) == 0.0


def test_sinr_threshold_monotonicity():
    bits = [1.0, 5.0, 20.0, 80.0, 200.0]
    thetas = [scenario.sinr_threshold(b, 0.5e-3, 200e3, 0.9) for b in bits]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    taus = [0.1e-3, 0.2e-3, 0.5e-3, 0.9e-3]
    thetas = [scenario.sinr_threshold(40.0, t, 200e3, 0.9) for t in taus]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_sinr_threshold_overflow_guard():
    with pytest.raises(ConfigError, match="overflow"):
        scenario.sinr_threshold(1e9, 0.5e-3, 200e3, 0.9)
    # at the reference split 2^x - 1 is finite for x = bits/100 < 1024, but
    # the 5/6 gap pushes the threshold past the float range from 102374 bits on
    assert scenario.sinr_threshold(102373.0, 0.5e-3, 200e3, 5 / 6) == (
        math.expm1(102373.0 / (0.5e-3 * 200e3) * math.log(2.0)) / (5 / 6)
    ) < math.inf
    for bits in (102374.0, 102400.0):
        with pytest.raises(ConfigError, match="overflow"):
            scenario.sinr_threshold(bits, 0.5e-3, 200e3, 5 / 6)
    # a stage capacity duration * bandwidth that underflows to 0 carries no
    # bits at any finite threshold, and carries 0 bits at threshold 0
    for duration, bandwidth in ((5e-200, 1e-200), (5e-324, 0.5)):
        assert duration * bandwidth == 0.0
        with pytest.raises(ConfigError, match="overflow"):
            scenario.sinr_threshold(40.0, duration, bandwidth, 5 / 6)
        assert scenario.sinr_threshold(0.0, duration, bandwidth, 5 / 6) == 0.0


def test_phase_thresholds_use_their_slices():
    cfg = make_config(tau_phase1_s=0.3e-3)
    split = (scenario.sinr_threshold(40.0, 0.3e-3, 200e3, 5 / 6),
             scenario.sinr_threshold(40.0, 0.7e-3, 200e3, 5 / 6))
    assert scenario.stage_thresholds(cfg) == split
    full = scenario.sinr_threshold(40.0, 1e-3, 200e3, 5 / 6)
    assert scenario.stage_thresholds(cfg, whole_slot=True) == (full, full)
    assert scenario.stage_thresholds(cfg, relays=False)[1] is None


def test_config_roundtrip_bit_exact():
    cfg = make_config(message_bits=27.301849440641586, tau_phase1_s=1.0 / 3000.0)
    text = scenario.format_config(cfg)
    again = scenario.parse_config(text)
    assert again == cfg
    # and a second pass through text is byte-identical
    assert scenario.format_config(again) == text


def test_config_file_io(tmp_path):
    cfg = make_config()
    path = tmp_path / "case.cfg"
    write_config(cfg, path)
    assert scenario.read_config(path) == cfg


def test_unknown_and_missing_keys_rejected():
    cfg = make_config()
    text = scenario.format_config(cfg)
    with pytest.raises(ConfigError, match="unknown key"):
        scenario.parse_config(text + "bogus_key = 1\n")
    clipped = "\n".join(line for line in text.splitlines() if not line.startswith("n_uavs"))
    with pytest.raises(ConfigError, match="n_uavs: missing"):
        scenario.parse_config(clipped)
    with pytest.raises(ConfigError, match="duplicate"):
        scenario.parse_config(text + "n_uavs = 4\n")
    with pytest.raises(ConfigError, match="line 24: expected 'key = value', got 'n_uavs 4'"):
        scenario.parse_config(text + "n_uavs 4\n")
    with pytest.raises(ConfigError, match="line 1: n_uavs: cannot parse 'forty'"):
        scenario.parse_config(text.replace("n_uavs = 40", "n_uavs = forty"))


def test_comments_and_blanks_ignored():
    cfg = make_config()
    text = "# header\n\n" + scenario.format_config(cfg).replace(
        "n_uavs = 40", "n_uavs = 40  # swarm size"
    )
    assert scenario.parse_config(text) == cfg


def test_noise_default_applies():
    text = scenario.format_config(make_config())
    clipped = "\n".join(
        line for line in text.splitlines() if not line.startswith("noise_phase1_dbm")
    )
    cfg = scenario.parse_config(clipped)
    assert cfg.noise_phase1_dbm == -100.0
    assert math.isclose(cfg.noise_phase1_w, 1e-13)
