"""Every validated scenario analyzes to probabilities or to a documented error.

A config that passes ``scenario.validate`` must give plain finite floats,
with the probabilities in [0, 1], from ``analytic.reliability`` (``p_phase2``
is NaN exactly where no UAV is left to hear a relay), or fail
with ``ConfigError`` or ``NumericalError``; ``analyze`` on it exits 0, 2 or
3, never with a traceback, and so does a 5-trial ``simulate``.
"""

import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings, strategies as st

from swarmrel import analytic, cli, scenario
from swarmrel.specfun import NumericalError

from conftest import make_config, write_config

# an overflow on the way to a number is a fault even when the number is right
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# the Tricomi integrand overflowed at the first and underflowed at every
# quadrature node at the second before it was scaled at its peak
OVERFLOW = dict(n_uavs=100, m_available=7, m_occupied=16, rician_k=21.06, message_bits=95.18,
                tau_phase1_s=5.886e-4, swarm_altitude_m=1593.8, coverage_radius_m=486.9,
                pathloss_exp_cell=3.80)
UNDERFLOW = dict(n_uavs=1, m_available=8, m_occupied=1, rician_k=27.37, message_bits=79.08,
                 tau_phase1_s=1.1465e-5, swarm_altitude_m=1073.8, coverage_radius_m=735.3,
                 pathloss_exp_cell=3.643)
# a subnormal threshold, whose logs the head series could not take
SUBNORMAL_BITS = dict(n_uavs=1, m_available=1, m_occupied=1, rician_k=0.0, message_bits=5e-324,
                      tau_phase1_s=1e-6, swarm_altitude_m=10.0, coverage_radius_m=50.0,
                      pathloss_exp_cell=2.0)
# one ulp above exponent 2, a difference of powers in the distance moments
# cancelled and the fit failed
NEAR_TWO = dict(n_uavs=1, m_available=1, m_occupied=1, rician_k=0.0, message_bits=1.0,
                tau_phase1_s=0.0009846179120919837, swarm_altitude_m=40.0,
                coverage_radius_m=50.0, pathloss_exp_cell=2.0000000000000004)
# a Tricomi shape below 1 overflowed a power substitution s = w^(1/a)
SMALL_SHAPE = dict(n_uavs=1, m_available=1, m_occupied=1, rician_k=0.0, message_bits=1.0,
                   swarm_altitude_m=1.0)

# near the rate cap z is 1.08e-311, and the member stage's Tricomi peak s*
# underflowed to 0 before log(s*/a) was taken from the logs in hand
MEMBER_CAP = dict(n_uavs=14, m_available=44, m_occupied=34, coverage_radius_m=138017.8,
                  swarm_radius_m=53337.9, swarm_altitude_m=0.0013095, pathloss_exp_cell=3.1925,
                  pathloss_exp_d2d=3.8249, rician_k=0.012683, min_separation_m=2648.35,
                  message_bits=99561.77, tau_phase1_s=0.00050461)

# the reference swarm, for the examples above, which probe the cellular stage
SWARM = dict(swarm_radius_m=30.0, min_separation_m=5.0, pathloss_exp_d2d=2.0)

# tiny fitted shapes, whose head quadrature failed (exit 3) on the first,
# c = 4.2e-6, and where the 2F2 series of the ratio CDF passed its rounding
# budget with a CDF of -1.125 on the second, clamping p_head to 1
WIDE_CELL = dict(n_uavs=40, m_available=8, m_occupied=8, rician_k=4.0, message_bits=40.0,
                 tau_phase1_s=5e-4, swarm_altitude_m=300.0, coverage_radius_m=1e6,
                 pathloss_exp_cell=3.0, **SWARM)
SERIES_BELOW_ZERO = dict(n_uavs=2, m_available=60, m_occupied=52,
                         coverage_radius_m=48619.753351868945,
                         swarm_radius_m=0.0010788735723051472,
                         swarm_altitude_m=0.030249092943897566,
                         min_separation_m=3.430154198815739e-05,
                         pathloss_exp_cell=3.9672437346191574,
                         pathloss_exp_d2d=2.702221762737829, rician_k=0.06976944000850449,
                         message_bits=41.21685760985007, tau_phase1_s=0.0005338703322829722)

# at interference shape 3.7e-10 and z = 5.4e-182 the member stage's Tricomi
# quadrature took the width 1/sqrt(peak curvature) ~ 5e4, too coarse for the
# integrand's unit-scale fall past its peak, and its estimates did not
# settle; the wide D2D band keeps the relay stage's threshold in range, so
# analyze reaches the member stage
MEMBER_TINY_SHAPE = dict(n_uavs=97, m_available=49, m_occupied=58, rician_k=0.0011104,
                         message_bits=102079.0, tau_phase1_s=0.00089496,
                         coverage_radius_m=6045168.7, swarm_radius_m=105.62,
                         swarm_altitude_m=6.8931, min_separation_m=0.16062,
                         pathloss_exp_cell=2.8780, pathloss_exp_d2d=3.0188,
                         bandwidth_d2d_hz=1e7)

# huge fitted shapes under a high swarm over a sub-metre cell: at serving
# shape 5.94e31 and interference shape 4.17e10 the member stage's Tricomi
# integrand took power (softplus - peak softplus), whose rounding |power|
# magnified to ~7e-5 at the peak, and its estimates did not settle
MEMBER_HUGE_SHAPE = dict(n_uavs=66, m_available=19, m_occupied=3, rician_k=27808903520.996464,
                         message_bits=8536.472304476012, tau_phase1_s=0.0004213742226567006,
                         coverage_radius_m=0.021515167085429977,
                         swarm_radius_m=37977.54321083815, swarm_altitude_m=803009.5060873108,
                         min_separation_m=6611.041701098932,
                         pathloss_exp_cell=5.4582523280938595,
                         pathloss_exp_d2d=6.0912153395437345,
                         bandwidth_d2d_hz=3472001.9676043605)
# a head signal shape of 2.43e6, where the incomplete gamma series at z near
# a needs about sqrt(72 a) = 13,000 terms and stopped at a 10,000-term cap
HEAD_SERIES_CAP = dict(n_uavs=84, m_available=77, m_occupied=9, rician_k=15764.591869285456,
                       message_bits=801.0954998901221, tau_phase1_s=0.0004393169721086199,
                       coverage_radius_m=0.10358934575135287,
                       swarm_radius_m=375.10333915830535, swarm_altitude_m=981618.0020813628,
                       min_separation_m=57.879701814093245,
                       pathloss_exp_cell=2.833449138583676,
                       pathloss_exp_d2d=3.2208949699718437,
                       bandwidth_d2d_hz=1290592.818794501)

# a cellular stage capacity, duration times bandwidth, that underflows to 0
ZERO_CAPACITY = dict(n_uavs=40, m_available=8, m_occupied=8, rician_k=4.0, message_bits=40.0,
                     swarm_altitude_m=300.0, coverage_radius_m=900.0, pathloss_exp_cell=2.0,
                     bandwidth_cell_hz=1e-200, tau_total_s=1e-199, tau_phase1_s=5e-200,
                     **SWARM)

# every length is drawn log-uniform over ten decades, each bandwidth over six
# and the slot over six; the cellular stage takes a share of the slot
LENGTH = st.floats(-3.0, 7.0).map(lambda e: 10.0**e)
BANDWIDTH = st.floats(3.0, 9.0).map(lambda e: 10.0**e)
TIMING = st.tuples(st.floats(-6.0, 0.0), st.floats(0.001, 0.999)).map(
    lambda t: dict(tau_total_s=10.0 ** t[0], tau_phase1_s=10.0 ** t[0] * t[1]))


def config_example(tau_phase1_s, tau_total_s=1e-3, bandwidth_cell_hz=200e3,
                   bandwidth_d2d_hz=200e3, **fields):
    """An ``@example`` of these config fields, with the reference slot and bandwidths by default."""
    return example(timing=dict(tau_total_s=tau_total_s, tau_phase1_s=tau_phase1_s),
                   bandwidth_cell_hz=bandwidth_cell_hz, bandwidth_d2d_hz=bandwidth_d2d_hz,
                   **fields)


@settings(max_examples=100, deadline=None, derandomize=True)
@config_example(**OVERFLOW, **SWARM)
@config_example(**UNDERFLOW, **SWARM)
@config_example(**SUBNORMAL_BITS, **SWARM)
@config_example(**NEAR_TWO, **SWARM)
@config_example(**SMALL_SHAPE, **SWARM, tau_phase1_s=1.0000000000000002e-6,
                coverage_radius_m=55.0, pathloss_exp_cell=3.0)
@config_example(**SMALL_SHAPE, **SWARM, tau_phase1_s=9.99e-4, coverage_radius_m=10.0,
                pathloss_exp_cell=5.0)
# touching UAVs make E[w^-alpha_d2d] infinite; at 1e-30 m, w^-12 overflows.
# A lone UAV has no relay term to form, so it never meets them; two UAVs
# with E1 < 2 do
@config_example(**NEAR_TWO, swarm_radius_m=30.0, min_separation_m=0.0, pathloss_exp_d2d=6.0)
@config_example(**NEAR_TWO, swarm_radius_m=30.0, min_separation_m=1e-30, pathloss_exp_d2d=6.0)
@config_example(**dict(NEAR_TWO, n_uavs=2), swarm_radius_m=30.0, min_separation_m=0.0,
                pathloss_exp_d2d=6.0)
@config_example(**dict(NEAR_TWO, n_uavs=2), swarm_radius_m=30.0, min_separation_m=1e-30,
                pathloss_exp_d2d=6.0)
@config_example(**MEMBER_CAP)
@config_example(**WIDE_CELL)
@config_example(**SERIES_BELOW_ZERO)
@config_example(**MEMBER_TINY_SHAPE)
@config_example(**ZERO_CAPACITY)
@config_example(**MEMBER_HUGE_SHAPE)
@config_example(**HEAD_SERIES_CAP)
@given(
    n_uavs=st.integers(1, 100),
    m_available=st.integers(1, 100),
    m_occupied=st.integers(0, 100),
    rician_k=st.floats(0.0, 1e12),
    message_bits=st.floats(0.0, 1.1e5),
    timing=TIMING,
    bandwidth_cell_hz=BANDWIDTH,
    bandwidth_d2d_hz=BANDWIDTH,
    swarm_altitude_m=LENGTH,
    coverage_radius_m=LENGTH,
    pathloss_exp_cell=st.floats(2.0, 8.0),
    swarm_radius_m=LENGTH,
    min_separation_m=LENGTH,
    pathloss_exp_d2d=st.floats(2.0, 8.0),
)
def test_validated_config_gives_probabilities_or_documented_error(timing, **overrides):
    try:
        config = make_config(**timing, **overrides)
    except scenario.ConfigError:
        reject()
    try:
        br = analytic.reliability(config)
    except (scenario.ConfigError, NumericalError):
        br = None
    if br is not None:
        # p_phase2 is NaN exactly where no UAV is left to hear a relay
        relayed = br.k_effective < config.n_uavs
        assert math.isnan(br.p_phase2) != relayed
        probabilities = ("p_head", "p_member", "eta") + (("p_phase2",) if relayed else ())
        for name in probabilities + ("expected_phase1", "k_effective"):
            value = getattr(br, name)
            assert type(value) is float and math.isfinite(value), name
        for name in probabilities:
            assert 0.0 <= getattr(br, name) <= 1.0, name
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scenario.cfg")
        write_config(config, path)
        code = cli.main(["analyze", "--config", path])
        simulated = cli.main(["simulate", "--config", path, "--trials", "5", "--seed", "1"])
    assert code == 0 if br is not None else code in (2, 3)
    assert simulated in (0, 2, 3)


def test_member_probability_at_an_underflowing_tricomi_peak():
    # mpmath: z^a U(a, b, z) = 0.99999999999324 at this config's shapes and z
    assert analytic.reliability(make_config(**MEMBER_CAP)).p_member == pytest.approx(
        0.99999999999324, abs=1e-9)


def test_member_probability_at_a_tiny_interference_shape():
    # 40-digit mpmath: z^a U(a, b, z) = 0.99999984648890382 at a = 3.674e-10,
    # b = -1.00000000025, z = 5.44e-182; the e^(a x) tail reaches ~1e11 in x
    assert analytic.reliability(make_config(**MEMBER_TINY_SHAPE)).p_member == pytest.approx(
        0.99999984648890382, abs=1e-9)


@pytest.mark.parametrize("overrides, p_head", [(WIDE_CELL, 0.99946509889953259),
                                               (SERIES_BELOW_ZERO, 0.99668778482528098)])
def test_head_probability_at_tiny_fitted_shapes(overrides, p_head):
    # 30-digit mpmath quadrature of the ratio CDF in u = log v, over edges
    # at -10^16, ..., -10, -1, 0, 1, 3, 7 and 50
    assert analytic.reliability(make_config(**overrides)).p_head == pytest.approx(p_head, abs=1e-9)


def test_head_probability_past_the_old_series_cap():
    # mpmath quadrature of the ratio CDF over the interference peak, with
    # P(a, z) from 1F1 at 20 digits
    assert analytic.reliability(make_config(**HEAD_SERIES_CAP)).p_head == pytest.approx(
        0.0061854233266689809, abs=1e-9)
