"""Every validated scenario analyzes to probabilities or to a documented error.

A config that passes ``scenario.validate`` must give plain finite floats,
with the probabilities in [0, 1], from ``analytic.reliability``, or fail
with ``ConfigError`` or ``NumericalError``; ``analyze`` on it exits 0, 2 or
3, never with a traceback.
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
# a subnormal threshold, whose logs the head series cannot take
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


@settings(max_examples=100, deadline=None, derandomize=True)
@example(**OVERFLOW, **SWARM)
@example(**UNDERFLOW, **SWARM)
@example(**SUBNORMAL_BITS, **SWARM)
@example(**NEAR_TWO, **SWARM)
@example(**SMALL_SHAPE, **SWARM, tau_phase1_s=1.0000000000000002e-6, coverage_radius_m=55.0,
         pathloss_exp_cell=3.0)
@example(**SMALL_SHAPE, **SWARM, tau_phase1_s=9.99e-4, coverage_radius_m=10.0,
         pathloss_exp_cell=5.0)
# touching UAVs make E[w^-alpha_d2d] infinite; at 1e-30 m, w^-12 overflows
@example(**NEAR_TWO, swarm_radius_m=30.0, min_separation_m=0.0, pathloss_exp_d2d=6.0)
@example(**NEAR_TWO, swarm_radius_m=30.0, min_separation_m=1e-30, pathloss_exp_d2d=6.0)
@example(**MEMBER_CAP)
@given(
    n_uavs=st.integers(1, 100),
    m_available=st.integers(1, 16),
    m_occupied=st.integers(0, 16),
    rician_k=st.floats(0.0, 100.0),
    message_bits=st.floats(0.0, 400.0),
    tau_phase1_s=st.floats(1e-6, 9.99e-4),
    swarm_altitude_m=st.floats(1.0, 2000.0),
    coverage_radius_m=st.floats(1.0, 2000.0),
    pathloss_exp_cell=st.floats(2.0, 5.0),
    swarm_radius_m=st.floats(1.0, 100.0),
    min_separation_m=st.floats(0.0, 20.0),
    pathloss_exp_d2d=st.floats(2.0, 6.0),
)
def test_validated_config_gives_probabilities_or_documented_error(**overrides):
    try:
        config = make_config(**overrides)
    except scenario.ConfigError:
        reject()
    try:
        br = analytic.reliability(config)
    except (scenario.ConfigError, NumericalError):
        br = None
    if br is not None:
        for name in ("p_head", "p_member", "p_phase2", "eta", "expected_phase1", "k_effective"):
            value = getattr(br, name)
            assert type(value) is float and math.isfinite(value), name
        for name in ("p_head", "p_member", "p_phase2", "eta"):
            assert 0.0 <= getattr(br, name) <= 1.0, name
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scenario.cfg")
        write_config(config, path)
        code = cli.main(["analyze", "--config", path])
    assert code == 0 if br is not None else code in (2, 3)


def test_member_probability_at_an_underflowing_tricomi_peak():
    # mpmath: z^a U(a, b, z) = 0.99999999999324 at this config's shapes and z
    assert analytic.reliability(make_config(**MEMBER_CAP)).p_member == pytest.approx(
        0.99999999999324, abs=1e-9)
