import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from swarmrel import fading, geometry

from conftest import make_config, relay_power_everywhere


def test_rician_pure_los_limit():
    # huge power ratio: magnitude pinned to 1
    rng = np.random.default_rng(0)
    h = fading.sample_rician(1e15, rng, size=10_000)  # capped internally
    assert np.abs(np.abs(h) - 1.0).max() < 1e-5


def test_rician_rayleigh_case_mean():
    rng = np.random.default_rng(1)
    h = fading.sample_rician(0.0, rng, size=1_000_000)
    m = np.abs(h)
    se = m.std(ddof=1) / np.sqrt(len(m))
    assert abs(m.mean() - math.sqrt(math.pi) / 2.0) < 3.0 * se


def test_rician_unit_power():
    rng = np.random.default_rng(2)
    for kappa in (0.0, 4.0):
        p = np.abs(fading.sample_rician(kappa, rng, size=1_000_000)) ** 2
        se = p.std(ddof=1) / np.sqrt(len(p))
        assert abs(p.mean() - 1.0) < 3.0 * se


def test_rayleigh_unit_power():
    rng = np.random.default_rng(3)
    p = np.abs(fading.sample_rayleigh(rng, size=1_000_000)) ** 2
    se = p.std(ddof=1) / np.sqrt(len(p))
    assert abs(p.mean() - 1.0) < 3.0 * se


def _magnitude_pdf(v, kappa):
    # density of |h| for the unit-power Rician coefficient: Rice with
    # b = sqrt(2 kappa) on the scale of the scattered part, 1/sqrt(2 (kappa + 1))
    return stats.rice.pdf(v, math.sqrt(2.0 * kappa), scale=1.0 / math.sqrt(2.0 * (kappa + 1.0)))


def test_magnitude_pdf_normalization_and_moments():
    for kappa in (0.0, 1.0, 4.0, 10.0):
        total = integrate.quad(lambda v: _magnitude_pdf(v, kappa), 0.0, 30.0)[0]
        assert total == pytest.approx(1.0, abs=1e-9)
        second = integrate.quad(
            lambda v: v * v * _magnitude_pdf(v, kappa), 0.0, 30.0
        )[0]
        assert second == pytest.approx(1.0, abs=1e-9)


def test_magnitude_pdf_rayleigh_case():
    for v in (0.1, 0.5, 1.0, 2.0):
        assert _magnitude_pdf(v, 0.0) == pytest.approx(
            2.0 * v * math.exp(-v * v), rel=1e-12
        )


def test_mean_magnitude_matches_pdf_quadrature():
    # fixes the constant in the Laguerre form of E|h|
    for kappa in (0.0, 1.0, 4.0, 10.0):
        ref = integrate.quad(lambda v: v * _magnitude_pdf(v, kappa), 0.0, 30.0)[0]
        assert fading.rician_mean_magnitude(kappa) == pytest.approx(ref, abs=1e-10)
    assert fading.rician_mean_magnitude(0.0) == pytest.approx(0.8862269254527580, rel=1e-12)


def test_fourth_moment():
    assert fading.rician_moments(0.0)[2] == pytest.approx(2.0)
    assert fading.rician_moments(4.0)[2] == pytest.approx(1.36)
    rng = np.random.default_rng(4)
    p4 = np.abs(fading.sample_rician(4.0, rng, size=1_000_000)) ** 4
    se = p4.std(ddof=1) / np.sqrt(len(p4))
    assert abs(p4.mean() - 1.36) < 3.0 * se


# --- SINR computation -----------------------------------------------------------


def _scene(config, gbs_xy, uav_xy):
    """Layouts of one trial with the given planar positions."""
    gbs = np.asarray(gbs_xy, dtype=float)[None]
    uav = np.asarray(uav_xy, dtype=float)[None]
    return gbs, uav


def _relays(n, indices):
    """The one-trial relay mask of ``n`` UAVs with ``indices`` relaying."""
    mask = np.zeros((1, n), dtype=bool)
    mask[0, indices] = True
    return mask


def test_phase1_channels_match_summed_squares_bitwise(config):
    # the per-axis form dx*dx + dy*dy + dz*dz gives the bits of the 3D reduction
    rng = np.random.default_rng(11)
    trials = 50
    gbs = geometry.sample_gbs_layout(config, rng, trials)
    uav = geometry.sample_swarm_layout(config, rng, trials)[0]
    draw, _ = fading.draw_phase1(config, rng, trials)
    assert draw.shape == (trials, 40, 16)
    gbs3d = np.concatenate([gbs, np.zeros((trials, 16, 1))], axis=2)
    uav3d = np.concatenate([uav, np.full((trials, 40, 1), 300.0)], axis=2)
    diff = uav3d[:, :, None, :] - gbs3d[:, None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    amp = np.sqrt(config.ref_gain_cell * dist ** (-config.pathloss_exp_cell))
    assert np.array_equal(fading._phase1_amplitudes(gbs, uav, config) * draw, amp * draw)


def test_phase1_pure_snr_scales_with_power():
    cfg = make_config(m_available=3, m_occupied=0, n_uavs=2)
    cfg_hi = make_config(m_available=3, m_occupied=0, n_uavs=2, tx_power_gbs_dbm=53.0)
    gbs, swarm = _scene(cfg, [[100, 0], [0, 200], [-50, -50]], [[0, 0], [5, 5]])
    rng = np.random.default_rng(5)
    draw, _ = fading.draw_phase1(cfg, rng, 1)
    s1 = fading.phase1_sinrs(gbs, swarm, draw, cfg)
    s2 = fading.phase1_sinrs(gbs, swarm, draw, cfg_hi)
    # +10 dB transmit power vs essentially zero noise: 10x SINR to within the
    # noise floor's tiny contribution
    assert np.allclose(s2 / s1, 10.0, rtol=1e-6)


def test_phase1_hand_computed_head_sinr():
    # one serving and one interfering GBS at the same distance, unit fading,
    # no receiver noise: head SINR is exactly 1
    # (validate rejects -inf dBm; replace() builds the config without it)
    cfg = replace(make_config(m_available=1, m_occupied=1, n_uavs=1), noise_phase1_dbm=-math.inf)
    gbs, swarm = _scene(cfg, [[400, 0], [-400, 0]], [[0, 0]])
    draw = np.ones((1, 1, 2), dtype=complex)
    sinr = fading.phase1_sinrs(gbs, swarm, draw, cfg)
    assert sinr.shape == (1, 1)
    assert sinr[0, 0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("with_head", [True, False])
def test_phase1_nearest_serves_from_the_available_gbs_closest_to_the_center(with_head):
    # GBS 1 is the available one closest to the swarm center, though GBS 0 is
    # closer to UAV 1; GBS 3 interferes; unit fading and no receiver noise
    cfg = replace(make_config(m_available=3, m_occupied=1, n_uavs=2, pathloss_exp_cell=3.0),
                  noise_phase1_dbm=-math.inf)
    gbs_xy = [[500, 0], [0, 200], [-300, 0], [400, 0]]
    uav_xy = [[0, 0], [480, 0]]
    gbs, swarm = _scene(cfg, gbs_xy, uav_xy)
    draw = np.ones((1, 2, 4), dtype=complex)
    sinr = fading.phase1_sinrs(gbs, swarm, draw, cfg, with_head=with_head, nearest=True)
    h = cfg.swarm_altitude_m
    dist = lambda u, g: math.hypot(math.hypot(u[0] - g[0], u[1] - g[1]), h)
    want = [(dist(u, gbs_xy[3]) / dist(u, gbs_xy[1])) ** 3.0 for u in uav_xy]
    assert sinr.shape == (1, 2)
    assert sinr[0] == pytest.approx(want, rel=1e-12)


def test_phase1_head_sinr_invariant_to_serving_phases():
    cfg = make_config(n_uavs=4)
    gbs, swarm = _scene(
        cfg,
        np.random.default_rng(6).uniform(-600, 600, size=(16, 2)),
        np.random.default_rng(7).uniform(-20, 20, size=(4, 2)),
    )
    rng = np.random.default_rng(8)
    draw, _ = fading.draw_phase1(cfg, rng, 1)
    base = fading.phase1_sinrs(gbs, swarm, draw, cfg)
    rotated = draw.copy()
    phases = np.exp(2j * np.pi * np.random.default_rng(9).random(8))
    rotated[:, :, :8] *= phases
    turned = fading.phase1_sinrs(gbs, swarm, rotated, cfg)
    assert turned[0, 0] == pytest.approx(base[0, 0], rel=1e-12)


def test_phase1_coherent_beats_unit_combining_at_head():
    cfg = make_config(n_uavs=2)
    gbs, swarm = _scene(
        cfg,
        np.random.default_rng(10).uniform(-600, 600, size=(16, 2)),
        [[0, 0], [10, 0]],
    )
    rng = np.random.default_rng(11)
    n = 10_000
    # one scene over n trials of fading
    gbs = np.broadcast_to(gbs, (n, 16, 2))
    swarm = np.broadcast_to(swarm, (n, 2, 2))
    draw, _ = fading.draw_phase1(cfg, rng, n)
    head = fading.phase1_sinrs(gbs, swarm, draw, cfg, with_head=True)[:, 0]
    unit = fading.phase1_sinrs(gbs, swarm, draw, cfg, with_head=False)[:, 0]
    assert head.mean() > unit.mean()


def test_phase2_no_decoders_means_silence(config):
    rng = np.random.default_rng(12)
    uav = geometry.sample_swarm_layout(config, rng, 3)[0]
    gains = fading.draw_phase2(config, rng, 3)
    assert gains.shape == (3, 40)
    sinrs = fading.phase2_sinrs(
        relay_power_everywhere(uav, np.zeros((3, 40), dtype=bool), config), gains, config)
    assert sinrs.shape == (3, 40)
    assert (sinrs == 0.0).all()


def test_phase2_single_relay_hand_value():
    # 23 dBm through -40 dB gain over 10 m at exponent 2 against -40 dBm noise
    cfg = make_config(n_uavs=2)
    _, swarm = _scene(cfg, [[100, 0]], [[0, 0], [10, 0]])
    # the mean SINR, reached at a unit exponential draw
    draw = np.ones((1, 2))
    sinr = fading.phase2_sinrs(relay_power_everywhere(swarm, _relays(2, [0]), cfg), draw, cfg)
    assert sinr[0, 1] == pytest.approx(1.9952623149688795, rel=1e-12)


def test_phase2_noise_scaling():
    cfg = make_config(n_uavs=3)
    cfg_noisier = make_config(n_uavs=3, intf_noise_phase2_dbm=-40.0 + 10.0 * math.log10(2.0))
    _, swarm = _scene(cfg, [[100, 0]], [[0, 0], [10, 0], [0, 15]])
    rng = np.random.default_rng(13)
    draw = fading.draw_phase2(cfg, rng, 1)
    power = relay_power_everywhere(swarm, _relays(3, [0]), cfg)
    s1 = fading.phase2_sinrs(power, draw, cfg)[0, 1:]
    s2 = fading.phase2_sinrs(power, draw, cfg_noisier)[0, 1:]
    assert np.allclose(s1 / s2, 2.0, rtol=1e-12)


def test_phase2_permutation_equivariant():
    cfg = make_config(n_uavs=6)
    _, swarm = _scene(
        cfg, [[100, 0]], np.random.default_rng(14).uniform(-20, 20, size=(6, 2))
    )
    rng = np.random.default_rng(15)
    gains = fading.draw_phase2(cfg, rng, 1)
    relays = _relays(6, [0, 2, 4])
    base = fading.phase2_sinrs(relay_power_everywhere(swarm, relays, cfg), gains, cfg)
    # relabel the UAVs: positions, relay mask and gains move together
    perm = np.array([4, 3, 0, 5, 2, 1])
    _, moved = _scene(cfg, [[100, 0]], swarm[0, perm, :2])
    swapped = fading.phase2_sinrs(relay_power_everywhere(moved, relays[:, perm], cfg),
                                  gains[:, perm], cfg)
    assert np.allclose(base[:, perm], swapped, rtol=1e-12)
