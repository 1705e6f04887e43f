import numpy as np
import pytest

from swarmrel import fading, mc, scenario


BASE = dict(
    n_uavs=40,
    m_available=8,
    m_occupied=8,
    coverage_radius_m=900.0,
    swarm_radius_m=30.0,
    swarm_altitude_m=300.0,
    min_separation_m=5.0,
    pathloss_exp_cell=2.0,
    pathloss_exp_d2d=2.0,
    rician_k=4.0,
    ref_gain_cell_db=-40.0,
    ref_gain_d2d_db=-40.0,
    tx_power_gbs_dbm=43.0,
    tx_power_uav_dbm=23.0,
    bandwidth_cell_hz=200e3,
    bandwidth_d2d_hz=200e3,
    sinr_gap_cell=5.0 / 6.0,
    sinr_gap_d2d=5.0 / 6.0,
    intf_noise_phase2_dbm=-40.0,
    message_bits=40.0,
    tau_total_s=1e-3,
    tau_phase1_s=0.5e-3,
)


def make_config(**overrides) -> scenario.ScenarioConfig:
    """Baseline scenario used throughout the suite, with field overrides."""
    params = dict(BASE)
    params.update(overrides)
    return scenario.validate(scenario.ScenarioConfig(**params))


def write_config(config: scenario.ScenarioConfig, path) -> None:
    """Write ``config`` to ``path`` in the format ``scenario.read_config`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.format_config(config))


def planned_curves(variants):
    """The curves of one draw's (config, protocol) pairs, each at its own thresholds, as
    ``mc.estimate_variants`` plans them; the pairs must share their draw."""
    assert len({mc._draw_key(config) for config, _ in variants}) == 1, "pairs of several draws"
    return [(protocol, *mc._thresholds(config, protocol)) for config, protocol in variants]


def run_kernel(variants, rng, trials):
    """``mc.run_trial`` on one draw's (config, protocol) pairs (``planned_curves``).

    ``rng`` and ``trials`` are one chunk's Generator and trial count, or the
    matching sequences of a run of consecutive chunks.
    """
    if isinstance(rng, np.random.Generator):
        rng, trials = [rng], [trials]
    return mc.run_trial(variants[0][0], planned_curves(variants), rng, trials)


def gather_counts(variants, trials, seed, control=False):
    """``mc._gather_counts`` at one worker on one draw's (config, protocol) pairs."""
    return mc._gather_counts(variants[0][0], planned_curves(variants), trials, seed, 1,
                             control=control)


def record_kernel_calls(monkeypatch, calls):
    """Append (config, curves, chunk sizes) of each ``mc.run_trial`` call to ``calls``."""
    run_trial = mc.run_trial

    def recording(config, curves, rngs, trials):
        calls.append((config, curves, list(trials)))
        return run_trial(config, curves, rngs, trials)

    monkeypatch.setattr(mc, "run_trial", recording)


def cellular_sinrs(gbs, uav, gains, config, with_head=True, nearest=False):
    """The cellular-stage SINRs (trials, N) of ``fading.phase1_sinrs`` alone.

    They do not read the line-of-sight phasors, so unit ones stand in.
    """
    los = np.ones(gains.shape[:2], dtype=complex)
    return fading.phase1_sinrs(gbs, uav, gains, config, with_head, nearest, los,
                               fading.nearest_server(gbs, config))[0]


def relay_power_everywhere(uav, relays, config):
    """Every UAV's summed relay path gain (trials, N) when the ``relays`` mask relays.

    Every UAV is a listener of ``fading.relay_gains``, whose rows run
    trial by trial, and each row sums over the relays of its trial.
    """
    path_gain = fading.relay_gains(uav, np.ones(relays.shape, dtype=bool), config)
    rows = np.repeat(relays, relays.shape[1], axis=0)
    return fading.relay_power(path_gain, rows).reshape(relays.shape)


def complex_gain_sinrs(uav, relays, gains, config):
    """Relay-stage SINRs (trials, N) from complex channel coefficients: the oracle of the D2D law.

    ``uav`` holds the planar positions (trials, N, 2) and ``gains`` is
    (trials, N, N) unit-power Rayleigh, listener by speaker.  Each relay's
    coefficient is scaled by its path amplitude a_t, from the pair distance
    formed here, and a listener's are summed; a relay does not hear itself,
    and a UAV in a trial without relays has SINR zero.
    ``fading.phase2_sinrs`` samples the same SINR from its exponential law.
    """
    dist = np.hypot(uav[:, :, None, 0] - uav[:, None, :, 0], uav[:, :, None, 1] - uav[:, None, :, 1])
    heard = relays[:, None, :] & ~np.eye(dist.shape[-1], dtype=bool)
    amp = np.power(dist, -0.5 * config.pathloss_exp_d2d, out=np.zeros_like(dist), where=heard)
    combined = (np.sqrt(config.ref_gain_d2d) * amp * gains).sum(axis=2)
    return config.tx_power_uav_w * np.abs(combined) ** 2 / config.intf_noise_phase2_w


@pytest.fixture
def config() -> scenario.ScenarioConfig:
    return make_config()
