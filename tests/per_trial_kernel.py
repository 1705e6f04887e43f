"""The per-trial Monte Carlo kernel that the chunk kernel replaced, kept as an oracle.

One trial at a time on its own rng seeded from (master_seed, trial index):
GBS layout, swarm layout, cellular fading, then the relay rounds, with a D2D
draw only for a sampled round that has both relays and listeners.  The
layer functions are the per-trial forms of ``geometry`` and ``fading``;
only the hard-core sampler and the fading samplers are shared with the
package.  ``mc.run_trial`` must agree with it in distribution, not draw
for draw.
"""

from __future__ import annotations

import numpy as np

from swarmrel import fading, geometry, scenario


def trial_rng(master_seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, index)))


def _gbs_layout(config, rng):
    positions = geometry.sample_uniform_disk(config.m_total, config.coverage_radius_m, rng)
    planar = np.hypot(positions[:, 0], positions[:, 1])
    return positions, np.hypot(planar, config.swarm_altitude_m)


def _swarm_layout(config, rng):
    planar, _ = geometry.sample_hardcore_disk(
        config.n_uavs, config.swarm_radius_m, config.min_separation_m, rng
    )
    positions = np.column_stack([planar, np.full(config.n_uavs, config.swarm_altitude_m)])
    dx = planar[:, 0, None] - planar[:, 0]
    dy = planar[:, 1, None] - planar[:, 1]
    return positions, np.sqrt(dx * dx + dy * dy)


def _phase1_sinrs(gbs_xy, uav, gains, config, combining, tx):
    dx = uav[:, 0, None] - gbs_xy[:, 0]
    dy = uav[:, 1, None] - gbs_xy[:, 1]
    dz = uav[:, 2, None]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    h = np.sqrt(config.ref_gain_cell * dist ** (-config.pathloss_exp_cell)) * gains
    p = config.tx_power_gbs_w
    if combining == "head":
        head_ch = h[0, tx]
        head_ch[head_ch == 0] = 1.0
        weights = np.conj(head_ch) / np.abs(head_ch)
    else:
        weights = np.ones(len(tx))
    signal = p * np.abs(h[:, tx] @ weights) ** 2
    occupied = np.arange(config.m_available, config.m_total)
    interference = p * (np.abs(h[:, occupied]) ** 2).sum(axis=1)
    return signal / (interference + config.noise_phase1_w)


def _path_gains(pair, relays, receivers, config):
    dist = pair[np.ix_(receivers, relays)]
    return config.ref_gain_d2d * dist ** (-config.pathloss_exp_d2d)


def _relay_decode_probs(pair, relays, receivers, config, threshold):
    if threshold == 0.0:
        return np.ones(len(receivers))
    power = _path_gains(pair, relays, receivers, config).sum(axis=1)
    ratio = threshold * config.intf_noise_phase2_w / config.tx_power_uav_w
    exponent = np.divide(ratio, power, out=np.full(len(power), np.inf),
                         where=power > ratio / 746.0)
    return np.exp(-exponent)


def _relay_sinrs(pair, relays, receivers, gains, config):
    amp = np.sqrt(_path_gains(pair, relays, receivers, config))
    combined = (amp * gains).sum(axis=1)
    return config.tx_power_uav_w * np.abs(combined) ** 2 / config.intf_noise_phase2_w


def run_trial(config, protocol, rng):
    """Decode probabilities (1 + relay rounds, N) of one trial."""
    split = protocol.name in ("proposed", "head_relay")
    gbs_xy, center = _gbs_layout(config, rng)
    uav, pair = _swarm_layout(config, rng)
    gains = fading.sample_rician(config.rician_k, rng, size=(config.n_uavs, config.m_total))

    serving = np.arange(config.m_available)
    if protocol.name == "nearest_gbs":
        serving = serving[[np.argmin(center[serving])]]
    combining = "head" if protocol.with_head else "unit"
    sinrs = _phase1_sinrs(gbs_xy, uav, gains, config, combining, serving)
    cell_threshold, d2d_threshold = scenario.stage_thresholds(
        config, whole_slot=not split, relays=protocol.rounds > 0
    )
    decoded = sinrs >= cell_threshold
    probs = np.empty((1 + protocol.rounds, config.n_uavs))
    probs[0] = decoded
    if protocol.rounds == 0:
        return probs

    speakers = np.ones(config.n_uavs, dtype=bool)
    if protocol.name == "head_relay":
        speakers = np.arange(config.n_uavs) == 0
    for r in range(1, protocol.rounds + 1):
        probs[r] = decoded
        relays = np.flatnonzero(decoded & speakers)
        receivers = np.flatnonzero(~decoded)
        if len(relays) == 0 or len(receivers) == 0:
            continue
        if split:
            probs[r, receivers] = _relay_decode_probs(pair, relays, receivers, config,
                                                      d2d_threshold)
        else:
            gains = fading.sample_rayleigh(rng, size=(len(receivers), len(relays)))
            sinrs = _relay_sinrs(pair, relays, receivers, gains, config)
            decoded[receivers] = sinrs >= d2d_threshold
            probs[r] = decoded
    return probs


def decoded_fractions(config, protocol, trials, master_seed):
    """Per-trial decoded fractions (trials, 1 + relay rounds)."""
    with np.errstate(over="ignore"):
        return np.array([run_trial(config, protocol, trial_rng(master_seed, i)).mean(axis=1)
                         for i in range(trials)])
