"""The per-trial Monte Carlo kernel that the chunk kernel replaced, kept as an oracle.

One trial at a time on its own rng seeded from (master_seed, trial index):
GBS layout, swarm layout, cellular fading, then the relay rounds, with a D2D
draw only for a sampled round that has both relays and listeners.  The
layer functions are the per-trial forms of ``geometry`` and ``fading``;
only the hard-core sampler and the fading samplers are shared with the
package.  ``mc.run_trial`` must agree with it in distribution, not draw
for draw.

The cellular stage is conditioned as ``mc`` conditions it, from the complex
terms themselves: each UAV's decode probability q over the line-of-sight
phase of its link to the serving GBS nearest the swarm center, where that
phase does not also set the head's weights, and where no UAV decoded, a
relay set redrawn given at least one decoder.
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
    amp = np.sqrt(config.ref_gain_cell * dist ** (-config.pathloss_exp_cell))
    h = amp * gains
    p = config.tx_power_gbs_w
    if combining == "head":
        head_ch = h[0, tx]
        head_ch[head_ch == 0] = 1.0
        weights = np.conj(head_ch) / np.abs(head_ch)
    else:
        weights = np.ones(len(tx))
    combined = h[:, tx] @ weights
    occupied = np.arange(config.m_available, config.m_total)
    interference = p * (np.abs(h[:, occupied]) ** 2).sum(axis=1)
    sinrs = p * np.abs(combined) ** 2 / (interference + config.noise_phase1_w)
    # the signal, the path amplitudes and the weights, and the interference
    # and noise per unit transmit power, which the signal's power must reach
    return sinrs, combined, amp, weights, (interference + config.noise_phase1_w) / p


def _conditioned(sinrs, threshold, combined, los, noise, held):
    """Each UAV's outcome, its decode probability q over its line-of-sight phase, and
    |delta| / pi, the share of phases that reach its drawn SINR: with T = c + B, it
    decodes iff cos(delta) >= gamma.  A ``held`` UAV's q is its outcome."""
    decoded = sinrs >= threshold
    rest = combined - los
    b, c = np.abs(rest), np.abs(los)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = (threshold * noise - b * b - c * c) / (2.0 * b * c)
    turns = (b * c > 0.0) & ~held
    q = np.where(turns, np.arccos(np.clip(gamma, -1.0, 1.0)) / np.pi, decoded)
    share = np.where(turns, np.abs(np.angle(los * np.conj(rest))) / np.pi, np.nan)
    return decoded, q, share


def _redraw(q, share):
    """A relay set drawn from independent Bernoulli(q) given at least one decoder, on the
    failed UAVs' uniform spares (share - q) / (1 - q)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        spare = np.clip((share - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
    reached = 1.0 - np.cumprod(1.0 - q)
    first = spare[~np.isnan(spare)][0]
    pick = int(np.argmax(reached > first * reached[-1]))
    decoded = (spare < q) & (np.arange(len(q)) > pick)
    decoded[pick] = True
    return decoded


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
    """Decode probabilities (1 + relay rounds, N) of one trial on its relay set, each UAV's
    cellular decode probability q (N,), and the relay rounds' weight 1 - pi_0."""
    split = protocol.name in ("proposed", "head_relay")
    gbs_xy, center = _gbs_layout(config, rng)
    uav, pair = _swarm_layout(config, rng)
    [gains], [phasors] = fading.draw_phase1(config, rng, 1)

    serving = np.arange(config.m_available)
    nearest = np.argmin(center[serving])
    if protocol.name == "nearest_gbs":
        serving = serving[[nearest]]
    combining = "head" if protocol.with_head else "unit"
    sinrs, combined, amp, weights, noise = _phase1_sinrs(gbs_xy, uav, gains, config, combining,
                                                         serving)
    # the line-of-sight term of each UAV's link to the nearest server, weighted
    kappa = min(config.rician_k, fading._KAPPA_CAP)
    los = (amp[:, nearest] * np.sqrt(kappa / (kappa + 1.0)) * phasors[:, nearest]
           * weights[list(serving).index(nearest)])
    cell_threshold, d2d_threshold = scenario.stage_thresholds(
        config, whole_slot=not split, relays=protocol.rounds > 0
    )
    # the head's phases set every weight, so its own outcome is held as drawn
    held = np.arange(config.n_uavs) == 0 if protocol.with_head else np.zeros(config.n_uavs, bool)
    decoded, q, share = _conditioned(sinrs, cell_threshold, combined, los, noise, held)
    probs = np.empty((1 + protocol.rounds, config.n_uavs))
    probs[0] = decoded
    if protocol.rounds == 0:
        return probs, q, 1.0
    none = np.prod(1.0 - q)
    if not decoded.any() and none < 1.0:
        decoded = _redraw(q, share)
        probs[0] = decoded

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
    return probs, q, 1.0 - none


def decoded_fractions(config, protocol, trials, master_seed):
    """Per-trial decoded fractions (trials, 1 + relay rounds): the cellular stage's mean q,
    and each relay round's mean probability on the relay set, times 1 - pi_0."""
    rows = []
    with np.errstate(over="ignore"):
        for i in range(trials):
            probs, q, weight = run_trial(config, protocol, trial_rng(master_seed, i))
            rows.append([q.mean(), *(weight * probs[1:].mean(axis=1))])
    return np.array(rows)
