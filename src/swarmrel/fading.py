"""Small-scale fading draws, Rician magnitude moments, and per-UAV SINRs.

The Monte Carlo engine draws the fading of a chunk of trials at once and
forms the SINRs of both stages for a run of chunks at once, the cellular
stage's with a leading trials axis and the relay stage's one row per
listener still to decode, and takes each listener's relay-stage decode
probability exact over the Rayleigh fading; the closed-form model takes
only the moments of the Rician magnitude.

The cellular stage's SINRs are formed from sampled channel coefficients,
since the head's weights depend on their phases.  Its servers are the first
``m_available`` GBSs of a layout, or the nearest of them to the swarm
center, and the rest interfere.  Given everything else, a UAV's SINR turns
on the line-of-sight phase of its link to that nearest GBS alone:
``phase1_sinrs`` also gives its law over that phase, and
``phase1_decode_probs`` the decode probability, exact given the rest.

The relay stage rests on one quantity, each listener's summed relay path
gain sum_t a_t^2 (``relay_power``), summed from the (K, N) pair gains that
``relay_gains`` forms once per run for the K listeners that the cellular
stage left undecoded: over
independent Rayleigh links the SINR is exponential with mean P sum_t a_t^2
/ N0, taken exact for its decode probability and, where a later round reads
it, sampled with one exponential draw per listener.  No symbol waveforms are
generated: decode decisions depend only on signal and interference powers.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .scenario import ScenarioConfig

__all__ = [
    "sample_rician",
    "sample_rayleigh",
    "rician_mean_magnitude",
    "rician_moments",
    "draw_phase1",
    "draw_phase2",
    "phase1_sinrs",
    "phase1_decode_probs",
    "nearest_server",
    "head_weights",
    "relay_gains",
    "relay_power",
    "phase2_sinrs",
    "phase2_decode_probs",
]

# beyond this the line-of-sight term is numerically pure
_KAPPA_CAP = 1e12


def sample_rayleigh(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly symmetric complex normal draws with unit power, of shape ``size``.

    The real parts are drawn first, then the imaginary parts.
    """
    z = np.empty(size, dtype=complex)
    z.real = rng.standard_normal(size)
    z.imag = rng.standard_normal(size)
    z *= math.sqrt(0.5)
    return z


def sample_rician(kappa: float, rng: np.random.Generator, size) -> np.ndarray:
    """Unit-power Rician draws with uniformly random line-of-sight phase.

    The scattered part is CN(0, 1/(kappa+1)); only the ratio of the two
    powers is specified physically, so the deterministic part's phase is
    randomized per draw.
    """
    return _rician(kappa, rng, size)[0]


def _rician(kappa: float, rng: np.random.Generator, size) -> tuple[np.ndarray, np.ndarray]:
    """``sample_rician``'s draws, and the unit phasors of their line-of-sight terms."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    kappa = min(kappa, _KAPPA_CAP)
    phasors = np.exp(2j * np.pi * rng.random(size))
    h = phasors * math.sqrt(kappa / (kappa + 1.0))
    scattered = sample_rayleigh(rng, size)
    scattered *= math.sqrt(1.0 / (kappa + 1.0))
    h += scattered
    return h, phasors


def rician_mean_magnitude(kappa: float) -> float:
    """E|h| for the unit-power Rician coefficient.

    The constant in front of the Laguerre function is fixed by requiring
    agreement with direct quadrature of the Rice magnitude density (the
    test suite asserts this against scipy); it is 1/2 * sqrt(pi/(kappa+1)).
    """
    return 0.5 * math.sqrt(math.pi / (kappa + 1.0)) * specfun.laguerre_half(-kappa)


def rician_moments(kappa: float) -> tuple[float, float, float]:
    """(E|h|, E|h|^2, E|h|^4) for the unit-power Rician coefficient."""
    x = 1.0 / (kappa + 1.0)  # scattered share; (2 + 4K + K^2) / (K + 1)^2 = 1 + x (2 - x)
    m4 = 1.0 + x * (2.0 - x)
    return rician_mean_magnitude(kappa), 1.0, m4


def draw_phase1(config: ScenarioConfig, rng: np.random.Generator,
                trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-power Rician coefficients (trials, N, M) complex, one per (UAV, GBS) link, i.i.d.

    Returns them and the unit phasors (trials, N, M) of their line-of-sight
    terms, whose uniform phases were drawn first.
    """
    return _rician(config.rician_k, rng, (trials, config.n_uavs, config.m_total))


def draw_phase2(config: ScenarioConfig, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Unit-mean exponential draws (trials, N), one per UAV: the relay stage's fading.

    Over independent unit-power Rayleigh links a listener's received power
    is its summed relay path gain times one such draw, whoever relays.
    """
    return rng.standard_exponential((trials, config.n_uavs))


def _phase1_amplitudes(gbs: np.ndarray, uav: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Path amplitudes (trials, N, M) of every (UAV, GBS) link; times the fading, the channels.

    Uses the exact per-UAV distances; no common-distance approximation.
    """
    # sqrt(ref_gain dist^-alpha), dist = sqrt(dx * dx + dy * dy + dz * dz),
    # formed in place
    amp, dy = uav[:, :, None, 0] - gbs[:, None, :, 0], uav[:, :, None, 1] - gbs[:, None, :, 1]
    amp *= amp
    dy *= dy
    amp += dy
    amp += config.swarm_altitude_m * config.swarm_altitude_m  # ground stations sit at height 0
    np.sqrt(amp, out=amp)
    np.power(amp, -config.pathloss_exp_cell, out=amp)
    amp *= config.ref_gain_cell
    np.sqrt(amp, out=amp)
    return amp


def nearest_server(gbs: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Index (trials,) of each layout's serving GBS nearest the swarm center.

    The ground stations share one height, so the squared planar distance
    decides, and argmin breaks ties to the first.
    """
    serving = gbs[:, :config.m_available]
    return (serving[:, :, 0] ** 2 + serving[:, :, 1] ** 2).argmin(axis=1)


def phase1_sinrs(
    gbs: np.ndarray,
    uav: np.ndarray,
    gains: np.ndarray,
    config: ScenarioConfig,
    with_head: bool,
    nearest: bool,
    los: np.ndarray,
    server: np.ndarray,
):
    """SINRs (trials, N) of the UAVs at planar ``uav`` in the cellular stage, and their law.

    The first ``m_available`` GBSs of the ``gbs`` layout serve and the rest
    interfere at full power.  ``with_head`` applies each serving GBS's
    conjugate-phase unit weight for the channel of the head, UAV 0, so the
    head combines coherently; without it the GBSs send unweighted.
    ``nearest`` serves from only ``server`` (trials,), the available GBS
    closest to the swarm center (``nearest_server``).

    ``los`` (trials, N) are the unit phasors of the line-of-sight terms of
    every UAV's link to that GBS (``draw_phase1``).  Returns (sinrs, base,
    swing): given everything but those phases, UAV i's SINR is
    base_i + swing_i cos(delta_i), where delta_i, the angle between that
    link's line-of-sight term c_i and the rest B_i of the UAV's combined
    signal, is uniform and independent across UAVs.  With D the
    interference and noise over the transmit power, base = (|B|^2 + |c|^2)
    / D, formed as sinr - 2 Re(c B*) / D so that it is the SINR itself
    where c = 0 (a Rician K of 0), and swing = 2 |B| |c| / D.  The head's
    own phases set every weight, so with ``with_head`` its SINR is held as
    drawn too: base = sinr and swing = 0.
    """
    amp = _phase1_amplitudes(gbs, uav, config)
    h = amp * gains
    p = config.tx_power_gbs_w
    m0 = config.m_available
    occupied = np.abs(h[:, :, m0:])
    occupied *= occupied
    interference = p * occupied.sum(axis=2)
    h_tx = h[:, :, :m0]
    if nearest:
        h_tx = np.take_along_axis(h_tx, server[:, None, None], axis=2)
    if with_head:
        weights = head_weights(h_tx[:, 0])
    else:
        weights = np.ones((h_tx.shape[0], h_tx.shape[2]))
    combined = np.einsum("bnk,bk->bn", h_tx, weights)
    signal = p * np.abs(combined) ** 2
    noise = interference + config.noise_phase1_w
    sinrs = signal / noise
    # T = c + B, c the line-of-sight term of each UAV's link to the nearest
    # server in its combined signal T, so |T|^2 = |B|^2 + |c|^2 + 2 Re(c B*).
    # In the frame of that link's unit weight w, c = a e^(j phi)
    kappa = min(config.rician_k, _KAPPA_CAP)
    rows = np.arange(len(gbs))
    a = amp[rows, :, server] * math.sqrt(kappa / (kappa + 1.0))
    if with_head:
        combined *= np.conj(weights[rows, 0 if nearest else server])[:, None]
    c_re, c_im = a * los.real, a * los.imag
    b_re, b_im = combined.real - c_re, combined.imag - c_im
    scale = 2.0 * p / noise
    base = sinrs - (c_re * b_re + c_im * b_im) * scale
    swing = np.sqrt(b_re * b_re + b_im * b_im) * a * scale
    if with_head:
        base[:, 0], swing[:, 0] = sinrs[:, 0], 0.0
    return sinrs, base, swing


def phase1_decode_probs(base: np.ndarray, swing: np.ndarray, threshold) -> np.ndarray:
    """P(SINR >= threshold) over the line-of-sight phases of ``phase1_sinrs``, elementwise.

    Exact given everything else: the SINR base + swing cos(delta), delta
    uniform, reaches the threshold on a share arccos((threshold - base) /
    swing) / pi of the phases.  Where the swing is 0 that share is 0 or 1,
    by the side of the threshold the SINR is on, and NaN where it is at the
    threshold; base or swing past the float range may give NaN too.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (threshold - base) / swing
    return np.divide(np.arccos(np.clip(cos, -1.0, 1.0, out=cos), out=cos), np.pi, out=cos)


def head_weights(head: np.ndarray) -> np.ndarray:
    """The serving GBSs' conjugate-phase unit weights for the head's channels ``head``.

    A zero channel has no phase, so it gets unit weight.
    """
    head = np.where(head == 0, 1.0, head)
    return np.conj(head) / np.abs(head)


def relay_gains(uav: np.ndarray, listeners: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Mean D2D power gains ref_gain w^-alpha (K, N) to the K ``listeners`` from every UAV.

    Row k is the k-th listener of the (trials, N) mask over the planar
    ``uav`` in row-major order, and entry (k, t) the link from UAV t of its
    trial over the planar pair distance w = sqrt(dx * dx + dy * dy), formed
    in place; a listener's own link gains 0.
    """
    counts, here = listeners.sum(axis=1), uav[listeners]
    gain = np.repeat(uav[:, :, 0], counts, axis=0)
    dy = np.repeat(uav[:, :, 1], counts, axis=0)
    np.subtract(here[:, None, 0], gain, out=gain)
    np.subtract(here[:, None, 1], dy, out=dy)
    gain *= gain
    dy *= dy
    gain += dy
    np.sqrt(gain, out=gain)
    # inf^-alpha is 0, and 0^-alpha would divide by zero
    gain[np.arange(len(gain)), np.nonzero(listeners)[1]] = np.inf
    np.power(gain, -config.pathloss_exp_d2d, out=gain)
    gain *= config.ref_gain_d2d
    return gain


def relay_power(path_gain: np.ndarray, relays: np.ndarray) -> np.ndarray:
    """Each listener's summed relay path gain sum_t a_t^2, (K,), when the ``relays`` relay.

    ``path_gain`` holds K listeners' rows of ``relay_gains`` and ``relays``
    the (K, N) relay mask of each row's trial; a relay does not hear itself.
    """
    return np.where(relays, path_gain, 0.0).sum(axis=1)


def phase2_sinrs(power: np.ndarray, gains: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """SINR of listeners with summed relay path gains ``power``, elementwise.

    ``power`` is ``relay_power``'s, and ``gains`` the listeners' entries of
    the (trials, N) draw of ``draw_phase2``, which scales it.  A listener in
    a trial without relays hears no transmission and has SINR zero.
    """
    return config.tx_power_uav_w * power * gains / config.intf_noise_phase2_w


def phase2_decode_probs(
    power: np.ndarray,
    relays: np.ndarray,
    config: ScenarioConfig,
    threshold: float,
) -> np.ndarray:
    """P(SINR >= threshold) of K listeners, (K,), when the (K, N) ``relays`` masks relay.

    Exact over the fading of ``phase2_sinrs``: with ``power`` the summed
    relay path gains of ``relay_power``, the SINR is exponential with mean
    P sum_t a_t^2 / N0, so the probability is exp(-threshold N0 / (P sum_t
    a_t^2)).  In a trial without relays nobody transmits and the
    probabilities are zero.
    """
    if threshold == 0.0:
        # every SINR, zero included, reaches it once somebody transmits
        return relays.any(axis=1).astype(float)
    ratio = threshold * config.intf_noise_phase2_w / config.tx_power_uav_w
    # a power of 0 (no relays, or a path gain that underflowed) divides to
    # -inf, and a subnormal one may overflow to it: either way exp gives 0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.exp(-ratio / power)
