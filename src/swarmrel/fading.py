"""Small-scale fading draws, Rician magnitude moments, and per-UAV SINRs.

The Monte Carlo engine draws the fading and forms the SINRs of both stages;
the closed-form model takes only the moments of the Rician magnitude.

Fading coefficients are sampled directly and SINRs are formed from channel
coefficients; no symbol waveforms are generated, since decode decisions
depend only on signal and interference powers.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .geometry import GbsLayout, SwarmLayout
from .scenario import ScenarioConfig

__all__ = [
    "sample_rician",
    "sample_rayleigh",
    "rician_mean_magnitude",
    "rician_moments",
    "draw_phase1",
    "draw_phase2",
    "phase1_sinrs",
    "phase2_sinrs",
]

# beyond this the line-of-sight term is numerically pure
_KAPPA_CAP = 1e12


def sample_rayleigh(rng: np.random.Generator, size=None) -> np.ndarray:
    """Circularly symmetric complex normal draws with unit power."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / math.sqrt(2.0)


def sample_rician(kappa: float, rng: np.random.Generator, size=None) -> np.ndarray:
    """Unit-power Rician draws with uniformly random line-of-sight phase.

    The scattered part is CN(0, 1/(kappa+1)); only the ratio of the two
    powers is specified physically, so the deterministic part's phase is
    randomized per draw.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    kappa = min(kappa, _KAPPA_CAP)
    los = np.exp(2j * np.pi * rng.random(size))
    scattered = sample_rayleigh(rng, size)
    return math.sqrt(kappa / (kappa + 1.0)) * los + math.sqrt(1.0 / (kappa + 1.0)) * scattered


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


def draw_phase1(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit-power Rician coefficients (N, M) complex, one per (UAV, GBS) link, i.i.d."""
    return sample_rician(config.rician_k, rng, size=(config.n_uavs, config.m_total))


def draw_phase2(n_receivers: int, n_relays: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power Rayleigh coefficients (receivers, relays) complex, one per link."""
    return sample_rayleigh(rng, size=(n_receivers, n_relays))


def _phase1_channels(
    gbs: GbsLayout, swarm: SwarmLayout, gains: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Full complex channel matrix (N, M): path loss times fading.

    Uses the exact per-UAV distances; no common-distance approximation.
    """
    uav, ground = swarm.positions, gbs.positions
    dx = uav[:, 0, None] - ground[:, 0]
    dy = uav[:, 1, None] - ground[:, 1]
    dz = uav[:, 2, None]  # ground stations sit at height 0
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    amp = np.sqrt(config.ref_gain_cell * dist ** (-config.pathloss_exp_cell))
    return amp * gains


def phase1_sinrs(
    gbs: GbsLayout,
    swarm: SwarmLayout,
    gains: np.ndarray,
    config: ScenarioConfig,
    combining: str = "head",
    transmitters: np.ndarray | None = None,
) -> np.ndarray:
    """SINR of every UAV in the cellular downlink stage.

    ``combining='head'`` applies each serving GBS's conjugate-phase unit
    weight for the head's channel, so the head combines coherently;
    ``'unit'`` sends unweighted.  ``transmitters`` restricts the serving set
    to a subset of the available indices (defaults to all of them).
    Occupied GBSs always interfere at full power.
    """
    h = _phase1_channels(gbs, swarm, gains, config)
    tx = gbs.available_idx if transmitters is None else np.asarray(transmitters)
    p = config.tx_power_gbs_w
    if combining == "head":
        head_ch = h[swarm.head_idx, tx]
        weights = np.conj(head_ch) / np.abs(head_ch)
    elif combining == "unit":
        weights = np.ones(len(tx))
    else:
        raise ValueError(f"unknown combining mode {combining!r}")
    signal = p * np.abs(h[:, tx] @ weights) ** 2 if len(tx) else np.zeros(config.n_uavs)
    interference = p * (np.abs(h[:, gbs.occupied_idx]) ** 2).sum(axis=1)
    return signal / (interference + config.noise_phase1_w)


def phase2_sinrs(
    swarm: SwarmLayout,
    decoders: np.ndarray,
    gains: np.ndarray,
    config: ScenarioConfig,
    receivers: np.ndarray,
) -> np.ndarray:
    """SINR at each of ``receivers`` when all ``decoders`` relay simultaneously.

    ``gains`` is (receivers, decoders); the result has one value per
    receiver, in the order given.  With no decoders there is no
    transmission and the SINRs are zero.
    """
    decoders = np.asarray(decoders, dtype=int)
    receivers = np.asarray(receivers, dtype=int)
    if len(decoders) == 0:
        return np.zeros(len(receivers))
    dist = swarm.pair_distances[np.ix_(receivers, decoders)]
    amp = np.sqrt(config.ref_gain_d2d * dist ** (-config.pathloss_exp_d2d))
    combined = (amp * gains).sum(axis=1)
    return config.tx_power_uav_w * np.abs(combined) ** 2 / config.intf_noise_phase2_w
