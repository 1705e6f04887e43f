"""Point-process sampling of GBS and UAV positions, and the truncated pair-distance mass.

Ground stations are a binomial point process on a disk, whose first
``m_available`` points serve the swarm; the swarm is a hard-core process
realized by simple sequential inhibition (dart throwing with rejection).
Both layouts are plain arrays of planar positions: the stations sit at
height 0 and every UAV at the config's altitude.  The Monte Carlo engine
samples the layouts of a chunk of trials at once, each array with a leading
trials axis, and forms what it needs from them (the relay stage's pair gains
in ``fading.relay_gains``); the closed-form model takes the mass of the
disk's pair-distance density above the hard-core separation.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import ScenarioConfig

__all__ = [
    "PlacementError",
    "sample_uniform_disk",
    "sample_hardcore_disk",
    "sample_gbs_layout",
    "sample_swarm_layout",
    "pair_distance_truncation",
]

_CANDIDATE_BLOCK = 64
# darts per point before a layout counts as wedged, and layouts drawn before
# placement gives up
_ATTEMPTS_PER_POINT = 10_000
_LAYOUT_RETRIES = 100


class PlacementError(RuntimeError):
    """Hard-core placement failed within the attempt budget."""


def sample_uniform_disk(size, radius: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform points on the disk of the given radius, as (*size, 2)."""
    r = radius * np.sqrt(rng.random(size))
    phi = 2.0 * np.pi * rng.random(size)
    points = np.empty(r.shape + (2,))
    np.multiply(r, np.cos(phi), out=points[..., 0])
    np.multiply(r, np.sin(phi), out=points[..., 1])
    return points


def _row_bits(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, column j at bit j; at most 64 columns."""
    packed = np.zeros((len(matrix), 8), dtype=np.uint8)
    bits = np.packbits(matrix, axis=1, bitorder="little")
    packed[:, : bits.shape[1]] = bits
    return packed.view("<u8")[:, 0].tolist()


def sample_hardcore_disk(
    n: int,
    radius: float,
    d_min: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sequential inhibition: uniform darts rejected within d_min of a point.

    Darts are drawn in blocks of up to 64 and judged in draw order, as if one
    at a time: a block first drops the darts too close to a point placed
    before it, then accepts the survivors greedily, each accepted dart
    dropping the later survivors too close to it.  A point gets
    ``_ATTEMPTS_PER_POINT`` darts; if the layout wedges (some point cannot be
    placed) the whole layout is redrawn, up to ``_LAYOUT_RETRIES`` times, after
    which ``PlacementError`` is raised rather than relaxing the separation
    constraint.
    """
    if n == 0:
        return np.empty((0, 2))
    dmin2 = d_min * d_min
    px = np.empty(n)
    py = np.empty(n)
    most = 0
    for _ in range(_LAYOUT_RETRIES):
        count = 0
        budget = _ATTEMPTS_PER_POINT
        while count < n:
            block = min(_CANDIDATE_BLOCK, budget)
            if block == 0:
                break
            darts = sample_uniform_disk(block, radius, rng)
            budget -= block
            x, y = darts[:, 0], darts[:, 1]
            if count:
                dx = x[:, None] - px[:count]
                dy = y[:, None] - py[:count]
                keep = (dx * dx + dy * dy >= dmin2).all(axis=1)
                x, y = x[keep], y[keep]
                if len(x) == 0:
                    continue
            dx = x[:, None] - x
            dy = y[:, None] - y
            clear = _row_bits(dx * dx + dy * dy >= dmin2)
            live = (1 << len(x)) - 1  # bit j set: survivor j is still clear of every accepted dart
            accepted = []
            while live and count + len(accepted) < n:
                k = (live & -live).bit_length() - 1  # the first live survivor
                accepted.append(k)
                live &= clear[k] & ~(1 << k)
            px[count : count + len(accepted)] = x[accepted]
            py[count : count + len(accepted)] = y[accepted]
            count += len(accepted)
            # the darts left in a block after an acceptance are already paid for
            budget = _ATTEMPTS_PER_POINT
        if count == n:
            return np.column_stack([px, py])
        most = max(most, count)
    ratio = d_min / (2.0 * radius)
    coverage = n * ratio * ratio
    raise PlacementError(
        f"could not place {n} points with separation {d_min} in radius {radius} "
        f"({_LAYOUT_RETRIES} layouts x {_ATTEMPTS_PER_POINT} attempts per point); "
        f"the best layout placed {most}; area coverage n*(d_min/2)^2/radius^2 = "
        f"{coverage:.1%}, against a jamming limit near 54.7% for random sequential "
        f"adsorption of disks"
    )


def sample_gbs_layout(config: ScenarioConfig, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Planar GBS positions (trials, M, 2), i.i.d. uniform on the coverage disk.

    Coordinates (m) are relative to the point under the swarm center, and
    the stations sit at height 0.  The first ``m_available`` GBSs of each
    trial serve the swarm; the other ``m_occupied`` interfere.
    """
    return sample_uniform_disk((trials, config.m_total), config.coverage_radius_m, rng)


def sample_swarm_layout(config: ScenarioConfig, rng: np.random.Generator,
                        trials: int) -> np.ndarray:
    """Planar UAV positions (trials, N, 2) of ``trials`` hard-core swarms; head is UAV 0.

    Each trial's swarm is one ``sample_hardcore_disk`` placement, in trial
    order; every UAV flies at the config's ``swarm_altitude_m``.
    """
    n = config.n_uavs
    positions = np.empty((trials, n, 2))
    for b in range(trials):
        positions[b] = sample_hardcore_disk(n, config.swarm_radius_m, config.min_separation_m, rng)
    return positions


# --- pair-distance mass -------------------------------------------------------


def pair_distance_truncation(radius: float, d_min: float) -> float:
    """Mass of the pair-distance density on [d_min, 2 radius].

    With theta = 2 acos(x), x = d_min / (2 radius), the closed form
    1 - [8 x^2 acos(x) + 2 asin(x) - 2 x (1 + 2 x^2) sqrt(1 - x^2)] / pi
    reads [(2 + cos theta) sin theta - theta (1 + 2 cos theta)] / pi, which
    keeps its relative digits down to a mass of 1e-8 as d_min nears 2 radius.
    """
    theta = 2.0 * math.acos(d_min / (2.0 * radius))
    cos_theta = math.cos(theta)
    return ((2.0 + cos_theta) * math.sin(theta) - theta * (1.0 + 2.0 * cos_theta)) / math.pi
