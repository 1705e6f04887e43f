"""Point-process sampling of GBS and UAV positions.

Ground stations are a binomial point process on a disk, whose first
``m_available`` points serve the swarm; the swarm is a hard-core process
realized by simple sequential inhibition (dart throwing with rejection).
Both layouts are plain arrays of planar positions: the stations sit at
height 0 and every UAV at the config's altitude.  The Monte Carlo engine
samples the layouts of a chunk of trials at once, each array with a leading
trials axis, and forms what it needs from them (the relay stage's pair gains
in ``fading.relay_gains``).

A chunk's swarms are, by contract, the placements of one
``sample_hardcore_disk`` call per trial in trial order, and leave the rng
where those calls leave it.  When the chunk's first placement ends early in
its first block of 64 darts, the next trials' first blocks are judged in
lockstep, in windows of consecutive blocks drawn at once; the rng is rewound
past the blocks kept.  The first trial whose block falls short, every trial
after it, and every trial of a chunk whose first placement needs more darts,
as dense swarms' do, are placed by the per-trial sampler.
"""

from __future__ import annotations

import numpy as np

from .scenario import ScenarioConfig

__all__ = [
    "PlacementError",
    "sample_uniform_disk",
    "sample_hardcore_disk",
    "sample_gbs_layout",
    "sample_swarm_layout",
]

_CANDIDATE_BLOCK = 64
# dart pairs of a window's prefixes, judged at once: it bounds the (slots,
# prefix, prefix) temporaries, and keeps them in cache
_WINDOW_PAIRS = 1 << 14
# darts per point before a layout counts as wedged, and layouts drawn before
# placement gives up
_ATTEMPTS_PER_POINT = 10_000
_LAYOUT_RETRIES = 100


class PlacementError(RuntimeError):
    """Hard-core placement failed within the attempt budget."""


def _disk_points(u_radius: np.ndarray, u_angle: np.ndarray, radius: float) -> np.ndarray:
    """Points (*u.shape, 2) of the disk at radius·sqrt(u_radius) and angle 2π·u_angle."""
    r = radius * np.sqrt(u_radius)
    phi = 2.0 * np.pi * u_angle
    points = np.empty(r.shape + (2,))
    np.multiply(r, np.cos(phi), out=points[..., 0])
    np.multiply(r, np.sin(phi), out=points[..., 1])
    return points


def sample_uniform_disk(size, radius: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform points on the disk of the given radius, as (*size, 2).

    It draws ``size`` radius uniforms, then ``size`` angle uniforms.
    """
    u_radius = rng.random(size)
    return _disk_points(u_radius, rng.random(size), radius)


def _clear_bits(x: np.ndarray, y: np.ndarray, dmin2: float) -> np.ndarray:
    """uint64 whose bit i of entry j is set when dart i lies at least d_min from dart j.

    The darts, at most 64, lie along the last axis.
    """
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    dx *= dx
    dy *= dy
    dx += dy
    bits = np.packbits(dx >= dmin2, axis=-1, bitorder="little")
    packed = np.zeros(bits.shape[:-1] + (8,), dtype=np.uint8)
    packed[..., : bits.shape[-1]] = bits
    return packed.view("<u8")[..., 0]


def _greedy(clear: list[int], room: int) -> list[int]:
    """Greedy inhibition in dart order: the first ``room`` darts clear of all accepted before.

    Bit i of ``clear[j]`` is set when dart i lies at least d_min from dart j.
    """
    live = (1 << len(clear)) - 1  # bit j set: dart j is still clear of every accepted dart
    accepted = []
    while live and len(accepted) < room:
        k = (live & -live).bit_length() - 1  # the first live dart
        accepted.append(k)
        live &= clear[k] & ~(1 << k)
    return accepted


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
            accepted = _greedy(_clear_bits(x, y, dmin2).tolist(), n - count)
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


def _place_window(out: np.ndarray, radius: float, d_min: float, block: int, prefix: int,
                  rng: np.random.Generator) -> int:
    """Fill the leading run of ``out`` (slots, n, 2) from one dart block per slot, in lockstep.

    Slot s is placed as ``sample_hardcore_disk`` places a layout from the
    s-th of ``slots`` consecutive blocks of the rng, if that block places all
    n points: as a fresh layout, by the greedy in dart order over its packed
    conflict bits.  The slots are judged in order, each on its first
    ``prefix`` darts and, only if they fall short, on its whole block; the
    greedy accepts darts in order, so a prefix that places all n points
    places what the block does.  Returns the number of slots placed before
    the first that falls short, with the rng just past their blocks.
    """
    slots, n = out.shape[:2]
    dmin2 = d_min * d_min
    state = rng.bit_generator.state
    uniforms = rng.random((slots, 2, block))  # per block: radius uniforms, then angle uniforms
    darts = _disk_points(uniforms[:, 0], uniforms[:, 1], radius)
    x, y = darts[..., 0], darts[..., 1]
    accepted = []
    for s, clear in enumerate(_clear_bits(x[:, :prefix], y[:, :prefix], dmin2).tolist()):
        points = _greedy(clear, n)
        if len(points) < n and prefix < block:
            points = _greedy(_clear_bits(x[s], y[s], dmin2).tolist(), n)
        if len(points) < n:
            break
        accepted.append(points)
    kept = len(accepted)
    if kept:
        out[:kept] = darts[np.arange(kept)[:, None], accepted]
    if kept < slots:
        rng.bit_generator.state = state
        rng.random(2 * block * kept)
    return kept


def sample_swarm_layout(config: ScenarioConfig, rng: np.random.Generator,
                        trials: int) -> np.ndarray:
    """Planar UAV positions (trials, N, 2) of ``trials`` hard-core swarms; head is UAV 0.

    The swarms, and the rng state after them, are those of one
    ``sample_hardcore_disk`` placement per trial in trial order; every UAV
    flies at the config's ``swarm_altitude_m``.  That sampler places the
    first trial.  Only if its placement took one block of darts, and its last
    point is among the block's first ``prefix`` darts, do windows place the
    next trials from their first blocks in lockstep (``_place_window``), one
    window after another while each places all its slots.  The first trial
    a window leaves, and every trial after it, is placed by the sampler.
    """
    n, radius, d_min = config.n_uavs, config.swarm_radius_m, config.min_separation_m
    positions = np.empty((trials, n, 2))
    start = 0
    if trials > 1:
        start = 1
        bit_generator = rng.bit_generator
        before = bit_generator.state
        positions[0] = sample_hardcore_disk(n, radius, d_min, rng)
        after = bit_generator.state
        block = min(_CANDIDATE_BLOCK, _ATTEMPTS_PER_POINT)
        prefix = min(block, max(8, 2 * n))
        # redraw the first block: did the placement end there, within the prefix?
        bit_generator.state = before
        darts = sample_uniform_disk(block, radius, rng)[:prefix]
        opened = bit_generator.state == after and bool(
            (darts == positions[0, -1]).all(axis=1).any())
        bit_generator.state = after
        slots = max(1, _WINDOW_PAIRS // (prefix * prefix))
        while opened and start < trials:
            window = min(slots, trials - start)
            kept = _place_window(positions[start : start + window], radius, d_min, block, prefix,
                                 rng)
            start += kept
            opened = kept == window
    for b in range(start, trials):
        positions[b] = sample_hardcore_disk(n, radius, d_min, rng)
    return positions
