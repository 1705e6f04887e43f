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
where those calls leave it.  They are judged in lockstep windows, B
consecutive blocks of 64 darts a slot, drawn at once.  B is handed on from
the run's previous chunk, and a chunk handed one of at most two blocks
opens a window at its first trial; otherwise, as in a run's first chunk,
the sampler places that trial and reports B, the blocks it drew.  A slot
that takes fewer blocks ends its window and is kept, the rng rewound past
it; the sampler places one that needs more, and a lone trial left after
the windows.  Past two blocks, as dense swarms draw, the sampler places
every trial.  B decides only which route places a trial, never a value.
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
# dart pairs a window judges at once: it bounds its (slots, darts, darts or
# N) temporaries below 256 kB, past which each one costs twice as much, and
# gives an N=40 window the seven slots of a 7-trial chunk handed its B; and
# the most blocks a window slot takes, past which block counts vary too
# much for lockstep to pay
_WINDOW_PAIRS = 7 << 12
_WINDOW_BLOCKS = 2
# darts per point before a layout counts as wedged, and layouts drawn before
# placement gives up
_ATTEMPTS_PER_POINT = 10_000
_LAYOUT_RETRIES = 100


class PlacementError(RuntimeError):
    """Hard-core placement failed within the attempt budget."""


def _disk_points(u_radius: np.ndarray, u_angle: np.ndarray, radius: float, out=None) -> np.ndarray:
    """Points (*u.shape, 2), or ``out``, of the disk at radius·sqrt(u_radius), angle 2π·u_angle."""
    r = radius * np.sqrt(u_radius)
    phi = 2.0 * np.pi * u_angle
    points = np.empty(r.shape + (2,)) if out is None else out
    np.multiply(r, np.cos(phi), out=points[..., 0])
    np.multiply(r, np.sin(phi), out=points[..., 1])
    return points


def sample_uniform_disk(size, radius: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform points on the disk of the given radius, as (*size, 2).

    It draws ``size`` radius uniforms, then ``size`` angle uniforms.
    """
    u_radius = rng.random(size)
    return _disk_points(u_radius, rng.random(size), radius)


def _far(x: np.ndarray, y: np.ndarray, px: np.ndarray, py: np.ndarray, dmin2: float) -> np.ndarray:
    """Whether each dart (x, y) lies at least d_min from each point (px, py), broadcast."""
    dx, dy = x - px, y - py
    dx *= dx
    dy *= dy
    dx += dy
    return dx >= dmin2


def _clear_bits(x: np.ndarray, y: np.ndarray, dmin2: float) -> np.ndarray:
    """uint64 whose bit i of entry j is set when dart i lies at least d_min from dart j.

    The darts, at most 64, lie along the last axis.
    """
    far = _far(x[..., :, None], y[..., :, None], x[..., None, :], y[..., None, :], dmin2)
    bits = np.packbits(far, axis=-1, bitorder="little")
    packed = np.zeros(bits.shape[:-1] + (8,), dtype=np.uint8)
    packed[..., : bits.shape[-1]] = bits
    return packed.view("<u8")[..., 0]


def _greedy(clear: list[int], room: int, darts: int) -> int:
    """Greedy inhibition in dart order over the first ``darts`` darts, as bits: bit k is set
    when dart k is among the first ``room`` darts clear of all accepted before it.

    Bit i of ``clear[j]`` is set when dart i lies at least d_min from dart j.
    """
    live = (1 << darts) - 1  # bit j set: dart j is still clear of every accepted dart
    taken = 0
    while live and room:
        bit = live & -live  # the first live dart
        taken |= bit
        room -= 1
        live &= clear[bit.bit_length() - 1] & ~bit
    return taken


def sample_hardcore_disk(n: int, radius: float, d_min: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Sequential inhibition: uniform darts rejected within d_min of a point.

    Darts are drawn in blocks of up to 64 and judged in draw order, as if one
    at a time: a block first drops the darts too close to a point placed
    before it, then accepts the survivors greedily, each accepted dart
    dropping the later survivors too close to it.  A point gets
    ``_ATTEMPTS_PER_POINT`` darts; if the layout wedges (some point cannot be
    placed) the whole layout is redrawn, up to ``_LAYOUT_RETRIES`` times, after
    which ``PlacementError`` is raised rather than relaxing the separation
    constraint.  Returns the placement (n, 2) and the dart blocks its last
    layout drew.
    """
    dmin2 = d_min * d_min
    px, py = np.empty((2, n))
    most = 0
    for _ in range(_LAYOUT_RETRIES):
        count = blocks = 0
        budget = _ATTEMPTS_PER_POINT
        while count < n:
            block = min(_CANDIDATE_BLOCK, budget)
            if block == 0:
                break
            darts = sample_uniform_disk(block, radius, rng)
            blocks += 1
            budget -= block
            x, y = darts[:, 0], darts[:, 1]
            if count:
                keep = _far(x[:, None], y[:, None], px[:count], py[:count], dmin2).all(axis=1)
                x, y = x[keep], y[keep]
                if len(x) == 0:
                    continue
            clear = _clear_bits(x, y, dmin2).tolist()
            taken = np.array([_greedy(clear, n - count, len(x))], "<u8").view(np.uint8)
            taken = np.unpackbits(taken, count=len(x), bitorder="little").view(bool)
            x, y = x[taken], y[taken]
            px[count : count + len(x)] = x
            py[count : count + len(x)] = y
            count += len(x)
            # the darts left in a block after an acceptance are already paid for
            budget = _ATTEMPTS_PER_POINT
        if count == n:
            return np.column_stack([px, py]), blocks
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


def _place_window(out: np.ndarray, radius: float, d_min: float, blocks: int,
                  rng: np.random.Generator) -> tuple[int, int]:
    """Fill leading slots of ``out`` (trials, n, 2) from ``blocks`` dart blocks each, in lockstep.

    The rng's next runs of ``blocks`` blocks, one a slot, are drawn at
    once, and block j of every slot is judged at once, as
    ``sample_hardcore_disk`` judges a layout's block j: its darts against
    the slot's accepted points, padded with inf, then the greedy over the
    survivors.  A first block alone (``blocks`` 1) is judged on its first
    max(8, 2n) darts and, only if they fall short, on the whole block,
    whose other darts are formed then: the greedy accepts darts in order.
    The first slot that does not take ``blocks`` blocks ends the window.
    It is kept if it took fewer, else placed by the sampler from its first
    block on.  A slot's first block accepts its first dart, so at
    ``_WINDOW_BLOCKS`` 2 every block it judges has the sampler's full size.
    A window may open at a chunk's first trial, on the B handed on from the
    chunk before; its slots are the sampler's placements at any B.  Returns
    the slots filled and the blocks the last drew, the rng just past them.
    """
    n = out.shape[1]
    block = min(_CANDIDATE_BLOCK, _ATTEMPTS_PER_POINT)
    width = min(block, max(8, 2 * n)) if blocks == 1 else block
    slots = min(len(out), max(1, _WINDOW_PAIRS // (width * max(width, n))))
    dmin2 = d_min * d_min
    state = rng.bit_generator.state
    uniforms = rng.random((slots, blocks, 2, block))  # per block: radius, then angle uniforms
    darts = np.empty((slots, blocks, block, 2))  # a lone first block's tail: formed if judged
    _disk_points(uniforms[..., 0, :width], uniforms[..., 1, :width], radius, darts[..., :width, :])
    out[:slots] = np.inf
    px, py = out[:slots, :, 0], out[:slots, :, 1]  # each slot's accepted points, then inf
    count, rows = [0] * slots, np.arange(slots)[:, None]
    # the slots filled, the blocks the last drew, and whether the sampler places it
    filled, used, short = slots, blocks, False
    for j in range(blocks):
        judged = filled - (used <= j)  # the slot that ends the window is judged no further
        if not judged:
            break
        x, y = darts[:judged, j, :, 0], darts[:judged, j, :, 1]
        if j == 0:
            survivors = [width] * judged
            clear = _clear_bits(x[:, :width], y[:, :width], dmin2).tolist()
        else:
            keep = _far(x[:, :, None], y[:, :, None], px[:judged, None, :], py[:judged, None, :],
                        dmin2).all(axis=2)
            survivors = keep.sum(axis=1).tolist()
            order = np.argsort(~keep, axis=1, kind="stable")[:, : max(survivors)]
            x, y = x[rows[:judged], order], y[rows[:judged], order]
            clear = _clear_bits(x, y, dmin2).tolist()
        before, taken = count[:judged], []
        for s in range(judged):
            mask = _greedy(clear[s], n - count[s], survivors[s])
            if j == 0 and width < block and mask.bit_count() < n:
                _disk_points(uniforms[s, 0, 0], uniforms[s, 0, 1], radius, darts[s, 0])
                mask = _greedy(_clear_bits(x[s], y[s], dmin2).tolist(), n, block)
            taken.append(mask)
            count[s] += mask.bit_count()
            done = count[s] == n
            if done != (j == blocks - 1):
                filled, used, short = s + 1, j + 1, not done
                break
        # each slot's accepted darts, in dart order, follow its points so far
        packed = np.array(taken, dtype="<u8").view(np.uint8).reshape(-1, 8)
        chosen = np.unpackbits(packed, axis=1, count=x.shape[1], bitorder="little").view(bool)
        slot, dart = np.nonzero(chosen)
        cols = np.cumsum(chosen, axis=1)[slot, dart] + np.array(before)[slot] - 1
        px[slot, cols] = x[slot, dart]
        py[slot, cols] = y[slot, dart]
    drawn = blocks * (filled - 1) + (0 if short else used)
    if drawn < blocks * slots:
        rng.bit_generator.state = state
        rng.random(2 * block * drawn)
    if short:
        out[filled - 1], used = sample_hardcore_disk(n, radius, d_min, rng)
    return filled, used


def sample_swarm_layout(config: ScenarioConfig, rng: np.random.Generator, trials: int,
                        blocks: int | None = None) -> tuple[np.ndarray, int | None]:
    """Planar UAV positions (trials, N, 2) of ``trials`` hard-core swarms, and the B they end on.

    The swarms, and the rng state after them, are those of one
    ``sample_hardcore_disk`` placement per trial in trial order, whatever
    ``blocks`` is; every UAV flies at the config's ``swarm_altitude_m``,
    and UAV 0 is the head.  ``blocks`` is B, the dart blocks a window slot
    draws (``_place_window``), as the run's previous chunk ended on it.
    Handed a B of at most ``_WINDOW_BLOCKS``, the chunk opens a window at
    its first trial; else, or without one, the sampler places the first
    trial and its blocks are B.  A window that fills one slot passes on the
    blocks that slot drew as the next B, and so does one whose last slot
    drew more than ``_WINDOW_BLOCKS``; once B passes that, the sampler
    places the rest, and a lone trial left after the windows.  Returns the
    B a next window would take.  B decides which route places a trial,
    never a value.
    """
    n, radius, d_min = config.n_uavs, config.swarm_radius_m, config.min_separation_m
    positions = np.empty((trials, n, 2))
    start = 0
    if trials and (blocks is None or blocks > _WINDOW_BLOCKS):
        positions[0], blocks = sample_hardcore_disk(n, radius, d_min, rng)
        start = 1
    while trials - start > 1 and blocks <= _WINDOW_BLOCKS:
        filled, used = _place_window(positions[start:], radius, d_min, blocks, rng)
        start += filled
        blocks = used if filled == 1 or used > _WINDOW_BLOCKS else blocks
    for b in range(start, trials):
        positions[b] = sample_hardcore_disk(n, radius, d_min, rng)[0]
    return positions, blocks
