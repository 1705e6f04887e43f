"""Monte Carlo estimation of delivery reliability for all protocol variants.

Each trial draws fresh geometry and fading, runs the selected protocol, and
reports each UAV's decode probability after the cellular stage and after
each relay round; ``estimate`` averages that into the reliability curve, one
estimate per stage.  The cellular stage and the relay rounds of
``multi_round`` are sampled, so their probabilities are 0 or 1.  The split
protocols (``proposed``, ``head_relay``) average their one relay round
exactly over its Rayleigh fading, given the trial's geometry and relay set,
so their estimates have a smaller standard error for the same trials.
Every trial owns an rng seeded from (master_seed, trial_index), so estimates
are bit-identical for a given seed no matter how many worker processes share
the load.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import fading, geometry, scenario
from .scenario import ScenarioConfig

__all__ = [
    "Protocol",
    "PROPOSED",
    "NEAREST_GBS",
    "ALL_GBS",
    "HEAD_RELAY",
    "multi_round",
    "ReliabilityEstimate",
    "Phase1CountDistribution",
    "run_trial",
    "estimate",
    "phase1_count_distribution",
]


@dataclass(frozen=True)
class Protocol:
    """A delivery protocol variant.

    ``proposed``     split slot: all serving GBSs with head-phased weights,
                     then every decoder relays.
    ``nearest_gbs``  the single closest serving GBS transmits for the whole
                     slot; no relaying.
    ``all_gbs``      all serving GBSs transmit (head-phased weights) for the
                     whole slot; no relaying.
    ``head_relay``   like ``proposed`` but only the head relays.
    ``multi_round``  whole-slot cellular stage, then whole-slot relay
                     rounds over fixed geometry with fresh fading;
                     ``with_head=False`` drops the head's pilot so GBS
                     transmissions are unweighted.

    ``rounds`` is the number of relay rounds after the cellular stage.
    """

    name: str
    rounds: int = 0
    with_head: bool = True

    def __post_init__(self):
        if self.name == "multi_round" and self.rounds < 1:
            raise ValueError("multi_round requires rounds >= 1")

    @property
    def label(self) -> str:
        if self.name != "multi_round":
            return self.name
        suffix = "" if self.with_head else "_nohead"
        return f"multi_round{self.rounds}{suffix}"


PROPOSED = Protocol("proposed", rounds=1)
NEAREST_GBS = Protocol("nearest_gbs")
ALL_GBS = Protocol("all_gbs")
HEAD_RELAY = Protocol("head_relay", rounds=1)


def multi_round(rounds: int, with_head: bool = True) -> Protocol:
    return Protocol("multi_round", rounds=rounds, with_head=with_head)


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Sample mean of the per-trial decoded fraction, with its standard error."""

    eta_mean: float
    std_err: float  # NaN when trials == 1
    trials: int
    seed: int


@dataclass(frozen=True)
class Phase1CountDistribution:
    """Empirical pmf of the cellular-stage decoder count over {0..N}."""

    pmf: np.ndarray
    trials: int
    seed: int

    @property
    def mean_count(self) -> float:
        return float((np.arange(len(self.pmf)) * self.pmf).sum())

    @property
    def mode(self) -> int:
        return int(np.argmax(self.pmf))

    @property
    def std_err_count(self) -> float:
        second = float((np.arange(len(self.pmf)) ** 2 * self.pmf).sum())
        var = max(0.0, second - self.mean_count**2)
        if self.trials < 2:
            return math.nan
        return math.sqrt(var / self.trials)


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """The rng owned by one trial; depends only on (master_seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, index)))


def run_trial(config: ScenarioConfig, protocol: Protocol, rng: np.random.Generator) -> np.ndarray:
    """Decode probabilities of one trial on freshly sampled geometry and fading.

    Returns a float (1 + relay rounds, N) array: row 0 is the cellular stage
    and row r the probability that each UAV has decoded by relay round r.
    The protocol sets the cellular stage's serving set, combining and
    threshold, then the number of relay rounds, who relays and the D2D
    threshold; only UAVs that have not decoded listen.  Sampled stages give
    0 or 1: the cellular stage, and every relay round of ``multi_round``.
    The split protocols' one relay round is not sampled: a listener gets its
    decode probability exact over the D2D fading (``fading.phase2_decode_probs``),
    0 when nobody relays.  Draw order is fixed (GBS layout, swarm layout,
    cellular fading, then one D2D draw per sampled round that has both relays
    and listeners), so protocols on one trial seed share the cellular stage
    when they share its serving set, combining and threshold.
    """
    split = protocol.name in ("proposed", "head_relay")
    gbs = geometry.sample_gbs_layout(config, rng)
    swarm = geometry.sample_swarm_layout(config, rng)
    gains = fading.draw_phase1(config, rng)

    serving = gbs.available_idx
    if protocol.name == "nearest_gbs":
        serving = serving[[np.argmin(gbs.center_distances[serving])]]
    combining = "head" if protocol.with_head else "unit"
    sinrs = fading.phase1_sinrs(gbs, swarm, gains, config, combining, serving)
    cell_threshold = (
        scenario.phase1_threshold(config) if split else scenario.full_slot_cell_threshold(config)
    )
    decoded = sinrs >= cell_threshold
    probs = np.empty((1 + protocol.rounds, config.n_uavs))
    probs[0] = decoded
    if protocol.rounds == 0:
        # past its rate cap the unused D2D threshold would raise ConfigError
        return probs

    d2d_threshold = (
        scenario.phase2_threshold(config) if split else scenario.full_slot_d2d_threshold(config)
    )
    speakers = np.ones(config.n_uavs, dtype=bool)
    if protocol.name == "head_relay":
        speakers = np.arange(config.n_uavs) == swarm.head_idx
    for r in range(1, protocol.rounds + 1):
        probs[r] = decoded
        relays = np.flatnonzero(decoded & speakers)
        receivers = np.flatnonzero(~decoded)
        if len(relays) == 0 or len(receivers) == 0:
            continue
        if split:
            probs[r, receivers] = fading.phase2_decode_probs(swarm, relays, config, receivers,
                                                             d2d_threshold)
        else:
            gains = fading.draw_phase2(len(receivers), len(relays), rng)
            sinrs = fading.phase2_sinrs(swarm, relays, gains, config, receivers=receivers)
            decoded[receivers] = sinrs >= d2d_threshold
            probs[r] = decoded
    return probs


def _decoded_counts(config, protocol, master_seed, start, stop):
    """Expected decoded counts for trials [start, stop), shape (trials, 1 + relay rounds)."""
    # a squared length past the float range overflows to inf, which clears
    # every separation in placement and gives a path gain of 0: the limits
    # wanted, so the overflow is not reported
    with np.errstate(over="ignore"):
        return np.array(
            [
                run_trial(config, protocol, trial_rng(master_seed, i)).sum(axis=1)
                for i in range(start, stop)
            ]
        )


@functools.cache
def _pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of ``workers`` processes, started on first use and kept."""
    return ProcessPoolExecutor(max_workers=workers)


def _map_chunks(worker, trials: int, workers: int):
    """Run worker(start, stop) over a fixed chunking of range(trials).

    Chunk boundaries depend only on ``trials``, never on ``workers``, and
    results come back in chunk order, so the reduction order (and the
    result, bit for bit) is independent of the worker count.  One pool per
    worker count serves every call in the process.
    """
    chunk = max(1, min(256, math.ceil(trials / 16)))
    spans = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    if workers <= 1:
        return [worker(s, e) for s, e in spans]
    futures = [_pool(workers).submit(worker, s, e) for s, e in spans]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:  # after a failed chunk, leave no queued work in the pool
            f.cancel()


def _gather_counts(config, protocol, trials, master_seed, workers):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worker = functools.partial(_decoded_counts, config, protocol, master_seed)
    return np.concatenate(_map_chunks(worker, trials, workers))


def estimate(
    config: ScenarioConfig,
    protocol: Protocol,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[ReliabilityEstimate]:
    """Mean decoded fraction after the cellular stage and after each relay round.

    Entry r is after relay round r, so entry ``protocol.rounds`` (the last)
    is the protocol's final figure.  The entries share their trials, and
    relay round r of an R-round trial draws what an r-round trial draws, so
    entry r is the last entry of an r-round run, bit for bit.  Deterministic
    in (config, protocol, trials, master_seed) whatever the worker count.
    """
    curve = []
    for counts in _gather_counts(config, protocol, trials, master_seed, workers).T:
        fractions = counts / config.n_uavs
        std_err = math.nan if trials == 1 else float(fractions.std(ddof=1) / math.sqrt(trials))
        curve.append(ReliabilityEstimate(eta_mean=float(fractions.mean()), std_err=std_err,
                                         trials=trials, seed=master_seed))
    return curve


def phase1_count_distribution(
    config: ScenarioConfig,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> Phase1CountDistribution:
    """Empirical distribution of the cellular-stage decoder count.

    The trials stop after the cellular stage; the relay draws come after
    the cellular ones, so the counts are those of full ``PROPOSED`` trials.
    """
    cellular = replace(PROPOSED, rounds=0)
    counts = _gather_counts(config, cellular, trials, master_seed, workers)
    pmf = np.bincount(counts[:, 0].astype(int), minlength=config.n_uavs + 1) / trials
    return Phase1CountDistribution(pmf=pmf, trials=trials, seed=master_seed)
