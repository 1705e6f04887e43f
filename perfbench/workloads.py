"""The benchmark's workloads: lists of swarmrel CLI commands, one list per pass.

A pass is made from ``(seed, pass index)`` alone, so the first k passes of a
run repeat exactly for a seed.  Why each workload exists, and which layer it
stresses, is in perfbench/README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "configs" / "reference.cfg"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the benchmark knows about it."""

    argv: tuple[str, ...]
    check: str = ""  # extra output check: "engines", "rounds", "pmf" or ""
    trials: int = 0  # Monte Carlo trials it runs
    points: int = 0  # operating points it evaluates with the closed form alone
    op: bool = True  # counts as one operation for the latency percentiles


class ConfigDir:
    """Writes variants of configs/reference.cfg into a scratch directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.reference = REFERENCE.read_text(encoding="utf-8").splitlines()
        self._count = 0

    def write(self, **overrides) -> str:
        lines = []
        for line in self.reference:
            key = line.split("=", 1)[0].strip()
            if "=" in line and not line.lstrip().startswith("#") and key in overrides:
                value = overrides.pop(key)
                line = f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
            lines.append(line)
        if overrides:
            raise KeyError(f"not in {REFERENCE.name}: {sorted(overrides)}")
        self._count += 1
        path = self.directory / f"point{self._count}.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return os.fspath(path)


def _seed(rng) -> str:
    return str(int(rng.integers(2**32)))


# --- mc-reference: criterion-3 grid, single-threaded N=40 --------------------

MC_REFERENCE_TRIALS = 100
MC_REFERENCE_BITS = (8, 16, 24, 32, 40)


def mc_reference(rng, configs: ConfigDir, workers: int) -> list[Command]:
    commands = []
    for m_available, m_occupied in ((8, 8), (8, 2)):
        path = configs.write(m_available=m_available, m_occupied=m_occupied)
        argv = ("sweep", "--config", path, "--var", "message_bits",
                "--values", ",".join(map(str, MC_REFERENCE_BITS)), "--engine", "both",
                "--trials", str(MC_REFERENCE_TRIALS), "--seed", _seed(rng),
                "--workers", str(workers))
        commands.append(Command(argv, check="engines",
                                trials=MC_REFERENCE_TRIALS * len(MC_REFERENCE_BITS)))
    return commands


# --- mc-small-swarm: criterion-6 scenario, multi-round relaying ------------

SMALL_SWARM_TRIALS = 250
SMALL_SWARM_ROUNDS = (1, 2, 3, 4, 5, 6)


def mc_small_swarm(rng, configs: ConfigDir, workers: int) -> list[Command]:
    path = configs.write(n_uavs=10, message_bits=150.0)
    common = ("--config", path, "--trials", str(SMALL_SWARM_TRIALS), "--workers", str(workers))
    t = SMALL_SWARM_TRIALS
    # one operation is one multi-round curve; percentiles over a mix of
    # command kinds would jump between kinds from run to run
    commands = [Command(("compare", *common, "--seed", _seed(rng)), trials=4 * t, op=False)]
    # a sweep over rounds prints eta after every round, which the monotone
    # check needs; its rounds=6 row is `simulate --rounds 6` on the same seed
    for flags in ((), ("--no-head",)):
        argv = ("sweep", *common, "--seed", _seed(rng), "--var", "rounds",
                "--values", ",".join(map(str, SMALL_SWARM_ROUNDS)), "--engine", "mc",
                "--protocol", "multi_round", *flags)
        commands.append(Command(argv, check="rounds", trials=len(SMALL_SWARM_ROUNDS) * t))
    commands.append(Command(("dist-k", *common, "--seed", _seed(rng)), check="pmf", trials=t,
                            op=False))
    return commands


# --- analytic-grid: closed form only, points drawn from the seed -------------

GRID_POINTS = 40
GRID_TAU_RADII = 2
TAU_GRID = ("--start", "0.0001", "--stop", "0.0009", "--step", "0.0001")
TAU_GRID_POINTS = 9


def analytic_grid(rng, configs: ConfigDir, workers: int) -> list[Command]:
    commands = []
    for _ in range(GRID_POINTS):
        path = configs.write(
            message_bits=float(rng.uniform(8.0, 200.0)),
            tau_phase1_s=float(rng.uniform(1e-4, 9e-4)),
            swarm_radius_m=float(rng.uniform(20.0, 50.0)),
            n_uavs=int(rng.choice((10, 20, 40))),
            m_available=int(rng.choice((4, 8))),
            m_occupied=int(rng.choice((2, 4, 8))),
            rician_k=float(rng.uniform(0.0, 30.0)),
        )
        commands.append(Command(("analyze", "--config", path), points=1))
    for _ in range(GRID_TAU_RADII):
        path = configs.write(swarm_radius_m=float(rng.uniform(20.0, 50.0)))
        argv = ("optimize-tau", "--config", path, *TAU_GRID, "--engine", "analytic")
        # op latency is that of one analyze, one operating point
        commands.append(Command(argv, points=TAU_GRID_POINTS, op=False))
    return commands


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator, ConfigDir, int], list[Command]]
    # Pool size whose CSV a traced run checks against one worker's, and whose
    # speed-up it measures.  Untraced runs use one worker: at two, the pool's
    # two processes take the slower CPU's speed, and over six seeds the
    # spread of mc-small-swarm's timings reached 0.21-0.26, against 0.10-0.18
    # at one worker in the same minutes.
    workers: int
    pass_seconds: float  # nominal pass time at one worker on the 2-core host
    ops_per_pass: int  # commands per pass that count as operations

    def commands(self, seed: int, index: int, configs: ConfigDir, workers: int) -> list[Command]:
        return self.build(np.random.default_rng((seed, index)), configs, workers)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-reference", mc_reference, workers=1, pass_seconds=1.5,
                 ops_per_pass=2),
        Workload("mc-small-swarm", mc_small_swarm, workers=2, pass_seconds=1.5,
                 ops_per_pass=2),
        Workload("analytic-grid", analytic_grid, workers=1, pass_seconds=0.45,
                 ops_per_pass=GRID_POINTS),
    )
}
