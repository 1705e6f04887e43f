"""Run passes of one workload in this process, through ``swarmrel.cli.main``.

Also runnable on its own, so that a traced run can time the same passes
untraced in a fresh process, where the program's caches start as cold as
they did for the traced passes:

    python3 perfbench/phase.py --workload NAME --seed N --passes K --workers W

prints one JSON object with the wall time of each pass and the seconds and
CSV of each command.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import checks
from workloads import ROOT, WORKLOADS, Command, ConfigDir

sys.path.insert(0, str(ROOT / "src"))
from swarmrel import cli  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
# per CPU: enough passes for medians, and enough operations for a tail
MIN_PASSES = 3
MIN_OPS = 11


@dataclass
class Outcome:
    command: Command
    seconds: float
    exit_code: int
    csv: str
    verdict: checks.Verdict


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome]
    cpu: int | None = None  # the CPU a one-worker pass was pinned to


def run_command(command: Command) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(command.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback, which the shell reports as exit 1
        code = 1
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    if code != 0:
        print(f"command failed ({code}): {' '.join(command.argv)}\n{err.getvalue()}",
              file=sys.stderr)
    return seconds, code, out.getvalue()


def cpu_groups(workers: int) -> list:
    """The CPUs one-worker passes are pinned to in turn; [None] for no pinning."""
    return sorted(os.sched_getaffinity(0)) if workers == 1 else [None]


def passes_for(workload: str, seconds: float) -> int:
    """Pass count of an untraced one-worker run that takes about ``seconds`` on the 2-core host.

    The count is fixed in advance, whole rounds over the CPUs, with at least
    MIN_PASSES passes and MIN_OPS operations per CPU.  A run's commands, and
    so its attempted and failed counts, then depend on the seed alone and
    not on how fast the host happened to be.
    """
    wl = WORKLOADS[workload]
    groups = len(cpu_groups(1))
    rounds = max(MIN_PASSES, math.ceil(MIN_OPS / wl.ops_per_pass),
                 round(seconds / (wl.pass_seconds * groups)))
    return rounds * groups


def run_phase(workload: str, seed: int, workers: int, passes: int, tracer=None) -> list[Pass]:
    """Run ``passes`` whole passes of the workload.

    At one worker, pass i is pinned to the i-th CPU in turn.  On a shared
    host one CPU can run 40% slower than another for minutes, so an unpinned
    process would take the speed of whichever CPU it landed on; metrics are
    taken per CPU and averaged (see run.end_to_end).
    """
    wl = WORKLOADS[workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    groups = cpu_groups(workers)
    done: list[Pass] = []
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            configs = ConfigDir(tmp)
            while len(done) < passes:
                cpu = groups[len(done) % len(groups)]
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                commands = wl.commands(seed, len(done), configs, workers)
                outcomes = []
                t0 = perf_counter()
                for command in commands:
                    if tracer is not None:
                        tracer.command += 1
                    secs, code, text = run_command(command)
                    outcomes.append(Outcome(command, secs, code, text, None))
                wall = perf_counter() - t0
                for o in outcomes:
                    o.verdict = checks.check(o.command.check, o.exit_code, o.csv)
                done.append(Pass(wall, outcomes, cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return done


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    args = p.parse_args(argv)
    done = run_phase(args.workload, args.seed, args.workers, args.passes)
    json.dump([{"wall": ps.wall, "commands": [[o.seconds, o.csv] for o in ps.outcomes]}
               for ps in done], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
