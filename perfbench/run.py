"""swarmrel benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, nothing is installed.  With ``--trace 0`` a fixed number of the workload's
passes, sized to take about S seconds on the 2-core host, run untraced and
the end-to-end metrics are reported.  With
``--trace 1`` a fixed number of passes, derived from S, run with spans at
``--workers 1``; the same passes then run untraced in fresh processes, at
one worker for the tracing overhead and, where the workload uses more
workers, at that count for the parallel efficiency and the worker-count
contract.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import checks
from spans import Tracer, block_tail, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # per CPU
SE_TARGET = 1e-3
CHILD_TIMEOUT_S = 170

# set-up as a user pays it: a fresh interpreter imports swarmrel and makes the
# first, cold closed-form call, which fills the pair-distance caches
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import swarmrel
from swarmrel import analytic, scenario
analytic.reliability(scenario.validate(scenario.read_config(sys.argv[1])))
print(time.perf_counter() - t0)
"""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(probes_per_cpu: int = SETUP_PROBES) -> float:
    """Mean over CPUs of the median set-up time of fresh interpreters on that CPU."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "configs" / "reference.cfg")]
    cpus = sorted(os.sched_getaffinity(0))
    times = defaultdict(list)
    try:
        for i in range(1 + probes_per_cpu * len(cpus)):
            cpu = cpus[i % len(cpus)]
            os.sched_setaffinity(0, {cpu})  # the probe inherits it
            out = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                 check=True, timeout=CHILD_TIMEOUT_S).stdout
            if i:  # the first one may compile bytecode
                times[cpu].append(float(out))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(statistics.median(t) for t in times.values())


def untraced_subprocess(workload, seed, passes, workers):
    argv = [sys.executable, str(HERE / "phase.py"), "--workload", workload, "--seed", str(seed),
            "--passes", str(passes), "--workers", str(workers)]
    out = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return json.loads(out)


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def var_per_trial(passes) -> float:
    """Per-trial variance (std_err^2 * trials) summed over a pass's eta rows, mean over passes."""
    rows = [r for p in passes for o in p.outcomes for r in checks.mc_rows(o.csv)]
    return sum(t * se * se for t, se in rows) / len(passes)


def per_cpu(passes, stat):
    """Mean over CPUs of ``stat`` of the passes pinned to each; unpinned passes are one group."""
    groups = defaultdict(list)
    for p in passes:
        groups[p.cpu].append(p)
    return statistics.fmean(stat(g) for g in groups.values())


def op_seconds(passes):
    return [o.seconds for p in passes for o in p.outcomes if o.command.op]


def pass_rate(p) -> float:
    """MC trials per second of a pass's MC commands; operating points per second without them."""
    mc = [o for o in p.outcomes if o.command.trials]
    if mc:
        return sum(o.command.trials for o in mc) / sum(o.seconds for o in mc)
    return sum(o.command.points for o in p.outcomes) / sum(o.seconds for o in p.outcomes)


def exact_seconds(p) -> float:
    """Time a pass spends in commands without sampling error."""
    return sum(o.seconds for o in p.outcomes if not o.command.trials)


def end_to_end(passes, setup_s) -> tuple[dict, dict]:
    """End-to-end metric values, and the facts that qualify them.

    Every timing is a median over the passes on one CPU, averaged over CPUs,
    so a burst on the shared host moves a few passes and not the figure.
    """
    def median_of(stat):
        return per_cpu(passes, lambda g: statistics.median(stat(p) for p in g))

    rate = median_of(pass_rate)
    mc = any(o.command.trials for p in passes for o in p.outcomes)
    values = {
        "wall_s": median_of(lambda p: p.wall),
        "trials_per_s": rate,
        "time_to_se_s": median_of(exact_seconds)
        + (var_per_trial(passes) / SE_TARGET**2 / rate if mc else 0.0),
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * per_cpu(passes, lambda g: statistics.median(op_seconds(g))),
        "op_tail_ms": 1e3 * per_cpu(passes, lambda g: block_tail(op_seconds(g))[0]),
        "peak_rss_mb": peak_rss_mb(),
    }
    facts = {"passes": len(passes), "cpus": len({p.cpu for p in passes}),
             "op_tail": [block_tail(op_seconds([p for p in passes if p.cpu == c]))[1:]
                         for c in sorted({p.cpu for p in passes}, key=str)]}
    return values, facts


def traced(workload, seed, seconds):
    from phase import run_phase  # imports swarmrel

    wl = WORKLOADS[workload]
    # a fixed pass count, so exact counts repeat for a seed and --seconds
    k = 2 * max(1, round(0.2 * seconds / wl.pass_seconds))
    tracer = Tracer()
    with tracer.patch():
        passes = run_phase(workload, seed, 1, k, tracer=tracer)
    tracer.write(HERE / "out" / f"spans-{workload}-{seed}.json")
    plain = untraced_subprocess(workload, seed, k, 1)
    wide = untraced_subprocess(workload, seed, k, wl.workers) if wl.workers > 1 else None

    mismatches = []
    for i, p in enumerate(passes):
        for j, o in enumerate(p.outcomes):
            if o.csv != plain[i]["commands"][j][1]:
                mismatches.append(f"pass {i} command {j}: traced CSV differs from untraced")
            if wide and o.csv != wide[i]["commands"][j][1]:
                mismatches.append(f"pass {i} command {j}: workers={wl.workers} CSV differs "
                                  "from workers=1")
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["mc.var_per_trial"] = var_per_trial(passes)
    if wide:
        eff = [plain[i]["commands"][j][0] / (wl.workers * wide[i]["commands"][j][0])
               for i, p in enumerate(passes) for j, o in enumerate(p.outcomes) if o.command.trials]
        metrics["mc.parallel_eff"] = statistics.median(eff)
    else:
        metrics["mc.parallel_eff"] = 0.0
    traced_wall = sum(p.wall for p in passes)
    plain_wall = sum(p["wall"] for p in plain)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / k
    print(f"traced {k} passes: {traced_wall:.3f} s traced, {plain_wall:.3f} s untraced, "
          f"overhead {100 * (traced_wall / plain_wall - 1):.1f}%")
    return passes, metrics, mismatches


def report(workload, passes, metrics, units, extra_failures):
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.verdict.failed for o in outcomes) + len(extra_failures)
    correct = not extra_failures and not any(o.verdict.value_errors for o in outcomes)
    shown = 0
    for o in outcomes:
        errors = o.verdict.value_errors + o.verdict.format_errors
        if errors and shown < 5:
            shown += 1
            print(f"FAILED {o.command.argv[0]}: {errors[0]}"
                  + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""))
    for line in extra_failures[:5]:
        print(f"FAILED {line}")
    print(f"{workload}: {len(outcomes)} commands attempted, {failed} failed "
          f"(failed_frac {failed / len(outcomes):.4f}), correct={correct}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    return {"correct": correct, "attempted": len(outcomes), "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [path for path in (ROOT / "src" / "swarmrel" / "cli.py",
                                 ROOT / "configs" / "reference.cfg", ROOT / "BENCHMARK.json")
               if not path.is_file()]
    if missing:
        print(f"error: not a swarmrel checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    if args.trace:
        passes, metrics, extra = traced(args.workload, args.seed, args.seconds)
    else:
        from phase import passes_for, run_phase  # imports swarmrel

        setup = setup_seconds()
        passes = run_phase(args.workload, args.seed, 1, passes_for(args.workload, args.seconds))
        metrics, facts = end_to_end(passes, setup)
        extra = []
        tails = ", ".join(f"p{pct:.2f} in blocks of {n}" for pct, n in facts["op_tail"])
        print(f"{facts['passes']} passes over {facts['cpus']} CPU group(s); "
              f"op_tail_ms is the mean over CPUs of the median {tails} operations")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = report(args.workload, passes, {n: metrics[n] for n in units}, units, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
