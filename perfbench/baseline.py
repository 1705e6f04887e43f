"""Run every workload over several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py [--seeds 10] [--seconds S] [--workloads a,b] [--out FILE]

For each workload it makes one untraced run per seed (seeds 1..N) and two
traced runs on seed 1.  It prints every end-to-end metric with its median,
quartiles and spread (interquartile range over median, the figure that
BENCHMARK.json's bounds are set against), the failed fraction, the
per-layer table of the traced run with its tracing overhead, and whether
the exact counts repeated between the two traced runs.  With ``--out`` it
writes all of it, plus the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# counts that must repeat exactly for a seed
EXACT = ("geometry.darts_per_uav", "fading.relay_calls_per_trial", "mc.var_per_trial",
         "analytic.head_quad_share", "specfun.quad_calls", "specfun.quad_evals")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "start_method": multiprocessing.get_start_method(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    result = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in bounds},
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"\n== {workload}: {entry['attempted']} commands, failed_frac "
              f"{entry['failed_frac']:.4f}, correct={entry['correct']}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound/3':>8s}")
        for m in SPEC["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            flag = "" if m["name"] == "setup_s" or s["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"  {m['name']:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {m['bound'] / 3:8.4f} {m['unit']}{flag}")
        first, second = (run(workload, 1, args.seconds, 1) for _ in range(2))
        layers = {n: v["value"] for n, v in first["metrics"].items()}
        repeat = {n: layers[n] == second["metrics"][n]["value"] for n in EXACT}
        entry["per_layer"] = layers
        entry["exact_counts_repeat"] = repeat
        print(f"  per layer (traced, seed 1); exact counts repeat: {all(repeat.values())}")
        for m in SPEC["per_layer"]:
            print(f"    {m['name']:32s} {layers[m['name']]:14.6g} {m['unit']}")
        result["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
