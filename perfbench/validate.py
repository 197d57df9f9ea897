"""Run the benchmark over several seeds and report every end-to-end metric
per workload: median, quartiles and spread (inter-quartile distance over
the median) against the bound fixed in BENCHMARK.json, plus the error rate.
Every workload of BENCHMARK.json runs, for its ``run_seconds``.

    python3 perfbench/validate.py --seeds 10
    python3 perfbench/validate.py --seeds 10 --baseline perfbench/baseline.json

Runs go one at a time.  With ``--baseline`` the medians, quartiles, one
traced run per workload and the machine description are written to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {"nproc": os.cpu_count(), "cpu": models[0] if models else platform.machine(),
            "python": platform.python_version(), "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(range(args.first_seed, args.first_seed + args.seeds)), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in report["seeds"]]
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        durations = [d for _, d in runs]
        print(f"== {workload}: error_rate = {failed}/{attempted} ratio, "
              f"run duration {min(durations):.1f}..{max(durations):.1f} s")
        entry = {"error_rate": failed / attempted, "run_duration_s": max(durations), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            median, q1, q3, rel = spread(values) if len(values) > 1 else (values[0], values[0], values[0], 0.0)
            flag = "ok" if rel < bound / 3 else ("WIDE" if rel < bound else "OVER BOUND")
            steady &= flag == "ok"
            print(f"   {name:14s} {median:12.6g} {unit:8s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.3f} (bound {bound}) {flag}")
            entry["end_to_end"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                                         "spread": rel, "values": values}
        if args.baseline:
            traced, _ = run_once(workload, report["seeds"][0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
