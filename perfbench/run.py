"""Benchmark entry point.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it measures
set-up time in fresh interpreters before and after running the workload
untraced in a fresh worker process, and prints the end-to-end metrics;
with ``--trace 1`` the worker alternates untraced and traced passes and
the per-layer metrics are printed instead.  Child processes run one at a time.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Whole run, children included, must end well inside three minutes.
DEADLINE_S = 170.0
#: Set-up samples taken before the workload and again after it, so that
#: they span the run instead of one stretch of machine speed.
SETUP_REPEATS = 16
#: Times, inside a fresh interpreter, the import of triboconv.cli and the
#: parser build; interpreter start-up, site hooks and exit are left out
#: because no change to the program moves them.
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import triboconv.cli as c; c.build_parser(); print(time.perf_counter() - start)"
)

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def setup_samples(repeats: int) -> tuple[list[float], list[float]]:
    """``repeats`` set-up times, each in a fresh isolated interpreter and
    followed by one reference import time in another, as (set-up times,
    reference times).  Runs go one after another."""
    def child(*args: str) -> float:
        return float(subprocess.run([sys.executable, "-I", "-c", *args], check=True, timeout=60, cwd=ROOT,
                                    stdout=subprocess.PIPE, text=True).stdout)

    times, reference = [], []
    for _ in range(repeats):
        times.append(child(SETUP_CODE, str(SRC)))
        reference.append(child(calibrate.IMPORT_CODE))
    return times, reference


def setup_time(times: list[float], reference: list[float]) -> tuple[float, float]:
    """Median set-up time, as (calibrated by the median reference import
    time of the whole series, raw)."""
    raw = statistics.median(times)
    return raw * calibrate.NOMINAL_IMPORT_S / statistics.median(reference), raw


def run_worker(args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="triboconv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "triboconv" / "cli.py").is_file():
        print(f"error: no triboconv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if not args.trace:
            setup_samples(1)  # writes bytecode; not measured
            before = setup_samples(SETUP_REPEATS)
        worker = run_worker(args, DEADLINE_S - (time.perf_counter() - started))
        if not args.trace:
            after = setup_samples(SETUP_REPEATS)
            setup = setup_time(before[0] + after[0], before[1] + after[1])
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1

    values = dict(worker["metrics"])
    units = spans.LAYER_METRICS if args.trace else END_TO_END
    if not args.trace:
        values["setup_s"], worker["notes"]["raw setup_s"] = setup
    for key, value in worker["notes"].items():
        print(f"# {key} = {value}")
    print(f"# error_rate = {worker['failed'] / worker['attempted']:.6g} ratio "
          f"({worker['failed']} of {worker['attempted']} ops failed)")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": worker["failed"] == 0 and worker["attempted"] > 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
