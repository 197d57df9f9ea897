"""Closed-loop workload runner: one client, one process, no threads.

Each op is one in-process call to ``triboconv.cli.main(argv)`` with
``--out`` pointing at a scratch file, the path a user takes through
argparse, the library, rendering and the file write.  Passes over the
workload's op list repeat until the time budget is spent; the last line
of standard output is one JSON object with the results.

    python3 perfbench/worker.py --workload suite --seed 1 --seconds 20 --trace 0

With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics plus the tracing overhead.  The overhead is
smaller than the pass-to-pass noise of a shared machine, so it is not read
off traced and untraced wall times but built from measured parts: the
tracer's wrapper calls per traced pass times the cost of one wrapper call
on a no-op function, plus the time its argument hooks took in place, over
the median untraced pass (the first, warm-up, pass left out), everything
calibrated.

Times are calibrated (see calibrate.py): after each op the worker times
the reference kernel, and every time measured in a pass is scaled by the
nominal kernel time over the mean of that pass's samples.  Raw times are
reported beside the calibrated ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from triboconv import cli  # noqa: E402

#: A latency percentile needs at least this many samples above it.
TAIL_SAMPLES = 10


@dataclass
class OpResult:
    op: workloads.Op
    latency: float
    items: int | None
    error: str | None
    output_bytes: int


@dataclass
class Pass:
    wall: float
    traced: bool
    results: list[OpResult]
    reference: list[float] = field(default_factory=list)


def run_op(op: workloads.Op, out_path: Path, digests: dict) -> OpResult:
    """Run one op and gate its output.  A crash, a wrong exit code, a wrong
    answer or output differing from an earlier run of the same argv makes
    the op fail; it never stops the run."""
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main([*op.argv, "--out", str(out_path)])
    except Exception as exc:  # the gate counts a crash as a failed op
        return OpResult(op, time.perf_counter() - start, None, f"raised {exc!r}", 0)
    latency = time.perf_counter() - start
    if code != 0:
        return OpResult(op, latency, None, f"exit code {code}", 0)
    try:
        data = out_path.read_bytes()
    except OSError as exc:
        return OpResult(op, latency, None, f"no output: {exc}", 0)
    digest = hashlib.sha256(data).hexdigest()
    if digests.setdefault(op.argv, digest) != digest:
        return OpResult(op, latency, None, "output differs from an earlier run of the same argv", len(data))
    try:
        items = op.check(data.decode("utf-8"))
    except workloads.GateFailure as exc:
        return OpResult(op, latency, None, str(exc), len(data))
    except (ValueError, KeyError, IndexError) as exc:
        return OpResult(op, latency, None, f"unreadable output: {exc!r}", len(data))
    return OpResult(op, latency, items, None, len(data))


def run_loop(ops, seconds: float, out_path: Path, tracer: spans.Tracer | None = None,
             min_passes: int = 3) -> list[Pass]:
    """Repeat passes over ``ops`` until ``seconds`` have elapsed and at
    least ``min_passes`` passes ran.  With a tracer, every second pass is
    traced; the tracer is installed only for those passes, and at least
    three passes run so that an untraced pass follows the warm-up one.  A
    pass's wall time covers its ops and their gates, not the reference
    kernel."""
    if tracer is not None:
        min_passes = max(min_passes, 3)
    digests: dict = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass()
            tracer.install()
        current = Pass(0.0, traced, [])
        try:
            for op in ops:
                if traced:
                    tracer.begin_op()
                op_start = time.perf_counter()
                current.results.append(run_op(op, out_path, digests))
                current.wall += time.perf_counter() - op_start
                current.reference.append(calibrate.time_reference())
        finally:
            if traced:
                tracer.uninstall()
        passes.append(current)
    _fill_items(passes)
    return passes


def _fill_items(passes: list[Pass]) -> None:
    """Give ops whose format carries no item count the count of another
    format of the same work."""
    known = {r.op.work: r.items for p in passes for r in p.results if r.items is not None}
    for p in passes:
        for r in p.results:
            if r.error is None and r.items is None:
                r.items = known.get(r.op.work, 0)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_SAMPLES samples
    above it: (value, percentile, samples).  With too few samples this is
    the maximum, reported at percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, n


def factor(p: Pass) -> float:
    """Factor that turns raw seconds of pass ``p`` into calibrated seconds:
    the nominal kernel time over the mean of the pass's own reference
    samples, so that speed swings between passes cancel."""
    return calibrate.NOMINAL_S / statistics.fmean(p.reference)


def calibration(passes: list[Pass]) -> float:
    """The run's calibrated time over its raw time, for the notes."""
    return sum(p.wall * factor(p) for p in passes) / sum(p.wall for p in passes)


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], dict]:
    """Calibrated end-to-end metrics (all but set-up time) and notes that
    hold the raw values."""
    results = [r for p in passes for r in p.results]
    goodput = sum(r.items for r in results if r.error is None)
    walls = [p.wall * factor(p) for p in passes]
    latencies = [r.latency * factor(p) for p in passes for r in p.results]
    tail_value, tail_pct, samples = tail(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "items_per_s": goodput / sum(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_latencies = [r.latency for r in results]
    raw_wall = sum(p.wall for p in passes)
    raw = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(raw_latencies),
        "op_tail_s": tail(raw_latencies)[0],
        "items_per_s": goodput / raw_wall,
    }
    notes = {"passes": len(passes), "op_samples": samples, "op_tail_percentile": round(tail_pct, 1),
             "items": goodput, "calibration": calibration(passes), **{f"raw {k}": v for k, v in raw.items()}}
    return metrics, notes


def layer_metrics(passes: list[Pass], tracer: spans.Tracer) -> dict[str, float]:
    """Median over traced passes of each per-layer metric, times calibrated
    pass by pass, and the tracing overhead."""
    span_s, count_s = spans.wrapper_costs()
    per_pass = tracer.pass_metrics()
    for metrics, p in zip(per_pass, (p for p in passes if p.traced)):
        metrics["cli.output_bytes"] = sum(r.output_bytes for r in p.results)
        for key, unit in spans.LAYER_METRICS.items():
            if unit == "s":
                metrics[key] *= factor(p)
        metrics["trace.tracer_s"] = factor(p) * (metrics["trace.spans"] * span_s + metrics["trace.hook_s"]
                                                 + metrics["trace.counted_calls"] * count_s)
    result = spans.median_metrics(per_pass)
    untraced_s = statistics.median(p.wall * factor(p) for p in passes[1:] if not p.traced)
    result["trace.overhead_ratio"] = 1 + result["trace.tracer_s"] / untraced_s
    return {key: result[key] for key in spans.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = OUT_DIR / f"op-{tag}.out"
    ops = workloads.build(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    passes = run_loop(ops, args.seconds, out_path, tracer, min_passes=4 if tracer else 3)
    out_path.unlink(missing_ok=True)

    results = [r for p in passes for r in p.results]
    failures = [f"{' '.join(r.op.argv)}: {r.error}" for r in results if r.error is not None]
    for line in failures[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    if tracer:
        metrics = layer_metrics(passes, tracer)
        notes = {"passes": len(passes), "spans": len(tracer.spans), "calibration": calibration(passes)}
        tracer.dump(OUT_DIR / f"spans-{tag}.jsonl")
    else:
        metrics, notes = end_to_end(passes)
    print(json.dumps({"attempted": len(results), "failed": len(failures), "metrics": metrics, "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
