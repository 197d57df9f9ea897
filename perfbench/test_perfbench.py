"""Tests of the benchmark harness itself (not part of the library suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import spans
import worker
import workloads
from triboconv import cli, derivation, identity_catalog, sequences

ROOT = Path(__file__).resolve().parent.parent


def _run(ops, tmp_path, tracer=None, min_passes=2):
    return worker.run_loop(ops, 0, tmp_path / "op.out", tracer, min_passes=min_passes)


def _errors(passes):
    return [r.error for p in passes for r in p.results if r.error is not None]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    argvs = [op.argv for op in workloads.build(name, 7)]
    assert argvs == [op.argv for op in workloads.build(name, 7)]
    assert argvs != [op.argv for op in workloads.build(name, 8)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_and_traces_every_layer_metric(name, tmp_path):
    tracer = spans.Tracer()
    passes = _run(workloads.build(name, 1, tiny=True), tmp_path, tracer)
    assert _errors(passes) == []
    e2e, notes = worker.end_to_end(passes)
    assert e2e["items_per_s"] > 0 and notes["items"] > 0
    layers = worker.layer_metrics(passes, tracer)
    assert list(layers) == list(spans.LAYER_METRICS)
    assert layers["cli.main_s"] > 0 and layers["cli.output_bytes"] > 0
    assert sum(layers[f"{layer}.self_share"] for layer in spans.LAYERS) == pytest.approx(1.0)
    assert layers["trace.overhead_ratio"] > 1


@pytest.mark.parametrize(
    "op",
    [
        workloads.Op(("verify", "P3", "--nmax", "10", "--format", "json"),
                     workloads.check_single("P3", status="fail"), "P3"),
        workloads.Op(("verify", "all", "--format", "text"),
                     workloads.check_suite("text", dict(workloads.SUITE_SUMMARY, known_discrepancy=0)), "all"),
        workloads.Op(("conjecture", "3", "--format", "json"),
                     workloads.check_conjecture(3, verdict="counterexample-found"), "conj"),
        workloads.Op(("derive", "pairsumsq", "3", "--replicate-paper", "--format", "json"),
                     workloads.check_derive(3, match="true"), "derive"),
        workloads.Op(("symcheck", "--draws", "1", "--format", "json"),
                     workloads.check_symcheck(1, 6, verdict="fail"), "sym"),
        workloads.Op(("verify", "NOPE", "--format", "json"), workloads.check_single("NOPE"), "usage"),
    ],
    ids=["verify", "suite", "conjecture", "derive", "symcheck", "exit-code"],
)
def test_wrong_expected_answer_counts_as_failed(op, tmp_path):
    passes = _run([op], tmp_path, min_passes=1)
    assert len(_errors(passes)) == 1
    assert worker.end_to_end(passes)[0]["items_per_s"] == 0


def test_crash_and_changed_output_count_as_failed(tmp_path, monkeypatch):
    op = workloads.verify_one("P3", 10, seed=1)
    digests = {op.argv: "digest of some other output"}
    assert "differs" in worker.run_op(op, tmp_path / "op.out", digests).error

    def boom(argv):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "main", boom)
    assert "internal fault" in worker.run_op(op, tmp_path / "op.out", {}).error


def test_tracer_wraps_every_binding_site_and_restores_it():
    originals = (derivation.derive, identity_catalog.derive, sequences.sign_at_real_root,
                 derivation.sign_at_real_root, identity_catalog.multinomial_conv_prefix, cli.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (derivation.derive, identity_catalog.derive, sequences.sign_at_real_root,
                   derivation.sign_at_real_root, identity_catalog.multinomial_conv_prefix, cli.main)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        fe = sys.modules["triboconv.field"].FieldElement
        assert fe.__mul__ is fe.__rmul__ and hasattr(fe.__mul__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (derivation.derive, identity_catalog.derive, sequences.sign_at_real_root,
            derivation.sign_at_real_root, identity_catalog.multinomial_conv_prefix, cli.main) == originals


def test_times_are_scaled_by_the_reference_kernel(tmp_path):
    passes = _run([workloads.verify_one("P3", 10, seed=1)], tmp_path)
    for p in passes:
        p.reference = [2 * calibrate.NOMINAL_S]
    metrics, notes = worker.end_to_end(passes)
    assert notes["calibration"] == 0.5
    assert metrics["wall_s"] == pytest.approx(notes["raw wall_s"] / 2)
    assert metrics["items_per_s"] == pytest.approx(notes["raw items_per_s"] * 2)


def test_each_pass_is_scaled_by_its_own_reference_samples(tmp_path):
    passes = _run([workloads.verify_one("P3", 10, seed=1)], tmp_path)
    nominal = calibrate.NOMINAL_S
    passes[0].reference, passes[1].reference = [nominal], [nominal, 3 * nominal]
    metrics, _ = worker.end_to_end(passes)
    assert metrics["wall_s"] == pytest.approx((passes[0].wall + passes[1].wall / 2) / 2)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert worker.tail([float(v) for v in range(40)]) == (29.0, 75.0, 40)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_METRICS


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_time_is_median_scaled_by_median_reference_import_time():
    nominal = calibrate.NOMINAL_IMPORT_S
    assert run.setup_time([0.05, 0.04, 0.09], [nominal, 2 * nominal, 4 * nominal]) == pytest.approx((0.025, 0.05))
