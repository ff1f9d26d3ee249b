"""Tests of the benchmark itself, at tiny sizes: every workload runs and
emits every metric named in BENCHMARK.json, wrong outputs count as
failures with their text, and the tracer's self times add up."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from gradedfve import bench, spectral  # noqa: E402

from perfbench import harness, layers, workloads  # noqa: E402
from perfbench.spans import Span, Tracer, self_times, tree_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


def run_tiny(workload, trace, tmp_path, seconds=0.01):
    lines: list[str] = []
    result = harness.run_benchmark(
        workload, 5, seconds, trace, tiny=True, out_dir=tmp_path, echo=lines.append
    )
    return result, lines


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, lines = run_tiny(workload, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env nproc=") for line in lines)
    assert any("last level" in line for line in lines)
    accuracy = "sup_gap_max" if workload == "spectral_diag" else "e_inf_max"
    assert any(line.startswith(accuracy) for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result, lines = run_tiny(workload, True, tmp_path)
    assert result["correct"], lines
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(layers.PER_LAYER)
    assert any(line.startswith("tracing overhead") for line in lines)
    assert (tmp_path / f"spans-{workload}-seed5.json").exists()
    solver_layers = {k: v for k, v in metrics.items() if k.startswith(("multigrid.", "krylov."))}
    if workload == "pgmres_large":
        assert metrics["krylov.iterations"] > 0 and metrics["multigrid.vcycles"] > 0
        assert metrics["krylov.matvecs_per_iter"] >= 1
        assert metrics["bench.cases"] == 8 and metrics["bench.direct_ref_s"] > 0
    else:
        assert not any(solver_layers.values()), solver_layers
    if workload == "spectral_diag":
        assert metrics["spectral.samples"] == workloads.TINY["eig_n"] ** 4
        assert metrics["spectral.peak_mb"] > 0


def test_counts_repeat_exactly_between_passes(tmp_path):
    ops = workloads.make_ops("pgmres_large", workloads.seeded_betas(2), workloads.TINY)
    tally = harness.Tally(workloads.load_expected(True))
    tracer = Tracer()
    layers.install(tracer)
    try:
        roots = [harness.run_pass(ops, tally, tracer)[1] for _ in range(2)]
    finally:
        tracer.restore()
    first, second = (layers.pass_metrics(tracer.spans, r) for r in roots)
    for key in ("assembly.matrix_calls", "assembly.matvec_calls", "multigrid.vcycles",
                "krylov.iterations", "mesh.grid_calls"):
        assert first[key] == second[key] > 0
    assert not tally.failures


def test_non_converged_case_raises_fail_frac(tmp_path, monkeypatch):
    real_gmres = bench.gmres
    monkeypatch.setattr(bench, "gmres", lambda *a, **k: real_gmres(*a, **dict(k, maxit=1)))
    result, lines = run_tiny("pgmres_large", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("FAILED case/") and "did not converge" in line for line in lines)


def test_exception_text_is_recorded(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(spectral, "glt5_region", boom)
    ops = workloads.make_ops("spectral_diag", workloads.seeded_betas(0), workloads.TINY)
    tally = harness.Tally(workloads.load_expected(True))
    harness.run_pass(ops, tally)
    assert tally.failures == ["region: ValueError: boom"]
    assert tally.attempted == len(ops)


@pytest.mark.parametrize(
    "kind, out, message",
    [
        ("seq", np.array([0.2, 0.3]), "not decreasing"),
        ("seq", np.array([0.3, np.nan]), "non-finite"),
        ("region", np.array([[-1, -1], [1, 1]]), "sign map differs"),
        ("symbol", np.array([1.0, np.inf]), "non-finite"),
    ],
)
def test_wrong_spectral_outputs_fail_their_check(kind, out, message):
    ops = workloads.make_ops("spectral_diag", workloads.seeded_betas(0), workloads.TINY)
    (op,) = [o for o in ops if o.kind == kind]
    with pytest.raises(workloads.CheckFailed, match=message):
        workloads.check(op, out, workloads.load_expected(True))


def test_error_above_recorded_bound_fails():
    ops = workloads.make_ops("pgmres_large", workloads.seeded_betas(0), workloads.TINY)
    expected = workloads.load_expected(True)
    bad = bench.CaseResult(3, True, 10 * expected["e_inf_bounds"][ops[0].label], 0.0, 0.0, 0.0)
    with pytest.raises(workloads.CheckFailed, match="exceeds the recorded bound"):
        workloads.check(ops[0], bad, expected)


def test_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    tracer.run("pass", lambda: (tracer.run("a.mid", middle), tracer.run("b.leaf", leaf)))
    selfs = self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration, abs=1e-9)
    assert all(s >= 0 for s in selfs)
    assert set(layers.self_time_by_layer(tracer.spans, 0)) == {"glue", "a", "b"}
    assert tree_problems(tracer.spans, range(len(tracer.spans))) == []


@pytest.mark.parametrize(
    "spans, message",
    [
        ([Span("pass", 0.0, 1.0), Span("a.f", 0.2)], "not closed"),
        ([Span("pass", 0.0, 1.0), Span("a.f", 0.1, 0.7, 0), Span("b.g", 0.3, 0.9, 0)],
         "outlast it"),
        ([Span("pass", 0.0, 1.0), Span("a.f", 0.1, 0.9, 0), Span("a.f", 0.2, 0.3, 1)],
         "nests inside span 1 of the same name"),
    ],
)
def test_broken_span_trees_are_flagged(spans, message):
    (problem,) = tree_problems(spans, range(len(spans)))
    assert message in problem


def test_setup_probe_timeout_is_a_failure(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(harness.subprocess, "run", hang)
    monkeypatch.setattr(harness, "SETUP_PROBES", 3)
    tally = harness.Tally({})
    times = harness.measure_setup("spectral_diag", 0, True, tally)
    assert len(times) == 1 and tally.attempted == 1
    assert tally.failures == [f"setup probe: no exit within {harness.SETUP_PROBE_TIMEOUT_S} s"]


def test_wrappers_are_removed_after_restore():
    before = {(id(o), a): vars(o)[a] for o, a, _, _ in layers.WRAPPED}
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    assert before == {(id(o), a): vars(o)[a] for o, a, _, _ in layers.WRAPPED}


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = harness.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral_diag", "--seed", "1",
         "--seconds", "0.01", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and list(result["metrics"]) == list(harness.END_TO_END)


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pgmres_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
