"""Measurement harness: set-up probes, timed passes, the peak-memory pass and
the traced run, with every output checked.

End-to-end metrics (``--trace 0``):

``setup_s``      median, over fresh processes, of the time from process
                 start through ``import gradedfve`` and the warm-up call
``wall_s``       median wall time of one pass over the workload
``wall_s.tail``  highest percentile of pass time with at least ten passes
                 beyond it (the maximum when no percentile above the
                 median qualifies); the percentile and count are printed
``peak_mb``      tracemalloc peak of one pass, in its own untimed pass

Also printed, not gated: ``e_inf_max`` (solve workloads), ``sup_gap_max``
(``spectral_diag``) and ``fail_frac``, which the result line carries as
``failed / attempted``.

The traced run (``--trace 1``) makes one memory-traced pass, then
alternates untraced and traced passes for the run time; it reports the
per-layer metrics of :data:`perfbench.layers.PER_LAYER` and writes its
spans to ``out_dir``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from . import layers, workloads
from .layers import MB
from .spans import Tracer, tree_problems
from .workloads import CheckFailed, Op

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s.tail": "s", "peak_mb": "MB"}
RUN_PY = Path(__file__).with_name("run.py")
SETUP_PROBES = 5  # fresh processes timed for setup_s
SETUP_PROBE_TIMEOUT_S = 60
# glibc sysconf names without a Python constant
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


class Tally:
    """Operations attempted, failures with their text, and error measures."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: dict[str, float] = {}

    def fail(self, label: str, text: str) -> None:
        self.failures.append(f"{label}: {text}")

    def record(self, op: Op, out) -> None:
        self.attempted += 1
        try:
            err = workloads.check(op, out, self.expected)
        except CheckFailed as exc:
            self.fail(op.label, str(exc))
            return
        if err is not None:
            key = "sup_gap_max" if op.kind == "eig" else "e_inf_max"
            self.errors[key] = max(self.errors.get(key, err), err)


def run_pass(ops: list[Op], tally: Tally, tracer: Tracer | None = None):
    """Run every operation once; return (wall seconds, root span or -1).

    Outputs are checked after the timed region.
    """
    outs = []
    root = tracer.begin("pass") if tracer else -1
    t0 = time.perf_counter()
    for op in ops:
        try:
            outs.append((op, workloads.call(op)))
        except Exception as exc:  # every failure is reported, none stops the run
            tally.attempted += 1
            tally.fail(op.label, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
        wall = tracer.spans[root].duration
    for op, out in outs:
        tally.record(op, out)
    return wall, root


def timed_passes(ops, seconds: float, tally: Tally) -> list[float]:
    """Wall times of passes run back to back until ``seconds`` have elapsed."""
    walls = []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        walls.append(run_pass(ops, tally)[0])
    return walls


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond.

    Falls back to the maximum when that percentile would not lie above the
    median, which is the case for fewer than 21 samples.
    """
    s = sorted(walls)
    k = len(s) - 11  # sorted index with exactly ten samples beyond it
    if k <= (len(s) - 1) // 2:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def peak_pass(ops, tally: Tally) -> float:
    tracemalloc.start()
    try:
        run_pass(ops, tally)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def measure_setup(workload: str, seed: int, tiny: bool, tally: Tally):
    """Wall time of :data:`SETUP_PROBES` fresh processes that import and warm up."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--setup-probe"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        tally.attempted += 1
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            times.append(time.perf_counter() - t0)
            tally.fail("setup probe", f"no exit within {SETUP_PROBE_TIMEOUT_S} s")
            break  # more probes would run past the benchmark's time limit
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            tally.fail("setup probe", f"exit {proc.returncode}: {lines[-1]}")
    return times


def setup_probe(workload: str, seed: int, tiny: bool) -> int:
    """Body of one set-up probe process: the warm-up call, checked."""
    sizes = workloads.TINY if tiny else workloads.FULL
    ops = workloads.make_ops(workload, workloads.seeded_betas(seed), sizes)
    tally = Tally(workloads.load_expected(tiny))
    run_pass([workloads.warmup_op(workload, ops)], tally)
    for f in tally.failures:
        print(f, file=sys.stderr)
    return 1 if tally.failures else 0


def _sysconf(code: int) -> int | None:
    try:
        v = os.sysconf(code)
    except (ValueError, OSError):
        return None
    return v if v > 0 else None


def environment(workload: str, ops: list[Op]) -> list[str]:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    l2, l3 = _sysconf(_SC_LEVEL2_CACHE_SIZE), _sysconf(_SC_LEVEL3_CACHE_SIZE)
    n = workloads.largest_matrix(ops)
    lines = [
        f"env nproc={nproc} blas_threads={threads} python={sys.version.split()[0]} "
        f"numpy={np.__version__} scipy={scipy.__version__} blas={blas_text}",
        f"env cache: L2 {l2 / MB if l2 else 'unknown'} MB, last level "
        f"{l3 / MB if l3 else 'unknown'} MB; largest dense matrix of {workload}: "
        f"{n}x{n} float64 = {n * n * 8 / MB:.1f} MB",
    ]
    if workload == "spectral_diag":
        m = max(op.args["n"] for op in ops if op.kind == "eig") ** 2
        lines.append(f"env largest symbol sample pool: {m}x{m} float64 = {m * m * 8 / MB:.1f} MB")
    return lines


def _metric_lines(metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    return [f"{k} = {metrics[k]!r} {unit}" for k, unit in units.items()]


def _result(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  tiny: bool = False, out_dir: Path | None = None,
                  echo=print) -> dict:
    """Run one workload and return the result object; ``echo`` gets the report."""
    sizes = workloads.TINY if tiny else workloads.FULL
    ops = workloads.make_ops(workload, workloads.seeded_betas(seed), sizes)
    tally = Tally(workloads.load_expected(tiny))
    for line in environment(workload, ops):
        echo(line)

    setup = [] if trace else measure_setup(workload, seed, tiny, tally)
    run_pass([workloads.warmup_op(workload, ops)], tally)

    if trace:
        metrics = traced_run(workload, seed, ops, seconds, tally, out_dir, echo)
        units = layers.PER_LAYER
    else:
        peak = peak_pass(ops, tally)
        walls = timed_passes(ops, seconds, tally)
        tail_value, pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "wall_s.tail": tail_value,
            "peak_mb": peak,
        }
        units = END_TO_END
        echo(f"passes: {len(walls)}; wall_s.tail is p{pct:.0f} of {len(walls)} passes; "
             f"setup_s is the median of {len(setup)} fresh processes")
    for line in _metric_lines(metrics, units):
        echo(line)
    for k, v in sorted(tally.errors.items()):
        echo(f"{k} = {v!r} (not gated)")
    echo(f"fail_frac = {len(tally.failures)}/{tally.attempted}")
    for f in tally.failures:
        echo(f"FAILED {f}")
    return _result(tally, metrics, units)


def traced_run(workload, seed, ops, seconds, tally, out_dir, echo) -> dict[str, float]:
    mem_tracer = Tracer(memory=True)
    layers.install(mem_tracer)
    tracemalloc.start()
    try:
        _, root = run_pass(ops, tally, mem_tracer)
    finally:
        tracemalloc.stop()
        mem_tracer.restore()
    memory = layers.memory_metrics(mem_tracer.spans, root)

    # untraced and traced passes alternate, so drift in machine speed
    # affects both sides of the overhead alike
    tracer = Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(run_pass(ops, tally)[0])
        layers.install(tracer)
        try:
            traced.append(run_pass(ops, tally, tracer))
        finally:
            tracer.restore()

    per_pass = []
    for wall, root in traced:
        per_pass.append(layers.pass_metrics(tracer.spans, root))
        by_layer = layers.self_time_by_layer(tracer.spans, root)
        tally.attempted += 1
        problems = tree_problems(tracer.spans, layers.subtree(tracer.spans, root))
        if problems:
            tally.fail("trace check", f"{problems[0]} ({len(problems)} problems in the pass)")
        echo("self time by layer: " + ", ".join(f"{k} {v:.4f} s" for k, v in by_layer.items())
             + f"; sum {sum(by_layer.values()):.4f} s, traced pass {wall:.4f} s")
    metrics = layers.median_metrics(per_pass)
    metrics.update(memory)
    untraced_wall = statistics.median(untraced)
    metrics["trace.wall_s"] = statistics.median(w for w, _ in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    echo(f"tracing overhead: traced wall_s {metrics['trace.wall_s']!r} s minus untraced "
         f"wall_s {untraced_wall!r} s ({len(traced)} and {len(untraced)} passes)")

    metrics["bench.direct_ref_s"] = metrics["bench.pgmres_over_direct"] = 0.0
    direct = workloads.direct_twins(ops) if workload == "pgmres_large" else []
    if direct:
        direct_wall, _ = run_pass(direct, tally)
        metrics["bench.direct_ref_s"] = direct_wall
        metrics["bench.pgmres_over_direct"] = untraced_wall / direct_wall

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{workload}-seed{seed}.json"
        tracer.dump(path)
        echo(f"spans: {len(tracer.spans)} written to {path}")
    return metrics
