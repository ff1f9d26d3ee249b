"""Traced wrappers around each gradedfve module's public functions, and the
per-layer metrics computed from the spans of one pass.

The wrappers replace attributes on the module that *calls* the function
(``bench.gmres`` rather than ``krylov.gmres``, since ``bench`` imported it
by name), so ``src/`` stays untouched.  Span names are ``<module>.<what>``.
"""

from __future__ import annotations

import statistics

from gradedfve import assembly, bench, mesh, multigrid, spectral

from .spans import Span, Tracer, self_times

MB = 1e6


def _matrix(op) -> dict:
    return {"bytes": op.entries.nbytes}


def _hierarchy(h) -> dict:
    return {"depth": h.depth, "fallback": h.omega == multigrid.OMEGA_FALLBACK}


def _gmres(report) -> dict:
    return {"iterations": report.iterations, "converged": report.converged}


def _samples(table) -> dict:
    return {"samples": table.values.size}


# (owner, attribute, span name, attributes from the result)
WRAPPED = (
    (bench, "uniform_grid", "mesh.grid", None),
    (bench, "graded_grid", "mesh.grid", None),
    (bench, "composite_grid_from_counts", "mesh.grid", None),
    (mesh, "composite_grid", "mesh.grid", None),
    (spectral, "graded_grid", "mesh.grid", None),
    (assembly, "assemble_matrix", "assembly.matrix", _matrix),
    (multigrid, "assemble_matrix", "assembly.matrix", _matrix),
    (spectral, "assemble_matrix", "assembly.matrix", _matrix),
    (assembly, "uniform_toeplitz", "assembly.toeplitz", None),
    (assembly, "assemble_rhs", "assembly.rhs", None),
    (bench, "row_scale", "assembly.row_scale", None),
    (assembly.DenseOperator, "matvec", "assembly.matvec", None),
    (assembly.SymToeplitzOperator, "matvec", "assembly.matvec", None),
    (bench, "build_hierarchy", "multigrid.build", _hierarchy),
    (multigrid, "prolongation", "multigrid.prolongation", None),
    (multigrid, "estimate_omega", "multigrid.omega", None),
    (multigrid, "vcycle", "multigrid.vcycle", None),
    (bench, "gmres", "krylov.gmres", _gmres),
    (bench, "run_case", "bench.run_case", None),
    (bench, "scan_qopt", "bench.scan_qopt", None),
    (spectral, "eig_vs_symbol", "spectral.eig_vs_symbol", None),
    (spectral, "sample_symbol", "spectral.sample_symbol", _samples),
    (spectral, "symbol_p", "spectral.symbol_p", None),
    (spectral, "glt5_sequence", "spectral.glt5_sequence", None),
    (spectral, "glt5_region", "spectral.glt5_region", None),
)

#: Per-layer metric names and units, in the order they are reported.
PER_LAYER = {
    "mesh.grid_s": "s",
    "mesh.grid_calls": "count",
    "assembly.matrix_s": "s",
    "assembly.matrix_calls": "count",
    "assembly.matrix_bytes": "bytes",
    "assembly.peak_over_matrix": "ratio",
    "assembly.toeplitz_s": "s",
    "assembly.rhs_s": "s",
    "assembly.row_scale_s": "s",
    "assembly.matvec_s": "s",
    "assembly.matvec_calls": "count",
    "multigrid.build_s": "s",
    "multigrid.rediscretize_s": "s",
    "multigrid.prolongation_s": "s",
    "multigrid.omega_s": "s",
    "multigrid.build_self_s": "s",
    "multigrid.depth": "levels",
    "multigrid.omega_fallbacks": "count",
    "multigrid.vcycle_s": "s",
    "multigrid.vcycles": "count",
    "krylov.gmres_s": "s",
    "krylov.self_s": "s",
    "krylov.iterations": "count",
    "krylov.matvecs_per_iter": "ratio",
    "krylov.converged_frac": "ratio",
    "bench.run_case_s": "s",
    "bench.run_case_self_s": "s",
    "bench.cases": "count",
    "bench.direct_ref_s": "s",
    "bench.pgmres_over_direct": "ratio",
    "spectral.eig_vs_symbol_s": "s",
    "spectral.sample_symbol_s": "s",
    "spectral.symbol_p_s": "s",
    "spectral.glt5_sequence_s": "s",
    "spectral.glt5_region_s": "s",
    "spectral.assemble_s": "s",
    "spectral.samples": "count",
    "spectral.peak_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def install(tracer: Tracer) -> None:
    for owner, attr, name, describe in WRAPPED:
        tracer.wrap(owner, attr, name, describe)


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span opened while it was open."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def _has_ancestor(spans: list[Span], i: int, pred) -> bool:
    p = spans[i].parent
    while p >= 0:
        if pred(spans[p].name):
            return True
        p = spans[p].parent
    return False


def pass_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer times and exact counts of the pass whose span is ``root``.

    The wrapped spans of one name never nest (the traced run checks this
    with :func:`perfbench.spans.tree_problems`), so a layer's time is the
    sum of its spans' durations.
    """
    idx = subtree(spans, root)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name, where=None):
        return sum(
            spans[i].duration for i in by_name.get(name, ()) if where is None or where(i)
        )

    def calls(name, where=None):
        return sum(1 for i in by_name.get(name, ()) if where is None or where(i))

    def self_of(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ()))

    def under(prefix):
        return lambda i: _has_ancestor(spans, i, lambda n: n.startswith(prefix))

    builds = by_name.get("multigrid.build", [])
    gmres_runs = by_name.get("krylov.gmres", [])
    iterations = attr_sum("krylov.gmres", "iterations")
    krylov_matvecs = calls("assembly.matvec", under("krylov.gmres"))
    return {
        "mesh.grid_s": total("mesh.grid"),
        "mesh.grid_calls": calls("mesh.grid"),
        "assembly.matrix_s": total("assembly.matrix"),
        "assembly.matrix_calls": calls("assembly.matrix"),
        "assembly.matrix_bytes": attr_sum("assembly.matrix", "bytes"),
        "assembly.toeplitz_s": total("assembly.toeplitz"),
        "assembly.rhs_s": total("assembly.rhs"),
        "assembly.row_scale_s": total("assembly.row_scale"),
        "assembly.matvec_s": total("assembly.matvec"),
        "assembly.matvec_calls": calls("assembly.matvec"),
        "multigrid.build_s": total("multigrid.build"),
        "multigrid.rediscretize_s": total("assembly.matrix", under("multigrid.build")),
        "multigrid.prolongation_s": total("multigrid.prolongation"),
        "multigrid.omega_s": total("multigrid.omega"),
        "multigrid.build_self_s": self_of("multigrid.build"),
        "multigrid.depth": max((spans[i].attrs["depth"] for i in builds), default=0),
        "multigrid.omega_fallbacks": sum(spans[i].attrs["fallback"] for i in builds),
        "multigrid.vcycle_s": total("multigrid.vcycle"),
        "multigrid.vcycles": calls("multigrid.vcycle"),
        "krylov.gmres_s": total("krylov.gmres"),
        "krylov.self_s": self_of("krylov.gmres"),
        "krylov.iterations": iterations,
        "krylov.matvecs_per_iter": krylov_matvecs / iterations if iterations else 0.0,
        "krylov.converged_frac": (
            sum(spans[i].attrs["converged"] for i in gmres_runs) / len(gmres_runs)
            if gmres_runs else 0.0
        ),
        "bench.run_case_s": total("bench.run_case"),
        "bench.run_case_self_s": self_of("bench.run_case"),
        "bench.cases": calls("bench.run_case"),
        "spectral.eig_vs_symbol_s": total("spectral.eig_vs_symbol"),
        "spectral.sample_symbol_s": total("spectral.sample_symbol"),
        "spectral.symbol_p_s": total("spectral.symbol_p"),
        "spectral.glt5_sequence_s": total("spectral.glt5_sequence"),
        "spectral.glt5_region_s": total("spectral.glt5_region"),
        "spectral.assemble_s": total("assembly.matrix", under("spectral.")),
        "spectral.samples": attr_sum("spectral.sample_symbol", "samples"),
    }


def memory_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Peaks from a pass traced with ``memory=True``.

    ``assembly.peak_over_matrix`` is the tracemalloc peak inside the call
    that assembled the largest matrix, over that matrix's size;
    ``spectral.peak_mb`` the highest peak inside a top-level spectral call.
    """
    idx = subtree(spans, root)
    mats = [spans[i] for i in idx if spans[i].name == "assembly.matrix"]
    spec = [
        spans[i] for i in idx
        if spans[i].name.startswith("spectral.")
        and not _has_ancestor(spans, i, lambda n: n.startswith("spectral."))
    ]
    big = max(mats, key=lambda s: s.attrs["bytes"], default=None)
    return {
        "assembly.peak_over_matrix": (
            big.attrs["peak_bytes"] / big.attrs["bytes"] if big else 0.0
        ),
        "spectral.peak_mb": max((s.attrs["peak_bytes"] for s in spec), default=0) / MB,
    }


def self_time_by_layer(spans: list[Span], root: int) -> dict[str, float]:
    """Self time of the pass summed per module; the root's own is ``glue``."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for i in subtree(spans, root):
        layer = "glue" if i == root else spans[i].name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + selfs[i]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
