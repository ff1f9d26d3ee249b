"""The benchmark's workloads, generated from a seed, and their output checks.

A workload is a list of operations.  Each operation calls one public entry
point of gradedfve (``bench.run_case``, ``bench.scan_qopt`` or a
``spectral`` function), looked up on its module at call time so that the
traced run's wrappers see the call.  The seed draws every operation's beta
from a window of +-0.05 around the stated value; nothing else depends on it.

``pgmres_large``
    ``run_case(solver="pgmres", tol=1e-7)`` on graded eps6 (beta 0.5),
    composite sqrt (0.5), graded eps1 (0.8) and uniform (0.5, Toeplitz
    path), gamma 0.5, at N+1 in {1024, 4096}: the paper's solver where the
    dense matrix is large.
``qscan_direct``
    ``scan_qopt`` at N = 1023, default q range and step, for
    (0.5, gamma 0.5, eps6) and (0.8, gamma 0.3, eps1): many medium dense
    assemblies and LU solves, no multigrid or Krylov work.
``spectral_diag``
    ``eig_vs_symbol(q=2, n=64, "fine")``, ``glt5_sequence(q=2, 16..1024)``,
    ``glt5_region`` over beta {0.2, 0.5, 0.8} x q {1.5, 2, 3, 4, 6} and
    ``symbol_p`` with 4096 terms at 4096 points: dense eig/SVD and symbol
    sampling.

``TINY`` shrinks every size so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from gradedfve import bench, spectral

WORKLOADS = ("pgmres_large", "qscan_direct", "spectral_diag")
BETA_WINDOW = 0.05
EXPECTED_PATH = Path(__file__).with_name("expected.json")

FULL = {
    "solve_sizes": (1024, 4096),
    "scan_n": 1023,
    "scan_step": 0.1,
    "eig_n": 64,
    "seq_ns": tuple(2**k for k in range(4, 11)),
    "region_betas": (0.2, 0.5, 0.8),
    "region_qs": (1.5, 2.0, 3.0, 4.0, 6.0),
    "symbol_terms": 4096,
    "symbol_points": 4096,
}
TINY = {
    "solve_sizes": (32, 64),
    "scan_n": 63,
    "scan_step": 1.0,
    "eig_n": 16,
    "seq_ns": (16, 32, 64),
    "region_betas": (0.2, 0.8),
    "region_qs": (1.5, 6.0),
    "symbol_terms": 64,
    "symbol_points": 64,
}

# (label, mesh, stated beta); gamma is 0.5 throughout
SOLVE_MESHES = (
    ("eps6", bench.MeshSpec("graded", eps1=1.0, eps2=0.0), 0.5),
    ("sqrt", bench.MeshSpec("composite", rule="sqrt"), 0.5),
    ("eps1", bench.MeshSpec("graded", eps1=0.1, eps2=0.05), 0.8),
    ("uniform", bench.MeshSpec("uniform"), 0.5),
)
# (label, eps preset, stated beta, gamma)
SCANS = (("eps6", "eps6", 0.5, 0.5), ("eps1", "eps1", 0.8, 0.3))


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass(frozen=True)
class Op:
    label: str  # stable key of the operation, used for recorded bounds
    kind: str  # case | scan | eig | seq | region | symbol
    args: object


CALLS: dict[str, Callable] = {
    "case": lambda a: bench.run_case(a),
    "scan": lambda a: bench.scan_qopt(**a),
    "eig": lambda a: spectral.eig_vs_symbol(**a),
    "seq": lambda a: spectral.glt5_sequence(**a),
    "region": lambda a: spectral.glt5_region(a["betas"], a["qs"]),
    "symbol": lambda a: spectral.symbol_p(a["n_terms"], a["beta"], a["theta"]),
}


def call(op: Op):
    return CALLS[op.kind](op.args)


def seeded_betas(seed: int) -> Callable[[float], float]:
    """Draw each successive beta from the window around its stated value."""
    rng = np.random.default_rng(seed)
    return lambda centre: centre + float(rng.uniform(-BETA_WINDOW, BETA_WINDOW))


def make_ops(workload: str, beta_of: Callable[[float], float], sizes: dict) -> list[Op]:
    """Operations of one pass, in order; the first one is the smallest."""
    if workload == "pgmres_large":
        return [
            Op(
                f"case/{label}/{n1p}",
                "case",
                bench.CaseConfig(beta_of(beta), 0.5, spec, n1p - 1, "pgmres", 1e-7),
            )
            for n1p in sizes["solve_sizes"]
            for label, spec, beta in SOLVE_MESHES
        ]
    if workload == "qscan_direct":
        ops = []
        for label, preset, beta, gamma in SCANS:
            eps1, eps2 = bench.EPS_PRESETS[preset]
            args = dict(
                beta=beta_of(beta), gamma=gamma, eps1=eps1, eps2=eps2,
                n=sizes["scan_n"], step=sizes["scan_step"],
            )
            ops.append(Op(f"scan/{label}/{sizes['scan_n']}", "scan", args))
        return ops
    if workload == "spectral_diag":
        points = sizes["symbol_points"]
        return [
            Op("seq", "seq", dict(beta=beta_of(0.5), q=2.0, n_list=list(sizes["seq_ns"]))),
            Op("eig", "eig", dict(beta=beta_of(0.5), q=2.0, n=sizes["eig_n"], grid_tag="fine")),
            Op("region", "region", dict(
                betas=[beta_of(b) for b in sizes["region_betas"]], qs=list(sizes["region_qs"]),
            )),
            Op("symbol", "symbol", dict(
                n_terms=sizes["symbol_terms"], beta=beta_of(0.5),
                theta=np.arange(1, points + 1) * math.pi / (points + 1),
            )),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_op(workload: str, ops: list[Op]) -> Op:
    """The workload's smallest case, run once before anything is timed."""
    first = ops[0]
    if workload == "qscan_direct":
        a = first.args
        q = bench.q_for_beta(a["beta"], a["n"])
        spec = bench.MeshSpec("graded", q=q, eps1=a["eps1"], eps2=a["eps2"])
        return Op("warmup/" + first.label, "case",
                  bench.CaseConfig(a["beta"], a["gamma"], spec, a["n"], "direct"))
    if workload == "spectral_diag":
        return Op("warmup/seq", "seq", dict(first.args, n_list=first.args["n_list"][:1]))
    return replace(first, label="warmup/" + first.label)


def direct_twins(ops: list[Op]) -> list[Op]:
    """The same solve cases with ``solver="direct"``."""
    return [
        replace(op, label=op.label + "/direct", args=replace(op.args, solver="direct"))
        for op in ops
        if op.kind == "case"
    ]


def largest_matrix(ops: list[Op]) -> int:
    """Order of the largest dense matrix the operations assemble."""
    sizes = [1]
    for op in ops:
        a = op.args
        if op.kind == "case":
            sizes.append(a.n)
        elif op.kind in ("scan", "eig"):
            sizes.append(a["n"])
        elif op.kind == "seq":
            sizes.append(max(a["n_list"]))
        elif op.kind == "region":
            sizes.append(32)  # glt5_region assembles at n = 16 and 32
    return max(sizes)


def load_expected(tiny: bool) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["tiny" if tiny else "full"]


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def check(op: Op, out, expected: dict) -> float | None:
    """Raise :class:`CheckFailed` if ``out`` is wrong; return its error measure.

    The error measure is ``e_inf`` for solves (the larger of ``e_opt`` and
    ``e_beta`` for a scan), ``sup_gap`` for ``eig_vs_symbol`` and None
    otherwise.
    """
    if op.kind in ("case", "scan"):
        key = op.label.removeprefix("warmup/").removesuffix("/direct")
        if op.kind == "case":
            if not out.converged:
                raise CheckFailed("did not converge")
            err = out.e_inf
        else:
            if not _finite([e for _, e in out.scanned]):
                raise CheckFailed("non-finite e_inf among the scanned exponents")
            err = max(out.e_opt, out.e_beta)
        if not _finite(err):
            raise CheckFailed(f"e_inf is {err}")
        bound = expected["e_inf_bounds"].get(key)
        if bound is None:
            raise CheckFailed(f"no recorded e_inf bound for {key}")
        if err > bound:
            raise CheckFailed(f"e_inf {err:.6g} exceeds the recorded bound {bound:.6g}")
        return err
    if op.kind == "eig":
        if not _finite(out.sup_gap):
            raise CheckFailed(f"sup_gap is {out.sup_gap}")
        return out.sup_gap
    if op.kind == "seq":
        s = np.asarray(out, dtype=float)
        if not _finite(s):
            raise CheckFailed("non-finite asymmetry sequence")
        if not np.all(np.diff(s) < 0.0):
            raise CheckFailed(f"asymmetry sequence is not decreasing: {s.tolist()}")
        return None
    if op.kind == "region":
        want = expected["region_signs"]
        got = np.asarray(out).tolist()
        bad = [
            (b, q, g, w)
            for b, grow, wrow in zip(op.args["betas"], got, want)
            for q, g, w in zip(op.args["qs"], grow, wrow)
            if w is not None and g != w
        ]
        if bad:
            raise CheckFailed(
                "sign map differs from the recorded one at (beta, q, got, recorded) "
                + ", ".join(f"({b:.4g}, {q:g}, {g}, {w})" for b, q, g, w in bad)
            )
        return None
    if op.kind == "symbol":
        if not _finite(out):
            raise CheckFailed("non-finite symbol values")
        return None
    raise ValueError(f"unknown operation kind {op.kind!r}")
