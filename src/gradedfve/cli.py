"""Command-line front end for solves, table sweeps and spectral diagnostics.

Exit codes: 0 on success, 1 on configuration errors, 2 when a table sweep
completed only partially (some cells errored).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import bench, spectral
from .bench import CaseConfig, MeshSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(p: _Parser) -> None:
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--mesh", choices=["uniform", "graded", "composite"], default="graded")
    p.add_argument("--q", type=float, default=None, help="grading exponent (default: capped order-optimal)")
    p.add_argument("--eps1", type=float, default=1.0)
    p.add_argument("--eps2", type=float, default=0.0)
    p.add_argument("--rule", choices=["sqrt", "log2"], default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--n", type=int, default=2**8 - 1, help="number of interior points")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--maxit", type=int, default=100)


def _out_stream(path):
    # standard output must outlive the ``with`` block that writes to it
    return open(path, "w", encoding="ascii") if path else contextlib.nullcontext(sys.stdout)


def _mesh_spec(args) -> MeshSpec:
    return MeshSpec(
        kind=args.mesh,
        q=args.q,
        eps1=args.eps1,
        eps2=args.eps2,
        rule=args.rule,
        n1=args.n1,
        n2=args.n2,
    )


def main(argv=None) -> int:
    parser = _Parser(prog="gradedfve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one case and report errors")
    _add_common(p)
    p.add_argument("--solver", choices=["pgmres", "gmres", "direct"], default="pgmres")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = sub.add_parser("table", help="run a benchmark table sweep")
    p.add_argument("--id", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--betas", type=float, nargs="+", default=None)
    p.add_argument("--gammas", type=float, nargs="+", default=None)
    p.add_argument("--n-list", type=int, nargs="+", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--maxit", type=int, default=None)

    p = sub.add_parser("qopt", help="scan the grading exponent for minimal error")
    _add_common(p)
    p.add_argument("--qmin", type=float, default=1.0)
    p.add_argument("--qmax", type=float, default=9.0)
    p.add_argument("--qstep", type=float, default=0.1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = sub.add_parser("symbol", help="sample the generating function")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-terms", type=int, default=spectral.DEFAULT_SYMBOL_TERMS)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--out", default=None)

    p = sub.add_parser("glt5", help="trace-norm asymmetry sequence or sign map")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n-list", type=int, nargs="*", default=[2**k for k in range(4, 10)])
    p.add_argument("--beta-grid", type=float, nargs="*", default=None)
    p.add_argument("--q-grid", type=float, nargs="*", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eigcmp", help="sorted eigenvalues vs sorted symbol samples")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n", type=int, default=2**6)
    p.add_argument("--grid-tag", choices=["coarse", "fine"], default="fine")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            cfg = CaseConfig(
                args.beta, args.gamma, _mesh_spec(args), args.n,
                args.solver, args.tol, args.maxit,
            )
            res = bench.run_case(cfg)
            payload = {
                "it": res.it_label or None,
                "converged": res.converged,
                "e_inf": res.e_inf,
                "e_inf_nodes": res.e_inf_nodes,
                "e_rel": res.e_rel,
                "wall_time": res.wall_time,
                "depth": res.depth,
                "omega": res.omega,
                "omega_fallback": res.omega_fallback,
            }
            with _out_stream(args.out) as fh:
                if args.format == "json":
                    json.dump(payload, fh, indent=2)
                    fh.write("\n")
                else:
                    bench.write_csv(fh, list(payload), [payload.values()])
            return 0

        if args.command == "table":
            overrides = {
                key: value
                for key in ("betas", "gammas", "n_list", "tol", "maxit")
                if (value := getattr(args, key)) is not None
            }
            result = bench.table_sweep(args.id, overrides)
            with _out_stream(args.out) as fh:
                fh.write(result.to_csv() if args.format == "csv" else result.to_json() + "\n")
            return 0 if result.complete else 2

        if args.command == "qopt":
            res = bench.scan_qopt(
                args.beta, args.gamma, args.eps1, args.eps2, args.n,
                (args.qmin, args.qmax), args.qstep,
            )
            with _out_stream(args.out) as fh:
                if args.format == "json":
                    json.dump(
                        {"q_opt": res.q_opt, "e_opt": res.e_opt,
                         "q_beta": res.q_beta, "e_beta": res.e_beta},
                        fh, indent=2,
                    )
                    fh.write("\n")
                else:
                    bench.write_csv(fh, ["q", "e_inf"], res.scanned)
            return 0

        if args.command == "symbol":
            thetas = np.linspace(-np.pi, np.pi, args.points)
            values = spectral.symbol_p(args.n_terms, args.beta, thetas)
            with _out_stream(args.out) as fh:
                bench.write_csv(fh, ["theta", "p"], zip(thetas, values), digits=17)
            return 0

        if args.command == "glt5":
            if args.beta_grid and args.q_grid:
                signs = spectral.glt5_region(args.beta_grid, args.q_grid)
                with _out_stream(args.out) as fh:
                    rows = ([b, q, signs[i, j]] for i, b in enumerate(args.beta_grid)
                            for j, q in enumerate(args.q_grid))
                    bench.write_csv(fh, ["beta", "q", "sign"], rows)
                return 0
            if args.beta is None or args.q is None:
                parser.error("glt5 needs either --beta and --q or both grids")
            values = spectral.glt5_sequence(args.beta, args.q, args.n_list)
            with _out_stream(args.out) as fh:
                bench.write_csv(fh, ["n", "s"], zip(args.n_list, values), digits=17)
            return 0

        if args.command == "eigcmp":
            report = spectral.eig_vs_symbol(args.beta, args.q, args.n, args.grid_tag)
            with _out_stream(args.out) as fh:
                fh.write(f"# grid={report.grid_tag} sup_gap={report.sup_gap:.17g}\n")
                rows = ([i, complex(e).real, s]
                        for i, (e, s) in enumerate(zip(report.sorted_eigs, report.sorted_samples)))
                bench.write_csv(fh, ["index", "eigenvalue", "symbol_sample"], rows, digits=17)
            return 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
