"""Command-line front end for solves, table sweeps and spectral diagnostics.

Exit codes: 0 on success, 1 on configuration errors, 2 when a table sweep
completed only partially (some cells errored).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import bench, spectral
from ._memory import require_memory
from .bench import CaseConfig, MeshSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_case(p: _Parser) -> None:
    """The flags ``solve`` and ``qopt`` share: the problem, the blend and the size."""
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--eps1", type=float, default=MeshSpec.eps1)
    p.add_argument("--eps2", type=float, default=MeshSpec.eps2)
    p.add_argument("--n", type=int, default=2**8 - 1, help="number of interior points")


def _out_stream(path):
    # standard output must outlive the ``with`` block that writes to it
    return open(path, "w", encoding="ascii") if path else contextlib.nullcontext(sys.stdout)


def main(argv=None) -> int:
    parser = _Parser(prog="gradedfve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one case and report errors")
    _add_case(p)
    p.add_argument("--mesh", choices=["uniform", "graded", "composite"], default="graded")
    p.add_argument("--q", type=float, default=None, help="grading exponent (default: capped order-optimal)")
    p.add_argument("--rule", choices=["sqrt", "log2"], default=None)
    p.add_argument("--n1", type=int, default=None, help="dyadic points of a composite mesh, out of --n")
    p.add_argument("--tol", type=float, default=CaseConfig.tol)
    p.add_argument("--maxit", type=int, default=CaseConfig.maxit)
    p.add_argument("--solver", choices=["pgmres", "gmres", "direct"], default=CaseConfig.solver)
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
    _add_case(p)
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
    p.add_argument("--n-list", type=int, nargs="+", default=None,
                   help="sequence sizes (default: 16 32 ... 512)")
    p.add_argument("--beta-grid", type=float, nargs="+", default=None)
    p.add_argument("--q-grid", type=float, nargs="+", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eigcmp", help="sorted eigenvalues vs sorted symbol samples")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n", type=int, default=2**6)
    p.add_argument("--grid-tag", choices=["coarse", "fine"], default="fine")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    # each command fills in what it writes: CSV columns and rows, or with
    # --format json a record; the eigcmp CSV opens with a comment line
    record, comment, digits, code = None, "", 6, 0
    try:
        if args.command == "solve":
            mesh = MeshSpec(args.mesh, args.q, args.eps1, args.eps2, args.rule, args.n1)
            cfg = CaseConfig(args.beta, args.gamma, mesh, args.n, args.solver, args.tol, args.maxit)
            res = bench.run_case(cfg)
            record = dataclasses.asdict(res)
            columns, rows = list(record), [record.values()]
        elif args.command == "table":
            overrides = {
                key: value
                for key in ("betas", "gammas", "n_list", "tol", "maxit")
                if (value := getattr(args, key)) is not None
            }
            result = bench.table_sweep(args.id, overrides)
            columns, rows = result.columns, result.rows
            record = {"table": result.table_id, "rows": [dict(zip(columns, row)) for row in rows]}
            code = 0 if result.complete else 2
        elif args.command == "qopt":
            res = bench.scan_qopt(
                args.beta, args.gamma, args.eps1, args.eps2, args.n,
                (args.qmin, args.qmax), args.qstep,
            )
            record = dataclasses.asdict(res)
            columns, rows = ["q", "e_inf"], record.pop("scanned")
        elif args.command == "symbol":
            # the theta grid, the values and the series' temporaries peak at
            # 2.0-2.3 tables (tracemalloc, 2^17 and 2^18 points)
            require_memory(3 * 8 * args.points, f"3 tables of {args.points} theta points")
            thetas = np.linspace(-np.pi, np.pi, args.points)
            values = spectral.symbol_p(args.n_terms, args.beta, thetas)
            columns, rows, digits = ["theta", "p"], zip(thetas, values), 17
        elif args.command == "glt5":
            if (args.beta_grid is None) != (args.q_grid is None):
                parser.error("glt5 needs both --beta-grid and --q-grid, or neither")
            if args.beta_grid is not None:
                unread = [flag for flag, value in
                          (("--beta", args.beta), ("--q", args.q), ("--n-list", args.n_list))
                          if value is not None]
                if unread:
                    parser.error(f"the glt5 sign map does not read {', '.join(unread)}")
                signs = spectral.glt5_region(args.beta_grid, args.q_grid)
                columns = ["beta", "q", "sign"]
                rows = ([b, q, signs[i, j]] for i, b in enumerate(args.beta_grid)
                        for j, q in enumerate(args.q_grid))
            elif args.beta is None or args.q is None:
                parser.error("glt5 needs either --beta and --q or both grids")
            else:
                n_list = args.n_list or [2**k for k in range(4, 10)]
                values = spectral.glt5_sequence(args.beta, args.q, n_list)
                columns, rows, digits = ["n", "s"], zip(n_list, values), 17
        else:  # eigcmp
            report = spectral.eig_vs_symbol(args.beta, args.q, args.n, args.grid_tag)
            comment = f"# grid={report.grid_tag} sup_gap={report.sup_gap:.17g}\n"
            columns, digits = ["index", "eigenvalue", "symbol_sample"], 17
            rows = ([i, complex(e).real, s]
                    for i, (e, s) in enumerate(zip(report.sorted_eigs, report.sorted_samples)))

        with _out_stream(args.out) as fh:
            if getattr(args, "format", "csv") == "json":
                json.dump(record, fh, indent=2)
                fh.write("\n")
            else:
                fh.write(comment)
                bench.write_csv(fh, columns, rows, digits)
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
