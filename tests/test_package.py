import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import gradedfve
from gradedfve import assembly


@pytest.mark.parametrize("module", ["gradedfve"] + [f"gradedfve.{m}" for m in gradedfve.__all__])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_operator_kind_defines_its_own_matvec():
    """perfbench traces products by wrapping ``vars(cls)["matvec"]`` on
    ``DenseOperator`` and ``SymToeplitzOperator``, so each member of
    ``LinearOperator`` defines ``matvec`` itself (one inherited from a base
    class would go untraced), and the alias names one of them."""
    kinds = typing.get_args(assembly.LinearOperator)
    assert [kind.__name__ for kind in kinds if "matvec" not in vars(kind)] == []
    assert assembly.SymToeplitzOperator in kinds


def test_solves_and_spectra_import_no_scipy():
    """A fresh process that solves and compares spectra loads no scipy
    module; the eps6 solve at N = 2047 takes the exponential-sum operator."""
    code = (
        "import sys\n"
        "from gradedfve import bench, spectral\n"
        "from gradedfve.bench import CaseConfig, MeshSpec\n"
        "eps6 = MeshSpec('graded', eps1=1.0, eps2=0.0)\n"
        "for spec, solver, n in ((MeshSpec('composite', rule='sqrt'), 'pgmres', 63),\n"
        "                        (eps6, 'direct', 63), (eps6, 'pgmres', 2047)):\n"
        "    assert bench.run_case(CaseConfig(0.5, 0.5, spec, n, solver)).converged\n"
        "spectral.eig_vs_symbol(0.5, 2.0, 16, 'coarse')\n"
        "spectral.eig_vs_symbol(0.5, 2.0, 16, 'fine')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(gradedfve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
