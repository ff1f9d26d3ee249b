import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedfve


@pytest.mark.parametrize("module", ["gradedfve"] + [f"gradedfve.{m}" for m in gradedfve.__all__])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_solves_and_spectra_import_no_scipy():
    """A fresh process that solves and compares spectra loads no scipy module."""
    code = (
        "import sys\n"
        "from gradedfve import bench, spectral\n"
        "from gradedfve.bench import CaseConfig, MeshSpec\n"
        "for spec, solver in ((MeshSpec('composite', rule='sqrt'), 'pgmres'),\n"
        "                     (MeshSpec('graded', eps1=1.0, eps2=0.0), 'direct')):\n"
        "    assert bench.run_case(CaseConfig(0.5, 0.5, spec, 63, solver)).converged\n"
        "spectral.eig_vs_symbol(0.5, 2.0, 16, 'coarse')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(gradedfve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
