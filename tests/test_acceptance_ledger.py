"""The acceptance ledger's classifier and writer, fed made-up criteria: no
criterion is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "acceptance.py"
_SPEC = importlib.util.spec_from_file_location("acceptance", _PATH)
acceptance = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(acceptance)


@pytest.mark.parametrize(
    "line,cause",
    [
        ("beta=0.2 N+1=1024 sqrt: reference marks '-', measured e=1.20e-04", "-"),
        ("beta=0.2 N+1=1024 sqrt: reference marks '-', measured it=36", "-"),
        ("gamma=1 beta=0.7: expected '-', measured it=12", "-"),
        ("beta=0.5 eps6: q_opt=2.50 vs 2.7 (e_opt=2.40e-05 vs 2.4e-05)", "q_opt"),
        ("beta=0.8 N+1=64 eps1: ord=0.52 vs 0.5", "ord"),
        ("beta=0.8 N+1=64 sqrt: ord unavailable (coarser level diverged)", "ord"),
        ("beta=0.2 N+1=256 sqrt: it=15 vs 35", "it"),
        ("beta=0.2 N+1=256 sqrt: no convergence, reference it=35", "it"),
        ("(n1,n2)=(8,256): it=9 vs 7+-1", "it"),
        ("beta=0.8 N+1=32 eps1: e_inf=1.76e-01 vs 1.1e-1 (x1.60)", "error"),
        ("beta=0.8 N+1=32 eps1: no convergence, reference e=1.1e-1", "error"),
        ("beta=0.8 eps3: e_beta=4.60e-03 vs 2.9e-3 (x1.59)", "error"),
        ("(n1,n2)=(8,256): e_inf_nodes=1.2e-01 vs 7.9e-02 (x1.6; refined-mesh e_inf=2e-1, x2.5)",
         "error"),
        ("capped exponent 5.3100 != 5.315", "other"),
        ("sup_gap 0.400 exceeds 5% of radius 3.000", "other"),
    ],
)
def test_each_line_gets_its_cause(line, cause):
    assert acceptance.cause(line) == cause


def test_writer_counts_checks_violations_and_causes(tmp_path):
    records = [
        (1, "test_criterion_1_x", ["cell a: it=3 vs 9", "cell b: ord=0.1 vs 1.5",
                                   "cell c: it=4 vs 9"], 10),
        (2, "test_criterion_2_y", [], 4),
    ]
    path = tmp_path / "ACCEPTANCE.json"
    acceptance.write(path, records)
    book = json.loads(path.read_text())
    first, second = book["criteria"]["1"], book["criteria"]["2"]
    assert (first["test"], first["checks"], first["violations"]) == ("test_criterion_1_x", 10, 3)
    assert first["causes"] == {"-": 0, "q_opt": 0, "ord": 1, "it": 2, "error": 0, "other": 0}
    assert first["lines"][1] == {"cause": "ord", "line": "cell b: ord=0.1 vs 1.5"}
    assert (second["violations"], second["lines"], sum(second["causes"].values())) == (0, [], 0)
    # the same records give the same bytes
    again = tmp_path / "again.json"
    acceptance.write(again, records)
    assert again.read_bytes() == path.read_bytes()
