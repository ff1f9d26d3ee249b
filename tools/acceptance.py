"""Acceptance ledger: run every criterion of ``tests/test_acceptance.py`` and
write its number of checks, its violation lines and each line's cause to
``ACCEPTANCE.json`` at the repository root.

    python3 tools/acceptance.py

The criteria are the test functions themselves: each runs with the
module's ``_report`` replaced by a recorder, so the checks are not copied
and a criterion that fails does not stop the others.  A criterion that
takes the ``rng`` fixture gets a generator seeded by ``RNG_SEED`` of
``tests/conftest.py``, as under pytest.  The file holds no time or commit,
so two runs of the same code give the same file.  The seven criteria took
about 11 s on two processors.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "ACCEPTANCE.json"

#: Cause classes of a violation line, tried in order; a line that matches
#: none is ``other``.  A '-' marker line may quote ``it=``, and a ``q_opt``
#: line quotes ``e_opt=``, so those two come first.
CAUSES = (
    ("-", re.compile(r"(marks|expected) '-'")),
    ("q_opt", re.compile(r"\bq_opt=")),
    ("ord", re.compile(r"\bord[= ]")),
    ("it", re.compile(r"\bit=")),
    ("error", re.compile(r"\be(_\w+)?=")),
)


def cause(line: str) -> str:
    """The cause class of one violation line."""
    return next((name for name, pattern in CAUSES if pattern.search(line)), "other")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_criteria() -> list[tuple[int, str, list[str], int]]:
    """``(criterion, test name, violation lines, checks)`` of each criterion,
    in the order the module defines them."""
    sys.path.insert(0, str(ROOT / "src"))
    suite, seed = _load("test_acceptance"), _load("conftest").RNG_SEED
    found = []
    suite._report = lambda criterion, violations, checked: found.append(
        (criterion, list(violations), checked))
    records = []
    for name, test in inspect.getmembers(suite, inspect.isfunction):
        if not name.startswith("test_criterion_"):
            continue
        found.clear()
        test(**({"rng": np.random.default_rng(seed)} if "rng" in inspect.signature(test).parameters else {}))
        (criterion, violations, checked), = found  # each criterion reports once
        print(f"criterion {criterion}: {checked - len(violations)}/{checked} checks", flush=True)
        records.append((criterion, name, violations, checked))
    return sorted(records)


def ledger(records) -> dict:
    """Per criterion: its test, checks, violations, the count of each cause
    class and the violation lines with their causes."""
    criteria = {}
    for criterion, name, violations, checked in records:
        causes = [cause(line) for line in violations]
        criteria[str(criterion)] = {
            "test": name,
            "checks": checked,
            "violations": len(violations),
            "causes": {c: causes.count(c) for c, _ in (*CAUSES, ("other", None))},
            "lines": [{"cause": c, "line": line} for c, line in zip(causes, violations)],
        }
    return {"criteria": criteria}


def write(path: Path, records) -> None:
    path.write_text(json.dumps(ledger(records), indent=1) + "\n", encoding="utf-8")


def main() -> int:
    write(OUT, run_criteria())
    print(f"wrote {OUT.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
