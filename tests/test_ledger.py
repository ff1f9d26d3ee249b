"""The benchmark ledger, fed made-up run outputs: no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ledger.py"
_SPEC = importlib.util.spec_from_file_location("ledger", _PATH)
ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger)

WORKLOADS = ["a", "b", "c"]
METRICS = ["wall_s", "peak_mb"]
BOUNDS = {"wall_s": ("lower", 0.25), "peak_mb": ("lower", 0.05)}


def fake_output(wall, peak, failed=0):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "peak_mb": {"value": peak, "unit": "MB"}}}
    return ("env nproc=2 blas_threads={'OPENBLAS_NUM_THREADS': '2'} python=3\n"
            f"wall_s = {wall} s\n{json.dumps(result)}\n")


def fake_runner(outputs):
    """Answer each command from ``outputs[(workload, seed, trace)]`` and
    record the order of the calls."""
    calls = []

    def run(cmd):
        key = (cmd[cmd.index("--workload") + 1], int(cmd[cmd.index("--seed") + 1]),
               int(cmd[cmd.index("--trace") + 1]))
        calls.append(key)
        return outputs[key]

    return run, calls


def test_plan_rotates_the_workloads_each_round_then_traces_each():
    assert ledger.plan(WORKLOADS, range(1, 5)) == [
        ("a", 1, 0), ("b", 1, 0), ("c", 1, 0),
        ("b", 2, 0), ("c", 2, 0), ("a", 2, 0),
        ("c", 3, 0), ("a", 3, 0), ("b", 3, 0),
        ("a", 4, 0), ("b", 4, 0), ("c", 4, 0),
        ("a", 1, 1), ("b", 1, 1), ("c", 1, 1),
    ]
    cmd = ledger.command("a", 3, 1)
    assert cmd[1:] == ["perfbench/run.py", "--workload", "a", "--seed", "3", "--trace", "1"]


def test_collect_medians_quartiles_and_a_run_without_result():
    walls = {"a": [1.0, 2.0, 3.0, 4.0, 5.0], "b": [2.0, 2.0, 2.0, 2.0, 2.0], "c": [1.0, 3.0, 2.0, 9.0, 4.0]}
    outputs = {}
    for w in WORKLOADS:
        for seed, wall in zip(range(1, 6), walls[w]):
            outputs[(w, seed, 0)] = fake_output(wall, 10.0 * seed, failed=int(w == "b" and seed == 2))
        outputs[(w, 1, 1)] = fake_output(0.5, 1.0)
    outputs[("c", 4, 0)] = "Traceback (most recent call last):\nMemoryError\n"  # no result line
    runner, calls = fake_runner(outputs)
    book = ledger.collect(WORKLOADS, METRICS, runner, range(1, 6))

    assert calls == ledger.plan(WORKLOADS, range(1, 6))
    assert book["usable_processors"] == 2 and book["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2"}
    a, b, c = (book["summary"][w] for w in WORKLOADS)
    assert a["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert a["peak_mb"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert b["wall_s"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (b["attempted"], b["failed"]) == (50, 1)
    # c's seed-4 run gave no result: its other four runs make the spread
    assert (c["runs"], c["runs_without_result"], c["attempted"]) == (5, 1, 40)
    assert c["wall_s"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert {"workload": "c", "seed": 4, "result": False} in book["runs"]
    assert book["traced"] == {w: {"wall_s": 0.5, "peak_mb": 1.0} for w in WORKLOADS}
    run = next(r for r in book["runs"] if (r["workload"], r["seed"]) == ("b", 2))
    assert run == {"workload": "b", "seed": 2, "result": True, "attempted": 10, "failed": 1,
                   "wall_s": 2.0, "peak_mb": 20.0}


def test_parse_run_takes_the_last_json_line():
    out = fake_output(1.0, 2.0) + "{\"not\": \"a result\"}\n"
    assert ledger.parse_run(out)["metrics"]["wall_s"]["value"] == 1.0
    assert ledger.parse_run("no json here\n") is None
    assert ledger.spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}


def test_ratio_lines():
    def book(**medians):
        return {"summary": {"a": {m: {"median": v, "q1": v, "q3": v} for m, v in medians.items()}}}

    assert ledger.ratio_lines(book(wall_s=1.0), None, BOUNDS) == [
        "no baseline: no BENCH_*.json is committed"
    ]
    lines = ledger.ratio_lines(book(wall_s=1.3, peak_mb=10.0), book(wall_s=1.0, peak_mb=10.0),
                               BOUNDS, "BENCH_1.json")
    assert lines == [
        "a wall_s: 1.3 / 1 = 1.300 against BENCH_1.json (bound 25%)  WORSE",
        "a peak_mb: 10 / 10 = 1.000 against BENCH_1.json (bound 5%)",
    ]
    assert ledger.ratio_lines(book(wall_s=1.0), book(peak_mb=1.0), BOUNDS)[0] == (
        "a wall_s: no median to compare"
    )


@pytest.mark.parametrize("better, ratio, worse", [("higher", 0.7, True), ("higher", 0.9, False)])
def test_ratio_lines_for_higher_is_better(better, ratio, worse):
    now = {"summary": {"a": {"m": {"median": ratio}}}}
    before = {"summary": {"a": {"m": {"median": 1.0}}}}
    (line,) = ledger.ratio_lines(now, before, {"m": (better, 0.25)})
    assert line.endswith("WORSE") == worse
