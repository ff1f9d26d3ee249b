"""Benchmark ledger: run every workload of ``BENCHMARK.json`` over several
seeds and write the end-to-end metrics, their medians and quartiles and one
traced run's per-layer metrics per workload to ``BENCH_<number>.json``,
named by the number of the change it measures.

    python3 tools/ledger.py --number N

Run from anywhere; the runs start in the repository root.  Each run is
``python3 perfbench/run.py --workload W --seed S --trace 0`` in its own
process, for the seeds 1 to 5; within each seed round the workloads run in
turn, the order rotated by one each round, so that a slow stretch of a
shared machine falls on all of them.  One ``--trace 1`` run per workload
follows.  A run's result is its last JSON line; a run without one counts as
failed and the ledger goes on.  Finally each median is printed as a ratio
to the newest committed ``BENCH_*.json`` other than the one written, next
to the ``BENCHMARK.json`` bound of its metric.  Five rounds of the three
workloads and the traced runs took under six minutes on two processors.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 6)
#: A run that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 900
_ENV_LINE = re.compile(r"^env nproc=(\d+) blas_threads=(\{.*?\})", re.MULTILINE)


def plan(workloads, seeds=SEEDS) -> list[tuple[str, int, int]]:
    """The runs ``(workload, seed, trace)`` in order: one untraced round per
    seed, its workload order rotated by the round's index, then one traced
    run of each workload at the first seed."""
    seeds = list(seeds)
    runs = []
    for k, seed in enumerate(seeds):
        turn = k % len(workloads)
        runs += [(w, seed, 0) for w in workloads[turn:] + workloads[:turn]]
    return runs + [(w, seeds[0], 1) for w in workloads]


def command(workload: str, seed: int, trace: int) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]


def run_benchmark(cmd: list[str]) -> str:
    """The standard output of one run; a run that times out gives what it
    printed before."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
    return done.stdout


def parse_run(stdout: str) -> dict | None:
    """The result of a run's last JSON line, or None when it has none."""
    for line in reversed(stdout.splitlines()):
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    return None


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive, by linear interpolation)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def collect(workloads, metrics, runner=run_benchmark, seeds=SEEDS) -> dict:
    """Run the plan through ``runner`` (a command to its standard output)
    and gather the ledger: per run the ``metrics`` and the operation counts,
    per workload each metric's spread over the runs that gave a result, the
    traced runs' metrics, and the usable processor count and the BLAS
    thread counts that ``run.py`` reports having set."""
    runs, traced = [], {}
    env = {"usable_processors": None, "blas_threads": None}
    for workload, seed, trace in plan(workloads, seeds):
        out = runner(command(workload, seed, trace))
        print(f"{workload} seed {seed} trace {trace}: ", end="", flush=True)
        if (found := _ENV_LINE.search(out)) and env["blas_threads"] is None:
            env = {"usable_processors": int(found[1]), "blas_threads": ast.literal_eval(found[2])}
        result = parse_run(out)
        if result is None:
            print("no result line")
            if trace:
                traced[workload] = None
            else:
                runs.append({"workload": workload, "seed": seed, "result": False})
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"{result['failed']}/{result['attempted']} failed")
        if trace:
            traced[workload] = values
            continue
        runs.append({"workload": workload, "seed": seed, "result": True,
                     "attempted": result["attempted"], "failed": result["failed"],
                     **{name: values.get(name) for name in metrics}})
    summary = {}
    for workload in workloads:
        done = [r for r in runs if r["workload"] == workload and r["result"]]
        summary[workload] = {
            "runs": sum(r["workload"] == workload for r in runs),
            "runs_without_result": sum(r["workload"] == workload and not r["result"] for r in runs),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            **{name: spread(vals) for name in metrics
               if (vals := [r[name] for r in done if r[name] is not None])},
        }
    return {**env, "runs": runs, "summary": summary, "traced": traced}


def ratio_lines(ledger: dict, baseline: dict | None, bounds: dict, name: str = "baseline") -> list[str]:
    """One line per workload and metric: the median's ratio to the
    baseline's, with the metric's bound; a ratio past the bound is marked."""
    if baseline is None:
        return ["no baseline: no BENCH_*.json is committed"]
    lines = []
    for workload, now in ledger["summary"].items():
        before = baseline["summary"].get(workload, {})
        for metric, (better, bound) in bounds.items():
            if metric not in now or metric not in before:
                lines.append(f"{workload} {metric}: no median to compare")
                continue
            ratio = now[metric]["median"] / before[metric]["median"]
            worse = ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
            lines.append(f"{workload} {metric}: {now[metric]['median']:.4g} / "
                         f"{before[metric]['median']:.4g} = {ratio:.3f} against {name} "
                         f"(bound {bound:.0%}){'  WORSE' if worse else ''}")
    return lines


def newest_committed(exclude: Path) -> Path | None:
    """The committed ``BENCH_<n>.json`` of the highest ``n``, other than ``exclude``."""
    listed = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT,
                            capture_output=True, text=True).stdout.split()
    numbered = [(int(m[1]), ROOT / f) for f in listed if (m := re.fullmatch(r"BENCH_(\d+)\.json", f))]
    numbered = [(n, path) for n, path in numbered if path != exclude]
    return max(numbered)[1] if numbered else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="write BENCH_<number>.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    ledger = collect(workloads, list(bounds))
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    ledger = {"commit": head.stdout.strip(), "uncommitted_changes": bool(dirty), **ledger}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out.name}")
    base = newest_committed(out)
    baseline = json.loads(base.read_text()) if base else None
    print("\n".join(ratio_lines(ledger, baseline, bounds, base.name if base else "baseline")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
