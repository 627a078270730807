"""Quick self-check of the benchmark at tiny sizes (about a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that:

* ``BENCHMARK.json`` lists exactly the metrics of ``catalog.py``, with
  the same units and directions;
* every workload, untraced and traced, reports ``correct`` with no
  failed operation and emits every named metric with its unit;
* end-to-end metrics are never 0, and a traced run's per-layer metric
  is non-zero exactly on the workloads the catalog says exercise it;
* outcomes (simulated rounds, messages and the rows / report digest) are
  identical with tracing on and off, and change with the workload seed;
* per-layer counts (calls, messages, ratios such as
  ``verify.checks_per_oracle``) do not change with ``--seconds``, i.e.
  with the number of traced iterations;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import catalog

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def run(
    workload: str, seed: int, trace: int, seconds: int = 1
) -> Tuple[Dict[str, Any], List[str]]:
    """One tiny run; its result object and its standard output lines."""
    command = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--scale", "tiny"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError(
            f"{' '.join(command)} exited {completed.returncode}:\n{completed.stderr}"
        )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def line_starting(lines: List[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))


def check_benchmark_json(problems: List[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if tuple(names) != catalog.WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} != catalog {catalog.WORKLOADS}")
    listed = {metric["name"]: (metric["unit"], metric["better"]) for metric in spec["end_to_end"]}
    if listed != dict(catalog.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {listed} != catalog")
    listed = {metric["name"]: (metric["unit"], metric["better"]) for metric in spec["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _, _) in catalog.PER_LAYER.items()}
    if listed != expected:
        problems.append(f"BENCHMARK.json per_layer differs: {set(listed) ^ set(expected)}")


def check_result(workload: str, trace: int, result: Dict[str, Any], problems: List[str]) -> None:
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    metrics: Dict[str, Dict[str, Any]] = result["metrics"]
    expected = (
        {name: unit for name, (unit, _, _, _) in catalog.PER_LAYER.items()}
        if trace
        else {name: unit for name, (unit, _) in catalog.END_TO_END.items()}
    )
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ from catalog: {set(metrics) ^ set(expected)}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected.get(name):
            problems.append(f"{where}: {name} unit {metric.get('unit')!r}, not {expected[name]!r}")
        value = metric["value"]
        if trace:
            if name == "trace.overhead_pct":
                continue
            exercised = workload in catalog.PER_LAYER[name][2]
            if exercised != (value != 0):
                problems.append(f"{where}: {name} = {value} but exercised={exercised}")
        elif value == 0:
            problems.append(f"{where}: end-to-end {name} is 0")


def check_counts_ignore_seconds(workload: str, problems: List[str]) -> None:
    """Per-layer counts describe one iteration, however many were traced."""
    results = []
    for seconds in (1, 4):
        result, lines = run(workload, 1, 1, seconds)
        iterations = len(line_starting(lines, "traced iteration times").split(":")[1].split())
        results.append((iterations, result["metrics"]))
    (short, first), (long, second) = results
    if short == long:
        problems.append(f"{workload}: --seconds 1 and 4 both traced {short} iterations")
    for name, metric in first.items():
        if metric["unit"] != "count":
            continue
        a, b = metric["value"], second[name]["value"]
        if abs(a - b) > 1e-9 * max(abs(a), abs(b), 1.0):
            problems.append(f"{workload}: {name} is {a} over {short} traced iterations, "
                            f"{b} over {long}")


def check_bare_directory(problems: List[str]) -> None:
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, f"{HERE.name}/run.py", "--workload", catalog.WORKLOADS[0],
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
        completed = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
        if completed.returncode == 0 or completed.stdout.strip():
            problems.append(f"bare directory: exit {completed.returncode}, {completed.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    problems: List[str] = []
    check_benchmark_json(problems)
    for workload in catalog.WORKLOADS:
        plain, plain_lines = run(workload, 1, 0)
        traced, traced_lines = run(workload, 1, 1)
        other, other_lines = run(workload, 2, 0)
        plain_digest, traced_digest, other_digest = (
            line_starting(lines, "outcome digest:")
            for lines in (plain_lines, traced_lines, other_lines)
        )
        check_result(workload, 0, plain, problems)
        check_result(workload, 1, traced, problems)
        check_result(workload, 0, other, problems)
        if plain_digest != traced_digest:
            problems.append(f"{workload}: {plain_digest} untraced, {traced_digest} traced")
        if plain_digest == other_digest:
            problems.append(f"{workload}: seeds 1 and 2 gave the same outcome")
        print(f"{workload}: checked", flush=True)
    check_counts_ignore_seconds("mst-expander", problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
