"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mst-expander --seed 1 --seconds 20 --trace 0

The program under test is the ``repro`` package in ``src/``, imported
from source.  A run sets up its inputs (imports, graph generation,
description, oracles, warm-up), then repeats the workload's iteration
for ``--seconds`` seconds of wall time, checking every output.  Times are
rescaled to a reference host speed (see :class:`HostSpeed`).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones
(``catalog.END_TO_END``): ``wall_s`` is the median iteration time,
``setup_s`` the median import time in a fresh interpreter plus the
median ``prepare()`` time plus the warm-up time, and ``sim_rounds`` /
``sim_messages`` the exact simulated costs one iteration covers.  With
``--trace 1`` the run repeats the untraced iteration for half the time,
then installs the probes of ``tracing.py`` and repeats the traced
iteration for the other half; the metrics are the per-layer ones
(``catalog.PER_LAYER``), and ``trace.overhead_pct`` compares the median
traced iteration with the median untraced one.

``fail_rate`` is printed as a line (failed over attempted checks) and
carried by the result's ``failed`` / ``attempted`` fields; it is 0 on a
correct program, so it is not one of the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import catalog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up passes per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fewest timed iterations per phase, however long each takes.
MIN_ITERATIONS = 2


def import_in_subprocess() -> None:
    """Start a fresh interpreter that imports the package, and wait for it."""
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's inner loop.

    It churns dicts, lists and small tuples the way message delivery
    does, and calls nothing from the program under test, so its time
    moves only with the host's speed.
    """
    inbox: Dict[int, List[Tuple[int, int, str]]] = {}
    total = 0
    for round_index in range(8):
        for vertex in range(2000):
            inbox.setdefault((vertex * 7919 + round_index) % 2000, []).append(
                (vertex, round_index, "kind")
            )
        for messages in inbox.values():
            total += len(messages)
        inbox.clear()
    return total


class HostSpeed:
    """Rescales measured times to the speed of a quiet reference host.

    Virtual machines that share a physical core slow down and speed up
    by up to 2x over tens of seconds, which no run length averages out.
    Every timed span is therefore followed by three runs of
    :func:`reference_kernel`; the span's time is multiplied by
    ``REFERENCE_KERNEL_S`` over the mean of the kernel's median time
    just before and just after it.  A span on a slowed host thus reads
    as it would on the quiet host, and a faster program still reads
    faster, since the kernel runs none of its code.  The kernel runs
    with the garbage collector off, so a collection walking the
    program's live heap cannot land in it and tie its time to how much
    the program keeps alive.
    """

    #: About the fastest time of ``reference_kernel`` seen on a 2.1 GHz
    #: Xeon vCPU, i.e. on that host when its core was not shared.
    REFERENCE_KERNEL_S = 0.005

    def __init__(self) -> None:
        self._last = self._sample()

    @staticmethod
    def _sample() -> float:
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                reference_kernel()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    def rescale(self, seconds: float) -> float:
        """``seconds`` measured since the previous call, at the reference speed."""
        now = self._sample()
        factor = self.REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        return seconds * factor

    def time(self, function: Callable[[], Any]) -> float:
        """Call ``function``; its rescaled duration."""
        start = time.perf_counter()
        function()
        return self.rescale(time.perf_counter() - start)


def timed_iterations(
    workload: Any, host: HostSpeed, seconds: float, trace: Any = None
) -> Tuple[List[float], List[float], List[Any]]:
    """Repeat the workload's iteration for about ``seconds`` of wall time.

    Returns each iteration's rescaled time and its measured (unscaled)
    time, both sums over its steps, and the outcomes.
    """
    times: List[float] = []
    raw_times: List[float] = []
    outcomes: List[Any] = []
    started = time.perf_counter()
    last = 0.0
    while len(times) < MIN_ITERATIONS or time.perf_counter() - started + last <= seconds:
        gc.collect()
        host.rescale(0.0)
        begun = time.perf_counter()
        total = 0.0
        measured = 0.0
        parts = []
        for step in workload.steps(trace):
            start = time.perf_counter()
            parts.append(step())
            spent = time.perf_counter() - start
            measured += spent
            total += host.rescale(spent)
        outcomes.append(workload.combine(parts))
        times.append(total)
        raw_times.append(measured)
        last = time.perf_counter() - begun
    return times, raw_times, outcomes


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, time and check one workload; everything the report needs."""
    import tracing
    import workloads

    host = HostSpeed()
    # The import is timed in fresh interpreters, so it repeats like the
    # rest of set-up.
    import_s = statistics.median(host.time(import_in_subprocess) for _ in range(SETUP_REPEATS))
    checks = workloads.Checks()
    with workloads.workdir_under(ROOT) as workdir:
        workload = workloads.make_workload(args.workload, args.seed, checks, workdir, args.scale)
        prepare_s = statistics.median(host.time(workload.prepare) for _ in range(SETUP_REPEATS))
        warm_up_s = host.time(workload.warm_up)
        budget = args.seconds / 2 if args.trace else args.seconds
        times, raw_times, outcomes = timed_iterations(workload, host, budget)
        layers: Dict[str, float] = {}
        traced_times: List[float] = []
        if args.trace:
            trace = tracing.Trace()
            with tracing.instrument(trace):
                workload.prepare()
                trace.mark_setup_done()
                traced_times, traced_raw, traced_outcomes = timed_iterations(
                    workload, host, budget, trace
                )
            outcomes += traced_outcomes
            # Mean host factor: rescaled over measured time.
            host_factor = sum(traced_times) / sum(traced_raw)
            layers = tracing.layer_values(trace, len(traced_times))
            for name, (unit, _, _, _) in catalog.PER_LAYER.items():
                # Layer times are read at the same host speed as wall_s.
                if unit in ("s", "ms"):
                    layers[name] *= host_factor
            layers["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced_times) / statistics.median(times) - 1.0
            )
    identical = checks.record(
        len(set(outcomes)) == 1, f"iterations disagree: {sorted(set(map(str, outcomes)))}"
    )
    return {
        "checks": checks,
        "correct": checks.failed == 0 and identical,
        "outcome": outcomes[0],
        "times": times,
        "raw_times": raw_times,
        "traced_times": traced_times,
        "setup_parts": (import_s, prepare_s, warm_up_s),
        "layers": layers,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = measure(args)
    outcome = run["outcome"]
    if args.trace:
        values = run["layers"]
        units = {name: unit for name, (unit, _, _, _) in catalog.PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(run["times"]),
            "setup_s": sum(run["setup_parts"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_rounds": outcome.rounds,
            "sim_messages": outcome.messages,
        }
        units = {name: unit for name, (unit, _) in catalog.END_TO_END.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    checks = run["checks"]
    print(f"workload {args.workload} seed {args.seed}: {catalog.ITERATION[args.workload]}")
    print("untraced iteration times (s): " + " ".join(f"{t:.4f}" for t in run["times"]))
    times, raw_times = run["times"], run["raw_times"]
    print(f"untraced raw median iteration time {statistics.median(raw_times):.4f} s, "
          f"mean host factor {sum(times) / sum(raw_times):.4f} (rescaled over measured)")
    if args.trace:
        print("traced iteration times (s): " + " ".join(f"{t:.4f}" for t in run["traced_times"]))
    import_s, prepare_s, warm_up_s = run["setup_parts"]
    print(f"set-up parts (s): import {import_s:.4f}, prepare {prepare_s:.4f}, "
          f"warm-up {warm_up_s:.4f}")
    print(f"outcome digest: {outcome.digest}")
    print(f"fail_rate = {checks.failed}/{checks.attempted}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": run["correct"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
