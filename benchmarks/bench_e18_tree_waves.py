"""E18 (engineering): closed-form tree waves against the message path.

Like E11/E12/E15, this benchmark measures the simulator rather than the
paper.  ``forest_broadcast`` and ``forest_convergecast`` -- the
fragment-wide waves of Elkin's algorithm and of the GHS/GKP baselines --
charge their exactly known cost (``height`` rounds, one message per tree
edge) through ``Engine.charge_tree_wave`` and compute their outputs in
one pass over the forest.  This benchmark times ``elkin``, ``gkp`` and
``ghs`` on the ``fast`` kernel over three instances:

* random 4-regular, n = 2000 (low diameter);
* the 45x45 grid;
* the cycle on 1500 vertices (high diameter, where waves dominate);

once with closed-form waves and once with the message path forced the
way the test suite forces it (both kernels' ``charge_tree_wave``
replaced by the declining ``Engine`` default).  Each run records its
whole-run seconds and the seconds spent inside the two wave primitives
(the wave layer).  Both ways must give identical ``to_json_dict()``
results.  The two ways alternate within each repetition so they see the
same machine load, and each keeps its best time.

The whole-run speedup of ``elkin`` on the cycle must reach
``REPRO_E18_MIN_SPEEDUP`` (default 1.3).  Set ``REPRO_E18_WRITE_JSON=path``
to also dump the rows as JSON (the checked-in ``BENCH_E18.json`` is
produced this way).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

from conftest import run_once

import repro.simulator.primitives.broadcast as broadcast_module
import repro.simulator.primitives.convergecast as convergecast_module
from repro.algorithms import run_algorithm
from repro.config import RunConfig
from repro.graphs import cycle_graph, grid_graph
from repro.graphs.generators import random_regular_connected_graph
from repro.simulator.engine import Engine
from repro.simulator.fast_network import FastNetwork
from repro.simulator.network import SyncNetwork

REPETITIONS = 2
ENGINE = "fast"
#: Hard floor for the whole-run speedup of elkin on the cycle.  Best-of-2
#: on a 2-vCPU host measured 2.7x; shared CI runners can override
#: it downwards (the measured ratio is always recorded in extra_info).
MIN_SPEEDUP = float(os.environ.get("REPRO_E18_MIN_SPEEDUP", "1.3"))
GATED = ("elkin", "cycle")

INSTANCES = {
    "random_regular n=2000": lambda: random_regular_connected_graph(2000, 4, seed=1),
    "grid 45x45": lambda: grid_graph(45, 45, seed=1),
    "cycle n=1500": lambda: cycle_graph(1500, seed=1),
}
ALGORITHMS = ("elkin", "gkp", "ghs")


def _timed_waves(monkeypatch, clock):
    """Route every wave primitive through a timer adding to ``clock[0]``."""
    originals = (broadcast_module.forest_broadcast, convergecast_module.forest_convergecast)

    def timing(primitive):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return primitive(*args, **kwargs)
            finally:
                clock[0] += time.perf_counter() - start

        return timed

    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attribute, timing(value))


def _run(monkeypatch, graph, algorithm, message_path):
    """One run: (whole-run seconds, wave-layer seconds, result dict)."""
    clock = [0.0]
    with monkeypatch.context() as patch:
        _timed_waves(patch, clock)
        if message_path:
            for kernel in (SyncNetwork, FastNetwork):
                patch.setattr(kernel, "charge_tree_wave", Engine.charge_tree_wave)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = run_algorithm(graph, algorithm, RunConfig(engine=ENGINE))
            seconds = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
    return seconds, clock[0], result.to_json_dict()


def _compare(monkeypatch, graph, algorithm):
    best = {False: (float("inf"), 0.0), True: (float("inf"), 0.0)}
    results = {}
    for _ in range(REPETITIONS):
        for message_path in (True, False):
            seconds, waves, results[message_path] = _run(
                monkeypatch, graph, algorithm, message_path
            )
            if seconds < best[message_path][0]:
                best[message_path] = (seconds, waves)
    # Closed-form waves buy wall-clock time only.
    assert results[False] == results[True]
    (before, waves_before), (after, waves_after) = best[True], best[False]
    return {
        "algorithm": algorithm,
        "waves before (s)": round(waves_before, 3),
        "waves after (s)": round(waves_after, 3),
        "run before (s)": round(before, 3),
        "run after (s)": round(after, 3),
        "run speedup": round(before / after, 2),
        "rounds": results[False]["cost"]["rounds"],
        "messages": results[False]["cost"]["messages"],
    }


def test_e18_tree_wave_speedup(benchmark, record, monkeypatch):
    def run():
        rows = []
        for instance, build in INSTANCES.items():
            graph = build()
            for algorithm in ALGORITHMS:
                rows.append({"instance": instance, **_compare(monkeypatch, graph, algorithm)})
        return rows

    rows = run_once(benchmark, run)
    title = f"E18: closed-form tree waves vs the message path ({ENGINE} kernel)"
    gated = next(
        row
        for row in rows
        if row["algorithm"] == GATED[0] and row["instance"].startswith(GATED[1])
    )
    benchmark.extra_info["gated_speedup"] = gated["run speedup"]
    benchmark.extra_info["min_speedup_floor"] = MIN_SPEEDUP
    record(title, rows)

    json_path = os.environ.get("REPRO_E18_WRITE_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment": title,
                    "layer": "simulator.primitives: forest_broadcast + forest_convergecast",
                    "before": "message path (every wave message simulated)",
                    "after": "closed-form waves (Engine.charge_tree_wave)",
                    "min_speedup_floor": MIN_SPEEDUP,
                    "gated": f"{GATED[0]} on the {GATED[1]}",
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    assert gated["run speedup"] >= MIN_SPEEDUP, (
        f"{GATED[0]} on the {GATED[1]}: whole-run speedup {gated['run speedup']:.2f}x "
        f"below the {MIN_SPEEDUP}x floor"
    )
