"""The benchmark's metric catalog: names, units, directions and the layer map.

``BENCHMARK.json`` at the repository root lists the same metrics with
their bounds; ``selfcheck.py`` asserts the two agree.  This module also
records what ``BENCHMARK.json`` has no key for: which workloads exercise
each per-layer metric, and which end-to-end metric it should move, on
which workload (the last two fields of ``PER_LAYER``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS = ("mst-expander", "mst-cycle", "zoo-sweep", "store-report")
#: Workloads that verify against oracles and run the sequential references.
VERIFYING = ("mst-expander", "mst-cycle", "zoo-sweep")
#: Every workload simulates the paper's algorithm; store-report only in
#: set-up, where it simulates the payloads its records carry.
SIMULATING = WORKLOADS

#: Distributed algorithms (simulated) and sequential references, as registered.
DISTRIBUTED = ("elkin", "ghs", "gkp")
SEQUENTIAL = ("kruskal", "prim", "prim_dense", "boruvka_seq")

#: Stage names of ``details["stage_costs"]`` of the paper's algorithm.
STAGES = ("bfs", "controlled_ghs", "intervals_and_registration", "boruvka")

#: Protocol names the simulator's primitives and baselines send under.
PRIMITIVES = (
    "bcast",
    "cvgc",
    "upcast",
    "downcast",
    "edgemsg",
    "nbrx",
    "ival",
    "bfs",
    "gkp-pipeline",
)

#: End-to-end metrics: name -> (unit, better).  Every workload emits all
#: of them with tracing off.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_rounds": ("count", "lower"),
    "sim_messages": ("count", "lower"),
}

#: What one timed iteration is, per workload (``wall_s`` is its median).
ITERATION = {
    "mst-expander": (
        "elkin, gkp and ghs on each random 4-regular graph of the seed, each run verified"
    ),
    "mst-cycle": "elkin on each cycle of the seed, each run verified",
    "zoo-sweep": "one zoo-preset sweep (jobs=1, verification on) into a fresh JSONL store",
    "store-report": (
        "for JSONL and columnar: append every record, close, reopen read-only, "
        "has_run every key, analyze_store + render_markdown"
    ),
}


def _per_layer() -> Dict[str, Tuple[str, str, Tuple[str, ...], List[str]]]:
    """name -> (unit, better, workloads that exercise it, end-to-end moves)."""
    table: Dict[str, Tuple[str, str, Tuple[str, ...], List[str]]] = {}

    def add(
        name: str, unit: str, better: str, workloads: Tuple[str, ...], moves: List[str]
    ) -> None:
        table[name] = (unit, better, workloads, moves)

    graph_moves = [
        "setup_s@mst-expander", "setup_s@mst-cycle", "wall_s@zoo-sweep", "setup_s@store-report"
    ]
    add("graphs.build_s", "s", "lower", SIMULATING, graph_moves)
    add("graphs.build_calls", "count", "lower", SIMULATING, graph_moves)
    add("graphs.properties.hop_diameter_s", "s", "lower", SIMULATING, graph_moves)
    for name in DISTRIBUTED + SEQUENTIAL:
        if name == "elkin":
            where: Tuple[str, ...] = SIMULATING
            moves = [
                "wall_s@mst-expander", "wall_s@mst-cycle", "wall_s@zoo-sweep",
                "setup_s@store-report",
            ]
        elif name in DISTRIBUTED:
            where = ("mst-expander",)
            moves = ["wall_s@mst-expander"]
        else:
            where = VERIFYING
            moves = ["wall_s@zoo-sweep", "setup_s@mst-expander", "setup_s@mst-cycle"]
        add(f"algorithms.{name}.run_s", "s", "lower", where, moves)
        add(f"algorithms.{name}.calls", "count", "lower", where, moves)
    for stage in STAGES:
        for counter in ("rounds", "messages"):
            add(
                f"core.stage.{stage}.{counter}",
                "count",
                "lower",
                SIMULATING,
                [f"sim_{counter}@{workload}" for workload in VERIFYING],
            )
    engine_moves = ["wall_s@mst-expander", "wall_s@mst-cycle"]
    add("simulator.engine.send_s", "s", "lower", SIMULATING, engine_moves)
    add("simulator.engine.send_calls", "count", "lower", SIMULATING, engine_moves)
    add("simulator.engine.send_to_neighbors_calls", "count", "lower", SIMULATING, engine_moves)
    add("simulator.engine.deliver_s", "s", "lower", SIMULATING, engine_moves)
    add("simulator.engine.deliver_calls", "count", "lower", SIMULATING, engine_moves)
    add("simulator.engine.receivers_per_round", "count", "higher", SIMULATING, engine_moves)
    add("simulator.protocol.self_s", "s", "lower", SIMULATING,
        ["wall_s@mst-cycle", "wall_s@mst-expander"])
    for prefix in PRIMITIVES:
        where = ("mst-expander",) if prefix == "gkp-pipeline" else SIMULATING
        moved = [workload for workload in where if workload in VERIFYING]
        add(f"simulator.primitives.{prefix}.messages", "count", "lower", where,
            [f"sim_messages@{workload}" for workload in moved])
        add(f"simulator.primitives.{prefix}.s", "s", "lower", where,
            [f"wall_s@{workload}" for workload in moved])
    verify_moves = ["wall_s@zoo-sweep", "setup_s@mst-expander", "setup_s@mst-cycle"]
    add("verify.oracle_build_s", "s", "lower", VERIFYING, verify_moves)
    add("verify.check_s", "s", "lower", VERIFYING, verify_moves)
    add("verify.checks_per_oracle", "count", "higher", VERIFYING, verify_moves)
    add("campaign.executor.self_s", "s", "lower", ("zoo-sweep",), ["wall_s@zoo-sweep"])
    add("campaign.cell_ms_p50", "ms", "lower", ("zoo-sweep",), ["wall_s@zoo-sweep"])
    add("campaign.cell_ms_p99", "ms", "lower", ("zoo-sweep",), ["wall_s@zoo-sweep"])
    for method in ("record_run", "flush", "open", "has_run"):
        add(f"campaign.store.{method}_s", "s", "lower", ("zoo-sweep", "store-report"),
            ["wall_s@zoo-sweep", "wall_s@store-report"])
        add(f"campaign.columnar.{method}_s", "s", "lower", ("store-report",),
            ["wall_s@store-report"])
    for backend in ("jsonl", "columnar"):
        for phase in ("append", "reopen", "report"):
            add(f"store.{backend}.{phase}_s", "s", "lower", ("store-report",),
                ["wall_s@store-report"])
    add("analysis.report.analyze_s", "s", "lower", ("store-report",), ["wall_s@store-report"])
    add("analysis.report.render_s", "s", "lower", ("store-report",), ["wall_s@store-report"])
    add("trace.overhead_pct", "%", "lower", WORKLOADS, [])
    return table


PER_LAYER = _per_layer()
