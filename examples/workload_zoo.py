#!/usr/bin/env python3
"""The workload zoo: every graph family, batched, differentially verified.

Walks the three layers this repo uses to stress Elkin's bounds across
structurally diverse inputs:

1. the *catalogue* -- every registered family with its diameter/weight
   regime (``repro.workloads.ZOO_INFO``);
2. a *batched sweep* -- the ``zoo`` preset executed twice, once cell by
   cell through ``run_spec`` and once through ``execute_campaign``,
   demonstrating that batching changes wall-clock time only (the rows
   are byte-identical);
3. the *planted ground truth* -- a planted-fragment instance whose MST
   is known by construction, checked against the paper's algorithm.

Run with::

    python examples/workload_zoo.py

The sweep is available from the command line as::

    repro-mst sweep --preset zoo --output zoo.jsonl
"""

from __future__ import annotations

import time

from repro import workloads
from repro.analysis.tables import format_table
from repro.campaign import execute_campaign, preset_campaign, run_spec
from repro.core.elkin_mst import compute_mst
from repro.verify.planted_checks import planted_mst_edges


def main() -> int:
    # 1. The catalogue.
    rows = [
        {
            "family": info.family,
            "regime": info.regime,
            "planted": "yes" if info.plants_mst else "-",
            "round-bound regime": info.round_regime,
        }
        for info in (
            workloads.ZOO_INFO[name] for name in workloads.zoo_family_names()
        )
    ]
    print(format_table(rows))

    # 2. The zoo sweep, per-cell vs batched (same rows, less time).
    campaign = preset_campaign("zoo")
    print(f"\nzoo preset: {len(campaign)} cells across {len(rows)} families")
    start = time.perf_counter()
    per_cell_rows = [run_spec(spec)[0] for spec in campaign.specs]
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = execute_campaign(campaign, resume=False)
    batched_seconds = time.perf_counter() - start
    assert per_cell_rows == batched.rows, "batching must not change a single row"
    print(
        f"per-cell: {serial_seconds:.2f}s   batched: {batched_seconds:.2f}s   "
        f"speedup: {serial_seconds / batched_seconds:.2f}x (byte-identical rows)"
    )

    # 3. Planted ground truth, independent of the sequential oracles.
    graph = workloads.planted_fragments_graph(48, fragments=6, seed=11)
    planted = planted_mst_edges(graph)
    result = compute_mst(graph)
    assert planted is not None and result.edges == planted
    print(
        f"\nplanted_fragments(48): elkin reproduced the planted MST "
        f"({len(planted)} edges, weight {result.total_weight:.0f}) in "
        f"{result.rounds} rounds / {result.messages} messages"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
