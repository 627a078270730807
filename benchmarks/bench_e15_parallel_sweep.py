"""E15 (engineering): the scheduler against in-process execution.

Like E11/E12, this benchmark measures the harness rather than the
paper.  The scheduler (:mod:`repro.campaign.scheduler`: graph-affine
work units leased to persistent workers, each batching locally,
worker-local shard stores folded back) is timed against the in-process
batched path -- the only other way a campaign runs -- on two campaigns:

* **expander** (gated): ``elkin``, ``ghs`` and ``gkp`` on random
  4-regular graphs with n = 300, seeds 0-5, on the ``reference``
  engine -- 18 cells where simulation dominates (the shape of the
  ``mst-expander`` workload).  The scheduler at ``JOBS`` workers must
  be at least ``MIN_SPEEDUP`` times faster than in-process.
* **zoo** (recorded only): the ``zoo`` preset, several hundred cells so
  small that the whole in-process sweep takes about a second, so worker
  start-up and the shard fold eat most of the parallel gain.

Both paths must produce byte-identical rows.  The two paths alternate
within each repetition so they see the same machine load, and each
keeps its best time.

Set ``REPRO_E15_WRITE_JSON=path`` to also dump the measured rows as
JSON (the checked-in ``BENCH_E15.json`` is produced this way).
"""

from __future__ import annotations

import gc
import json
import os
import time

from conftest import run_once

from repro.campaign import Campaign, execute_campaign, preset_campaign
from repro.graphs.generators import GraphSpec

REPETITIONS = 3
#: Worker count of the scheduled runs.
JOBS = int(os.environ.get("REPRO_E15_JOBS", "4"))
#: Hard floor for the scheduler-vs-in-process speedup on the expander
#: campaign.  Best-of-3 on 2 vCPUs measured 1.75x at jobs=2 and 1.89x at
#: jobs=4; shared CI runners can override it downwards (the measured
#: ratio is always recorded in extra_info either way).
MIN_SPEEDUP = float(os.environ.get("REPRO_E15_MIN_SPEEDUP", "1.5"))


def _expander_campaign() -> Campaign:
    return Campaign.from_grid(
        "e15-expander",
        [GraphSpec("random_regular", {"n": 300, "degree": 4})],
        algorithms=("elkin", "ghs", "gkp"),
        engines=("reference",),
        seeds=tuple(range(6)),
    )


def _timed(campaign, jobs):
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        report = execute_campaign(campaign, jobs=jobs, resume=False)
        return time.perf_counter() - start, report
    finally:
        if gc_was_enabled:
            gc.enable()


def _compare(campaign):
    """Best-of-REPETITIONS seconds for jobs=1 and jobs=JOBS, interleaved."""
    best = {1: float("inf"), JOBS: float("inf")}
    reports = {}
    for _ in range(REPETITIONS):
        for jobs in best:
            seconds, reports[jobs] = _timed(campaign, jobs)
            best[jobs] = min(best[jobs], seconds)
    in_process, scheduled = reports[1], reports[JOBS]
    # Byte-identical rows: the scheduler buys wall-clock time only.
    assert scheduled.rows == in_process.rows
    assert scheduled.workers == JOBS
    speedup = best[1] / best[JOBS]
    rows = [
        {
            "campaign": campaign.name,
            "executor": name,
            "jobs": jobs,
            "cells": len(campaign),
            "seconds": round(best[jobs], 3),
            "cells/s": round(len(campaign) / best[jobs], 1),
        }
        for name, jobs in (("batched", 1), (f"batched-pool-{JOBS}", JOBS))
    ]
    rows[1]["speedup vs in-process"] = round(speedup, 2)
    return rows, speedup, scheduled.worker_stats


def test_e15_parallel_sweep_throughput(benchmark, record):
    expander = _expander_campaign()
    zoo = preset_campaign("zoo")
    assert len(expander) == 18
    assert len(zoo) >= 100

    def run():
        # Warm every import and generator path before timing (forked
        # workers inherit the warm state).
        execute_campaign(expander, resume=False)
        execute_campaign(zoo, resume=False)
        return _compare(expander), _compare(zoo)

    (expander_rows, expander_speedup, expander_stats), (zoo_rows, zoo_speedup, _) = (
        run_once(benchmark, run)
    )
    rows = expander_rows + zoo_rows
    title = f"E15: scheduler at jobs={JOBS} vs in-process"
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["expander_speedup"] = round(expander_speedup, 3)
    benchmark.extra_info["zoo_speedup"] = round(zoo_speedup, 3)
    benchmark.extra_info["worker_stats"] = expander_stats
    record(title, rows)

    json_path = os.environ.get("REPRO_E15_WRITE_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment": title,
                    "jobs": JOBS,
                    "min_speedup_floor": MIN_SPEEDUP,
                    "gated_campaign": expander.name,
                    "worker_stats": expander_stats,
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    assert expander_speedup >= MIN_SPEEDUP, (
        f"scheduler speedup {expander_speedup:.2f}x below the {MIN_SPEEDUP}x floor "
        f"vs in-process on {expander.name}"
    )
