"""Write ``HEAD_TRACE.json``: the layer map and one traced run per workload.

Run from the repository root (about two minutes)::

    python3 perfbench/head_table.py

The file records, for every metric, its unit, direction and the
workloads that emit it; for every per-layer metric, the end-to-end
metrics it should move and on which workload; and the per-layer values
of one traced run of each workload at the current commit, to compare a
later commit's traced run against.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
#: Workload seed and measuring time of each traced run.
SEED = 1
SECONDS = 20


def main() -> int:
    traced = {}
    for workload in catalog.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload}: traced run was not correct")
        traced[workload] = {
            name: round(metric["value"], 6)
            for name, metric in result["metrics"].items()
            if workload in catalog.PER_LAYER[name][2]
        }
        print(f"{workload}: traced", flush=True)
    document = {
        "how": (
            f"python3 perfbench/run.py --workload <name> --seed {SEED} "
            f"--seconds {SECONDS} --trace 1"
        ),
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "end_to_end": {
            name: {"unit": unit, "better": better, "workloads": list(catalog.WORKLOADS)}
            for name, (unit, better) in catalog.END_TO_END.items()
        },
        "per_layer": {
            name: {"unit": unit, "better": better, "workloads": list(where), "moves": moves}
            for name, (unit, better, where, moves) in catalog.PER_LAYER.items()
        },
        "iteration": catalog.ITERATION,
        "traced": traced,
    }
    (HERE / "HEAD_TRACE.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
