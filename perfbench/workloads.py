"""The benchmark's four workloads.

Each workload derives every input from the workload seed, so the same
seed gives the same inputs and another seed re-seeds every generated
graph.  A workload has three phases:

* ``prepare()`` builds the inputs (graph generation, description,
  oracles); it is repeatable and is what set-up time measures;
* ``warm_up()`` runs once before timing, so lazy imports and first-use
  caches are not charged to the first timed iteration;
* ``steps(trace)`` lists the steps of one timed iteration, and
  ``combine(parts)`` folds what the steps returned into an
  :class:`Outcome`, which must be identical on every iteration and with
  tracing on or off.  Every step checks the outputs it produces.  The
  harness times steps one by one, so it can rescale each step's time by
  the host speed measured right around it (see ``run.py``).

Sizes were chosen so that one iteration takes a few seconds on a 2-vCPU
host and several graphs share each iteration, which keeps the seed-to-
seed spread of the end-to-end figures small.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import tracing
from catalog import SEQUENTIAL

from repro.algorithms import run_algorithm
from repro.analysis.report import analyze_store, render_markdown
from repro.campaign import (
    Campaign,
    ColumnarStore,
    execute_campaign,
    graph_spec_for,
    preset_campaign,
    run_spec,
    RunSpec,
    RunStore,
)
from repro.config import RunConfig
from repro.exceptions import ReproError
from repro.graphs import properties
from repro.graphs.generators import GraphSpec
from repro.types import normalize_edges
from repro.verify import mst_checks, planted_checks


#: Vertex count of the small graph the MST workloads warm up on.
WARM_UP_N = 64


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one iteration produced: exact simulation counts and a digest."""

    rounds: int
    messages: int
    digest: str


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _span(trace: Optional[tracing.Trace], name: str) -> Any:
    return trace.tracer.span(name) if trace is not None else contextlib.nullcontext()


class MSTWorkload:
    """Distributed MST runs on seeded graphs of one family, default engine."""

    def __init__(
        self,
        seed: int,
        checks: Checks,
        family: str,
        params: Dict[str, object],
        graphs: int,
        algorithms: Tuple[str, ...],
    ) -> None:
        self.checks = checks
        self.algorithms = algorithms
        self.specs = [
            GraphSpec(family, {**params, "seed": seed * graphs + index})
            for index in range(graphs)
        ]
        self.warm_up_spec = GraphSpec(family, {**params, "n": WARM_UP_N, "seed": seed})
        self.instances: List[Tuple[Any, Any, Any]] = []

    def prepare(self) -> None:
        """Build, describe and verify-prepare every graph of the seed."""
        instances = []
        for spec in self.specs:
            graph = spec.build()
            properties.hop_diameter(graph)
            oracle = mst_checks.MSTOracle(graph)
            planted = planted_checks.planted_mst_edges(graph)
            # The oracle cross-checks networkx, Kruskal and Prim; the four
            # registered sequential references must agree with it too.
            for reference in SEQUENTIAL:
                edges = normalize_edges(run_algorithm(graph, reference).edges)
                self.checks.record(
                    edges == oracle.expected,
                    f"{reference} disagrees with the oracle on {spec.label()}",
                )
            if planted is not None:
                self.checks.record(planted == oracle.expected, f"planted MST of {spec.label()}")
            instances.append((graph, oracle, planted))
        self.instances = instances

    def warm_up(self) -> None:
        graph = self.warm_up_spec.build()
        for algorithm in self.algorithms:
            run_algorithm(graph, algorithm)

    def steps(self, trace: Optional[tracing.Trace] = None) -> List[Callable[[], Any]]:
        return [
            functools.partial(self._run, index, algorithm)
            for index in range(len(self.instances))
            for algorithm in self.algorithms
        ]

    def _run(self, index: int, algorithm: str) -> Optional[Tuple[str, str, int, int]]:
        graph, oracle, planted = self.instances[index]
        label = f"{algorithm} on {self.specs[index].label()}"
        try:
            result = run_algorithm(graph, algorithm, RunConfig())
            oracle.verify(result)
            if planted is not None:
                planted_checks.assert_matches_planted_mst(graph, result, expected=planted)
        except ReproError as error:
            self.checks.record(False, f"{label}: {error}")
            return None
        self.checks.record(True, label)
        return (algorithm, self.specs[index].label(), result.rounds, result.messages)

    def combine(self, parts: List[Any]) -> Outcome:
        costs = [part for part in parts if part is not None]
        return Outcome(
            sum(cost[2] for cost in costs), sum(cost[3] for cost in costs), _digest(parts)
        )


class ZooWorkload:
    """The ``zoo`` preset through ``execute_campaign``, in-process, verified."""

    def __init__(self, seed: int, checks: Checks, workdir: Path, cells: Optional[int]) -> None:
        self.seed = seed
        self.checks = checks
        self.workdir = workdir
        self.cells = cells
        self.campaign: Optional[Campaign] = None
        self._runs = 0

    def prepare(self) -> None:
        # Seed 0 is the stock preset; seed s maps each cell's generator
        # seed g (0 or 1) to 2s + g, so cells that shared a graph still do.
        preset = preset_campaign("zoo")
        specs = [
            dataclasses.replace(spec, seed=2 * self.seed + (spec.seed or 0))
            for spec in preset.specs[: self.cells]
        ]
        self.campaign = Campaign(name=preset.name, specs=specs, verify=True)

    def warm_up(self) -> None:
        self.combine([self._sweep()])

    def steps(self, trace: Optional[tracing.Trace] = None) -> List[Callable[[], Any]]:
        return [functools.partial(self._sweep, trace)]

    def combine(self, parts: List[Any]) -> Outcome:
        return parts[0]

    def _sweep(self, trace: Optional[tracing.Trace] = None) -> Outcome:
        assert self.campaign is not None
        self._runs += 1
        path = self.workdir / f"zoo-{self._runs}.jsonl"
        cells = len(self.campaign.specs)
        observers = [] if trace is None else [tracing.CellObserver(trace.tracer)]
        try:
            with _span(trace, "campaign.store.open"):
                store = RunStore(path, durability="none")
            if trace is not None:
                tracing.time_store_methods(trace.tracer, store, "campaign.store")
            with _span(trace, "campaign.executor"):
                report = execute_campaign(
                    self.campaign, store=store, jobs=1, verify=True, observers=observers
                )
            store.close()
        except ReproError as error:
            if trace is not None:
                trace.tracer.reset_stack()
            self.checks.attempted += cells
            self.checks.failed += cells
            print(f"CHECK FAILED: zoo sweep raised {error}", file=sys.stderr)
            return Outcome(0, 0, "failed")
        finally:
            path.unlink(missing_ok=True)
        ok = report.executed == cells and len(report.rows) == cells
        self.checks.attempted += cells
        if not ok:
            self.checks.failed += cells
            print(f"CHECK FAILED: zoo executed {report.executed} of {cells} cells", file=sys.stderr)
        rounds = sum(int(row["rounds"]) for row in report.rows)
        messages = sum(int(row["messages"]) for row in report.rows)
        return Outcome(rounds, messages, _digest(report.rows))


class StoreWorkload:
    """Write, reopen, look up and report E17-style records on both backends."""

    BACKENDS = (("jsonl", RunStore, "runs.jsonl"), ("columnar", ColumnarStore, "runs.sqlite"))

    def __init__(
        self, seed: int, checks: Checks, workdir: Path, records: int, payload_seeds: int
    ) -> None:
        self.seed = seed
        self.checks = checks
        self.workdir = workdir
        self.record_count = records
        self.payload_seeds = payload_seeds
        self.records: List[Tuple[RunSpec, Dict[str, object], Dict[str, object]]] = []
        self.keys: List[str] = []
        self._runs = 0
        self._directory = workdir

    def prepare(self) -> None:
        """Simulate the payloads, then stamp them onto distinct seeds."""
        payloads = []
        for n in (16, 32, 64):
            for index in range(self.payload_seeds):
                graph_seed = self.seed * self.payload_seeds + index
                spec = RunSpec(graph=graph_spec_for("random_connected", n, seed=graph_seed))
                row, result = run_spec(spec)
                payloads.append((n, row, result.to_json_dict()))
        records = []
        for index in range(self.record_count):
            n, row, result_json = payloads[index % len(payloads)]
            # Stamped seeds live far above the payload seeds, so every
            # record has its own content-hashed key.
            stamp = (self.seed + 1) * 10_000_000 + index
            spec = RunSpec(graph=graph_spec_for("random_connected", n, seed=stamp))
            records.append((spec, row, result_json))
        self.records = records
        self.keys = [spec.run_key() for spec, _, _ in records]
        self.checks.record(len(set(self.keys)) == len(self.keys), "stamped run keys are distinct")

    def warm_up(self) -> None:
        self.combine([step() for step in self.steps()])

    def steps(self, trace: Optional[tracing.Trace] = None) -> List[Callable[[], Any]]:
        self._runs += 1
        directory = self.workdir / f"store-{self._runs}"
        directory.mkdir(parents=True)
        self._directory = directory
        steps: List[Callable[[], Any]] = []
        for backend, store_class, filename in self.BACKENDS:
            state = {"path": directory / filename, "layer": (
                "campaign.store" if backend == "jsonl" else "campaign.columnar"
            )}
            steps.append(functools.partial(self._append, trace, backend, store_class, state))
            steps.append(functools.partial(self._reopen, trace, backend, store_class, state))
            steps.append(functools.partial(self._report, trace, backend, state))
        return steps

    def _open(self, trace: Optional[tracing.Trace], store_class: Any, state: Dict[str, Any],
              **options: Any) -> Any:
        with _span(trace, f"{state['layer']}.open"):
            store = store_class(state["path"], **options)
        if trace is not None:
            tracing.time_store_methods(trace.tracer, store, state["layer"])
        return store

    def _append(self, trace: Optional[tracing.Trace], backend: str, store_class: Any,
                state: Dict[str, Any]) -> None:
        provenance = {"executor": "perfbench", "verified": True}
        with _span(trace, f"store.{backend}.append"):
            store = self._open(trace, store_class, state, durability="none")
            for spec, row, result_json in self.records:
                store.record_run(spec, row, result_json, provenance)
            store.close()

    def _reopen(self, trace: Optional[tracing.Trace], backend: str, store_class: Any,
                state: Dict[str, Any]) -> None:
        with _span(trace, f"store.{backend}.reopen"):
            store = self._open(trace, store_class, state, read_only=True)
            has_run = store.has_run
            found = sum(1 for key in self.keys if has_run(key))
        state["store"] = store
        self.checks.record(
            found == len(self.keys), f"{backend}: has_run found {found} of {len(self.keys)} keys"
        )

    def _report(self, trace: Optional[tracing.Trace], backend: str, state: Dict[str, Any]) -> str:
        store = state.pop("store")
        with _span(trace, f"store.{backend}.report"):
            with _span(trace, "analysis.report.analyze"):
                analysis = analyze_store(store)
            with _span(trace, "analysis.report.render"):
                document = render_markdown(analysis)
        store.close()
        self.checks.record(
            len(analysis.rows) == len(self.records) and analysis.bound_violations == 0,
            f"{backend}: report covers {len(analysis.rows)} rows, "
            f"{analysis.bound_violations} bound violations",
        )
        return document

    def combine(self, parts: List[Any]) -> Outcome:
        shutil.rmtree(self._directory, ignore_errors=True)
        documents = [part for part in parts if part is not None]
        self.checks.record(
            len(documents) == len(self.BACKENDS) and len(set(documents)) == 1,
            "JSONL and columnar render byte-identical markdown",
        )
        rounds = sum(int(row["rounds"]) for _, row, _ in self.records)
        messages = sum(int(row["messages"]) for _, row, _ in self.records)
        return Outcome(rounds, messages, _digest(documents[0]))


#: Workload sizes; ``tiny`` is the self-check's scale.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "mst-expander": {"n": 300, "graphs": 8},
        "mst-cycle": {"n": 200, "graphs": 24},
        "zoo-sweep": {"cells": None},
        "store-report": {"records": 5000, "payload_seeds": 8},
    },
    "tiny": {
        "mst-expander": {"n": 64, "graphs": 2},
        "mst-cycle": {"n": 40, "graphs": 2},
        # The first six coverage graphs, each with elkin and all references.
        "zoo-sweep": {"cells": 54},
        "store-report": {"records": 60, "payload_seeds": 1},
    },
}


def make_workload(name: str, seed: int, checks: Checks, workdir: Path, scale: str = "full") -> Any:
    """Construct workload ``name`` for ``seed`` at ``scale``."""
    size = SIZES[scale][name]
    if name == "mst-expander":
        return MSTWorkload(
            seed, checks, "random_regular", {"n": size["n"], "degree": 4}, size["graphs"],
            ("elkin", "gkp", "ghs"),
        )
    if name == "mst-cycle":
        return MSTWorkload(seed, checks, "cycle", {"n": size["n"]}, size["graphs"], ("elkin",))
    if name == "zoo-sweep":
        return ZooWorkload(seed, checks, workdir, size["cells"])
    return StoreWorkload(seed, checks, workdir, size["records"], size["payload_seeds"])


@contextlib.contextmanager
def workdir_under(root: Path) -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed on exit."""
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    index = 0
    while True:
        path = base / f"run-{index}"
        try:
            path.mkdir()
            break
        except FileExistsError:
            index += 1
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
