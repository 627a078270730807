"""Layer tracing for the benchmark, installed from outside the package.

Nothing under ``src/`` is edited.  Every probe rides on a public seam or
on a module attribute the package looks up at call time, and every probe
is removed again when :func:`instrument` exits:

* engines: the ``engine_wrapper`` seam decorates every engine
  ``create_engine`` hands out with :class:`TimedEngine`, a proxy that
  forwards the whole engine contract (as ``ConditionedEngine`` does) and
  times ``send`` / ``send_to_neighbors`` / ``deliver_round``;
* algorithms: each registered runner is re-registered through
  ``register_algorithm`` with a timed wrapper, then the original entry
  is restored;
* graphs and verification: ``GraphSpec.build``, ``hop_diameter`` and
  ``MSTOracle`` are swapped for timed equivalents at the attributes the
  package reads them from;
* campaign cells: :class:`CellObserver` is a ``RunObserver`` whose
  ``on_run_start`` / ``on_result`` hooks open and close one span per
  cell;
* stores: :func:`time_store_methods` replaces methods on the one store
  object the benchmark hands in.

Spans nest on a stack, so each span's self time is its duration minus
the time its child spans cover.  Engine calls are too frequent for the
stack; they accumulate into :class:`EngineStats` instead, and the
protocol layer's self time is derived as distributed-run time minus
engine time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

import catalog

from repro.algorithms import algorithm_registry, register_algorithm
from repro.campaign import executor as campaign_executor
from repro.graphs import generators, properties
from repro.simulator.engine import Engine, engine_wrapper
from repro.verify import mst_checks

perf_counter = time.perf_counter

class Tracer:
    """Named spans on a stack, with total and self time per name."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # Open spans as [name, start, time covered by children].
        self._stack: List[List[Any]] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self, name: str) -> float:
        now = perf_counter()
        open_name, start, children = self._stack.pop()
        if open_name != name:
            raise RuntimeError(f"span {name!r} closed while {open_name!r} is open")
        duration = now - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return timed

    def reset_stack(self) -> None:
        """Drop spans left open by an operation that raised."""
        self._stack.clear()


@dataclasses.dataclass
class EngineStats:
    """Engine-call counters shared by every :class:`TimedEngine` of a trace."""

    send_s: float = 0.0
    send_calls: int = 0
    send_to_neighbors_calls: int = 0
    deliver_s: float = 0.0
    deliver_calls: int = 0
    receivers: int = 0
    #: Host time between deliveries, by the protocol that was running.
    host_s: Dict[str, float] = dataclasses.field(default_factory=lambda: defaultdict(float))
    messages: Counter = dataclasses.field(default_factory=Counter)
    last_kind: str = ""


class TimedEngine(Engine):
    """Timing proxy forwarding the full engine contract to ``inner``.

    Shares the inner kernel's graph, bandwidth and metrics, so every
    count it reports is the kernel's own.  The time between two
    deliveries, minus the engine time spent in it, is host time of the
    protocol whose messages were sent in that gap (or, in a gap without
    sends, of the protocol whose messages were last delivered).
    """

    def __init__(self, inner: Engine, stats: EngineStats) -> None:
        self._inner = inner
        self._stats = stats
        self.graph = inner.graph
        self.bandwidth = inner.bandwidth
        self.metrics = inner.metrics
        self._protocol = "other"
        self._gap_start = perf_counter()
        self._gap_engine = stats.send_s

    def __getattr__(self, name: str) -> Any:
        # Anything outside the Engine contract (e.g. the round-limit
        # stretch a conditioned engine advertises) comes from the kernel.
        return getattr(self._inner, name)

    def vertices(self) -> Any:
        return self._inner.vertices()

    def node(self, vertex: Any) -> Any:
        return self._inner.node(vertex)

    def edge_weight(self, u: Any, v: Any) -> float:
        return self._inner.edge_weight(u, v)

    def remaining_capacity(self, sender: Any, receiver: Any) -> int:
        return self._inner.remaining_capacity(sender, receiver)

    def pending_count(self) -> int:
        return self._inner.pending_count()

    def send(
        self, sender: Any, receiver: Any, kind: str, payload: Any = (), words: int = 1
    ) -> None:
        stats = self._stats
        start = perf_counter()
        self._inner.send(sender, receiver, kind, payload, words)
        stats.send_s += perf_counter() - start
        stats.send_calls += 1
        stats.last_kind = kind

    def send_to_neighbors(
        self, sender: Any, kind: str, payload: Any = (), words: int = 1, exclude: Any = None
    ) -> int:
        stats = self._stats
        start = perf_counter()
        count = self._inner.send_to_neighbors(sender, kind, payload, words, exclude)
        stats.send_s += perf_counter() - start
        stats.send_to_neighbors_calls += 1
        stats.last_kind = kind
        return count

    def _close_gap(self, now: float) -> None:
        stats = self._stats
        if stats.last_kind:
            self._protocol = stats.last_kind.split(":", 1)[0]
        host = (now - self._gap_start) - (stats.send_s - self._gap_engine)
        stats.host_s[self._protocol] += host

    def _open_gap(self, now: float) -> None:
        self._gap_start = now
        self._gap_engine = self._stats.send_s
        self._stats.last_kind = ""

    def deliver_round(self) -> Dict[Any, List[Any]]:
        stats = self._stats
        start = perf_counter()
        self._close_gap(start)
        inboxes = self._inner.deliver_round()
        end = perf_counter()
        stats.deliver_s += end - start
        stats.deliver_calls += 1
        stats.receivers += len(inboxes)
        for inbox in inboxes.values():
            self._protocol = inbox[0].kind.split(":", 1)[0]
            break
        self._open_gap(end)
        return inboxes

    def idle_rounds(self, count: int) -> None:
        start = perf_counter()
        self._close_gap(start)
        self._inner.idle_rounds(count)
        end = perf_counter()
        self._stats.deliver_s += end - start
        self._open_gap(end)


class CellObserver:
    """``RunObserver`` opening one ``campaign.cell`` span per cell."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def on_run_start(self, spec: object) -> None:
        self._tracer.begin("campaign.cell")

    def on_result(self, spec: object, result: object, row: object) -> None:
        duration = self._tracer.end("campaign.cell")
        self._tracer.samples["campaign.cell"].append(duration)


def time_store_methods(tracer: Tracer, store: object, layer: str) -> None:
    """Replace ``store``'s write/lookup methods with timed ones, in place."""
    for method in ("record_run", "flush", "has_run"):
        setattr(store, method, tracer.wrap(f"{layer}.{method}", getattr(store, method)))


class Trace:
    """Everything one traced phase records."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.engines = EngineStats()
        #: Per-stage costs summed over the paper's algorithm's runs.
        self.stage_costs: Dict[str, Counter] = defaultdict(Counter)
        self._setup: Dict[str, Dict[str, float]] = {}

    def _tables(self) -> Dict[str, Dict[str, float]]:
        """Every recorded figure, as kind -> name -> value."""
        engines = self.engines
        return {
            "total": dict(self.tracer.total),
            "self": dict(self.tracer.self_time),
            "calls": dict(self.tracer.calls),
            "stage": {
                f"{stage}.{counter}": value
                for stage, costs in self.stage_costs.items()
                for counter, value in costs.items()
            },
            "engine": {
                field.name: getattr(engines, field.name)
                for field in dataclasses.fields(engines)
                if isinstance(getattr(engines, field.name), (int, float))
            },
            "messages": dict(engines.messages),
            "host": dict(engines.host_s),
        }

    def mark_setup_done(self) -> None:
        """Remember the figures recorded so far as the set-up pass's share."""
        self._setup = self._tables()

    def value(self, kind: str, name: str, setup: bool = False) -> float:
        """Figure ``name`` of ``kind``, in total or as of :meth:`mark_setup_done`."""
        tables = self._setup if setup else self._tables()
        return float(tables.get(kind, {}).get(name, 0.0))

    def fold_run(self, algorithm: str, engines: List[TimedEngine], result: Any) -> None:
        for engine_obj in engines:
            for kind, count in engine_obj.metrics.messages_by_kind.items():
                self.engines.messages[kind.split(":", 1)[0]] += count
        if algorithm == "elkin":
            for stage, cost in result.details.get("stage_costs", {}).items():
                self.stage_costs[stage]["rounds"] += cost["rounds"]
                self.stage_costs[stage]["messages"] += cost["messages"]


@contextlib.contextmanager
def instrument(trace: Trace) -> Iterator[Trace]:
    """Install every probe for the duration of the block, then remove them."""
    tracer = trace.tracer
    created: List[TimedEngine] = []

    def wrap_engine(engine_obj: Engine, graph: object, bandwidth: int, name: str) -> Engine:
        timed = TimedEngine(engine_obj, trace.engines)
        created.append(timed)
        return timed

    def timed_runner(name: str, runner: Callable[..., Any]) -> Callable[..., Any]:
        def run(graph: Any, config: Optional[Any] = None) -> Any:
            del created[:]
            with tracer.span(f"algorithms.{name}"):
                result = runner(graph, config)
            trace.fold_run(name, created, result)
            del created[:]
            return result

        return run

    class TimedOracle(mst_checks.MSTOracle):
        def __init__(self, graph: Any) -> None:
            with tracer.span("verify.oracle_build"):
                super().__init__(graph)

        def verify(self, result: Any) -> None:
            with tracer.span("verify.check"):
                super().verify(result)

    originals = algorithm_registry()
    saved = {
        "build": generators.GraphSpec.build,
        "hop_properties": properties.hop_diameter,
        "hop_executor": campaign_executor.hop_diameter,
        "oracle": mst_checks.MSTOracle,
    }
    timed_hop = tracer.wrap("graphs.properties.hop_diameter", properties.hop_diameter)
    try:
        for name, info in originals.items():
            register_algorithm(dataclasses.replace(info, runner=timed_runner(name, info.runner)))
        generators.GraphSpec.build = tracer.wrap("graphs.build", saved["build"])
        properties.hop_diameter = timed_hop
        campaign_executor.hop_diameter = timed_hop
        mst_checks.MSTOracle = TimedOracle
        with engine_wrapper(wrap_engine):
            yield trace
    finally:
        for info in originals.values():
            register_algorithm(info)
        generators.GraphSpec.build = saved["build"]
        properties.hop_diameter = saved["hop_properties"]
        campaign_executor.hop_diameter = saved["hop_executor"]
        mst_checks.MSTOracle = saved["oracle"]
        tracer.reset_stack()


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile, ``share`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_values(trace: Trace, iterations: int) -> Dict[str, float]:
    """Per-layer values: one traced set-up pass plus the mean traced iteration."""
    tracer = trace.tracer
    per = 1.0 / iterations

    def mean(kind: str, name: str) -> float:
        # The set-up pass ran once and the traced iteration ``iterations``
        # times, so only the iterations' part of a total is averaged.
        before = trace.value(kind, name, setup=True)
        return before + (trace.value(kind, name) - before) * per

    values: Dict[str, float] = {}
    values["graphs.build_s"] = mean("total", "graphs.build")
    values["graphs.build_calls"] = mean("calls", "graphs.build")
    values["graphs.properties.hop_diameter_s"] = mean("total", "graphs.properties.hop_diameter")
    for name in catalog.DISTRIBUTED + catalog.SEQUENTIAL:
        values[f"algorithms.{name}.run_s"] = mean("total", f"algorithms.{name}")
        values[f"algorithms.{name}.calls"] = mean("calls", f"algorithms.{name}")
    for stage in catalog.STAGES:
        for counter in ("rounds", "messages"):
            values[f"core.stage.{stage}.{counter}"] = mean("stage", f"{stage}.{counter}")
    values["simulator.engine.send_s"] = mean("engine", "send_s")
    values["simulator.engine.send_calls"] = mean("engine", "send_calls")
    values["simulator.engine.send_to_neighbors_calls"] = mean("engine", "send_to_neighbors_calls")
    values["simulator.engine.deliver_s"] = mean("engine", "deliver_s")
    values["simulator.engine.deliver_calls"] = mean("engine", "deliver_calls")
    deliveries = mean("engine", "deliver_calls")
    values["simulator.engine.receivers_per_round"] = (
        mean("engine", "receivers") / deliveries if deliveries else 0.0
    )
    distributed = sum(mean("total", f"algorithms.{name}") for name in catalog.DISTRIBUTED)
    engine_time = values["simulator.engine.send_s"] + values["simulator.engine.deliver_s"]
    values["simulator.protocol.self_s"] = max(0.0, distributed - engine_time)
    for prefix in catalog.PRIMITIVES:
        values[f"simulator.primitives.{prefix}.messages"] = mean("messages", prefix)
        values[f"simulator.primitives.{prefix}.s"] = mean("host", prefix)
    values["verify.oracle_build_s"] = mean("total", "verify.oracle_build")
    values["verify.check_s"] = mean("total", "verify.check")
    oracles = mean("calls", "verify.oracle_build")
    values["verify.checks_per_oracle"] = mean("calls", "verify.check") / oracles if oracles else 0.0
    values["campaign.executor.self_s"] = mean("self", "campaign.executor")
    cells = [1000.0 * sample for sample in tracer.samples["campaign.cell"]]
    values["campaign.cell_ms_p50"] = statistics.median(cells) if cells else 0.0
    values["campaign.cell_ms_p99"] = percentile(cells, 0.99) if cells else 0.0
    for layer in ("campaign.store", "campaign.columnar"):
        for method in ("record_run", "flush", "open", "has_run"):
            values[f"{layer}.{method}_s"] = mean("total", f"{layer}.{method}")
    for backend in ("jsonl", "columnar"):
        for phase in ("append", "reopen", "report"):
            values[f"store.{backend}.{phase}_s"] = mean("total", f"store.{backend}.{phase}")
    values["analysis.report.analyze_s"] = mean("total", "analysis.report.analyze")
    values["analysis.report.render_s"] = mean("total", "analysis.report.render")
    return values
