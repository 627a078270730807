"""Closed-form tree waves against the message path they replace.

``forest_broadcast`` and ``forest_convergecast`` charge a wave through
``Engine.charge_tree_wave`` and compute its outputs in one pass over the
forest.  The message path (``run_protocol`` over the protocol objects)
stays the specification.  This module pins the two together:

* a differential audit runs every wave of ``elkin``/``gkp``/``ghs``/
  ``prs`` both ways and compares outputs (dict order included), the
  combiner's call sequence, and the cost and per-kind deltas;
* unit cases cover forests of singletons, multi-root forests whose fold
  order differs from sorted child order, and a wave started while a
  message is in flight (the kernel must decline);
* under an active network condition the waves still travel as
  messages, while a no-op condition takes the closed form.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter

import networkx as nx
import pytest

import repro.simulator.primitives.broadcast as broadcast_module
import repro.simulator.primitives.convergecast as convergecast_module
from repro.algorithms import run_algorithm
from repro.conditions import ConditionedEngine, NetworkCondition
from repro.config import RunConfig
from repro.exceptions import ProtocolError, SimulationError
from repro.graphs import cycle_graph, grid_graph, path_graph, random_connected_graph
from repro.simulator.engine import Engine
from repro.simulator.fast_network import FastNetwork
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.broadcast import forest_broadcast
from repro.simulator.primitives.convergecast import forest_convergecast
from repro.simulator.primitives.trees import RootedForest

KERNELS = {"reference": SyncNetwork, "fast": FastNetwork}


class _MessagePathSync(SyncNetwork):
    charge_tree_wave = Engine.charge_tree_wave


class _MessagePathFast(FastNetwork):
    charge_tree_wave = Engine.charge_tree_wave


#: The same kernel with closed-form waves declined.
MESSAGE_PATH_KERNEL = {SyncNetwork: _MessagePathSync, FastNetwork: _MessagePathFast}


def _message_path_twin(network):
    """A fresh, quiet copy of ``network``'s kernel that simulates every wave message."""
    kernel = MESSAGE_PATH_KERNEL[type(network)]
    return kernel(network.graph, bandwidth=network.bandwidth, validate=False)


def _traced(combiner, calls):
    def combine(accumulated, value):
        calls.append((accumulated, value))
        return combiner(accumulated, value)

    return combine


def _ordered(result):
    """A convergecast result with every dict flattened to its item order."""
    return (
        list(result.root_values.items()),
        list(result.per_vertex.items()),
        [(vertex, list(children.items())) for vertex, children in result.child_values.items()],
    )


def _run_both_ways(network, primitive, *args, combiner=None):
    """Run one wave on a message-path twin, then on ``network``.

    Returns ``(message_path, live)``; each is ``(output, combiner calls,
    cost delta, per-kind delta)``.
    """
    outcomes = []
    for engine in (_message_path_twin(network), network):
        before = engine.checkpoint()
        kinds_before = Counter(engine.metrics.messages_by_kind)
        calls = []
        extra = () if combiner is None else (_traced(combiner, calls),)
        output = primitive(engine, *args, *extra)
        kinds = Counter(engine.metrics.messages_by_kind)
        kinds.subtract(kinds_before)
        outcomes.append((output, calls, engine.cost_since(before), +kinds))
    return outcomes


def _assert_same_wave(message_path, live, ordered):
    (expected, expected_calls, expected_cost, expected_kinds) = message_path
    (got, calls, cost, kinds) = live
    assert ordered(got) == ordered(expected)
    assert calls == expected_calls
    assert cost == expected_cost
    assert kinds == expected_kinds


# ---------------------------------------------------------------------- #
# differential audit over whole algorithm runs
# ---------------------------------------------------------------------- #


@pytest.fixture
def wave_audit(monkeypatch):
    """Run every wave of the test both ways; returns the per-wave log.

    Each entry is ``(primitive name, closed form taken)``.
    """
    log = []
    accepted = []

    def counting(original):
        def charge_tree_wave(self, rounds, messages, kind):
            taken = original(self, rounds, messages, kind)
            accepted.append(taken)
            return taken

        return charge_tree_wave

    for kernel in KERNELS.values():
        monkeypatch.setattr(kernel, "charge_tree_wave", counting(kernel.charge_tree_wave))

    original_broadcast = broadcast_module.forest_broadcast
    original_convergecast = convergecast_module.forest_convergecast

    def audited_broadcast(network, forest, root_values):
        assert network.pending_count() == 0
        message_path, live = _run_both_ways(network, original_broadcast, forest, root_values)
        _assert_same_wave(message_path, live, lambda values: list(values.items()))
        log.append(("broadcast", accepted[-1]))
        return live[0]

    def audited_convergecast(network, forest, values, combiner):
        assert network.pending_count() == 0
        message_path, live = _run_both_ways(
            network, original_convergecast, forest, values, combiner=combiner
        )
        _assert_same_wave(message_path, live, _ordered)
        log.append(("convergecast", accepted[-1]))
        return live[0]

    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original_broadcast:
                monkeypatch.setattr(module, attribute, audited_broadcast)
            elif value is original_convergecast:
                monkeypatch.setattr(module, attribute, audited_convergecast)
    return log


_AUDIT_GRAPHS = {
    "cycle": lambda: cycle_graph(40, seed=1),
    "grid": lambda: grid_graph(6, 6, seed=2),
    "random_connected": lambda: random_connected_graph(40, seed=3),
}


class TestDifferentialAudit:
    @pytest.mark.parametrize("bandwidth", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_AUDIT_GRAPHS))
    @pytest.mark.parametrize("algorithm", ["elkin", "ghs", "gkp", "prs"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_every_wave_matches_the_message_path(
        self, wave_audit, engine, algorithm, family, bandwidth
    ):
        config = RunConfig(bandwidth=bandwidth, engine=engine)
        result = run_algorithm(_AUDIT_GRAPHS[family](), algorithm, config)
        assert result.edges
        # Vacuity guard: the run made waves, and every one took the
        # closed form (a real run never starts a wave mid-flight).
        assert {primitive for primitive, _ in wave_audit} == {"broadcast", "convergecast"}
        assert all(taken for _, taken in wave_audit)

    @pytest.mark.parametrize("algorithm", ["elkin", "ghs", "gkp", "prs"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_whole_run_matches_the_message_path(self, monkeypatch, engine, algorithm):
        graph = _AUDIT_GRAPHS["grid"]()
        config = RunConfig(bandwidth=2, engine=engine)
        closed_form = run_algorithm(graph, algorithm, config).to_json_dict()
        with monkeypatch.context() as patch:
            for kernel in KERNELS.values():
                patch.setattr(kernel, "charge_tree_wave", Engine.charge_tree_wave)
            message_path = run_algorithm(graph, algorithm, config).to_json_dict()
        assert closed_form == message_path


# ---------------------------------------------------------------------- #
# unit cases
# ---------------------------------------------------------------------- #


def _branching_graph():
    """Three trees (rooted at 0, 7, 10) plus edges joining them.

    Under 0, child 1 has the tallest subtree and child 2 the shortest, so
    the fold order at 0 (2, 3, 1) is not the sorted child order.
    """
    tree_edges = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (3, 6), (7, 8), (7, 9)]
    joins = [(5, 6), (2, 8), (9, 10)]
    graph = nx.Graph()
    for weight, (u, v) in enumerate(tree_edges + joins, start=1):
        graph.add_edge(u, v, weight=float(weight))
    parent = {0: None, 7: None, 10: None}
    parent.update({child: up for up, child in tree_edges})
    return graph, RootedForest(parent=parent)


@pytest.fixture(params=sorted(KERNELS))
def kernel(request):
    return KERNELS[request.param]


class TestWaveUnits:
    def test_singleton_forest_costs_nothing_either_way(self, kernel):
        network = kernel(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: None, 2: None})
        assert forest.height == 0
        message_path, live = _run_both_ways(network, forest_broadcast, forest, {0: 1, 1: 2, 2: 3})
        _assert_same_wave(message_path, live, lambda values: list(values.items()))
        assert live[0] == {0: 1, 1: 2, 2: 3}
        assert live[2].rounds == 0 and live[2].messages == 0
        message_path, live = _run_both_ways(
            network, forest_convergecast, forest, {2: 3, 0: 1, 1: 2}, combiner=operator.add
        )
        _assert_same_wave(message_path, live, _ordered)
        assert list(live[0].per_vertex) == [2, 0, 1]  # starts from dict(values)
        assert live[0].child_values == {0: {}, 1: {}, 2: {}}
        assert live[2].rounds == 0 and live[2].messages == 0

    def test_multi_root_forest_broadcasts_in_depth_order(self, kernel):
        graph, forest = _branching_graph()
        network = kernel(graph)
        message_path, live = _run_both_ways(
            network, forest_broadcast, forest, {0: "a", 7: "b", 10: "c"}
        )
        _assert_same_wave(message_path, live, lambda values: list(values.items()))
        assert list(live[0]) == [0, 7, 10, 1, 2, 3, 8, 9, 4, 6, 5]
        assert live[2].rounds == forest.height == 3
        assert live[2].messages == forest.size - len(forest.roots) == 8
        assert live[3] == Counter({"bcast:value": 8})

    def test_multi_root_forest_folds_children_by_subtree_height(self, kernel):
        graph, forest = _branching_graph()
        network = kernel(graph)
        # Tuple concatenation is associative but not commutative: the
        # aggregates spell out the fold order.
        values = {vertex: (vertex,) for vertex in sorted(forest.parent)}
        message_path, live = _run_both_ways(
            network, forest_convergecast, forest, values, combiner=operator.add
        )
        _assert_same_wave(message_path, live, _ordered)
        result = live[0]
        assert result.root_values == {0: (0, 2, 3, 6, 1, 4, 5), 7: (7, 8, 9), 10: (10,)}
        assert list(result.child_values[0]) == [2, 3, 1]
        assert live[2].rounds == 3 and live[2].messages == 8
        assert live[3] == Counter({"cvgc:aggregate": 8})

    def test_wave_with_a_message_in_flight_is_simulated(self, kernel):
        graph, forest = _branching_graph()
        network = kernel(graph)
        network.send(5, 6, "other:ping")
        before = network.checkpoint()
        assert network.charge_tree_wave(forest.height, 8, "bcast:value") is False
        assert network.cost_since(before).rounds == 0
        assert network.cost_since(before).messages == 0
        values = forest_broadcast(network, forest, {0: "a", 7: "b", 10: "c"})
        assert values[5] == "a" and values[9] == "b" and values[10] == "c"
        cost = network.cost_since(before)
        # Simulated: the ping rode along in the first round.
        assert (cost.rounds, cost.messages) == (3, 9)
        assert network.metrics.messages_by_kind["other:ping"] == 1


class TestForestValidationCache:
    def test_forest_checked_on_one_graph_still_raises_on_another(self, kernel):
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        forest_broadcast(kernel(path_graph(3, seed=1)), forest, {0: "x"})
        broken = nx.Graph()
        broken.add_edge(0, 1, weight=1.0)
        broken.add_edge(0, 2, weight=2.0)
        with pytest.raises(ProtocolError, match=r"tree edge \(2, 1\) is not a graph edge"):
            forest_broadcast(kernel(broken), forest, {0: "x"})
        with pytest.raises(ProtocolError, match="forest_convergecast: tree edge"):
            forest_convergecast(kernel(broken), forest, {0: 1, 1: 1, 2: 1}, operator.add)

    def test_vertex_outside_the_graph_raises(self, kernel):
        network = kernel(path_graph(3, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 5: None})
        with pytest.raises(SimulationError, match="unknown vertex 5"):
            forest_broadcast(network, forest, {0: "x", 5: "y"})

    def test_one_check_per_graph(self, kernel, monkeypatch):
        network = kernel(path_graph(6, seed=1))
        forest = RootedForest(parent={0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        checks = []
        has_edge = Engine.has_edge
        monkeypatch.setattr(
            Engine, "has_edge", lambda self, u, v: checks.append((u, v)) or has_edge(self, u, v)
        )
        for _ in range(3):
            forest_broadcast(network, forest, {0: "x"})
            forest_convergecast(network, forest, dict.fromkeys(range(6), 1), operator.add)
        assert len(checks) == 5


# ---------------------------------------------------------------------- #
# network conditions
# ---------------------------------------------------------------------- #


class TestWavesUnderConditions:
    def test_active_condition_keeps_waves_per_message(self, monkeypatch):
        delivered = Counter()
        deliver_round = ConditionedEngine.deliver_round

        def observed(self):
            inboxes = deliver_round(self)
            for inbox in inboxes.values():
                delivered.update(message.kind for message in inbox)
            return inboxes

        monkeypatch.setattr(ConditionedEngine, "deliver_round", observed)
        config = RunConfig(bandwidth=2, condition="lossy", seed=4)
        result = run_algorithm(_AUDIT_GRAPHS["grid"](), "elkin", config)
        assert result.edges
        assert delivered["bcast:value"] > 0
        assert delivered["cvgc:aggregate"] > 0
        telemetry = result.details["condition"]
        assert telemetry["delivered"] == sum(delivered.values())
        # Every charged message passed through the proxy: none was
        # charged in bulk behind the condition's back.
        passed = telemetry["delivered"] + telemetry["dropped"] + telemetry["retransmits"]
        assert passed == result.cost.messages

    @pytest.mark.parametrize("algorithm", ["elkin", "ghs"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_noop_condition_takes_the_closed_form(self, monkeypatch, engine, algorithm):
        graph = _AUDIT_GRAPHS["grid"]()
        bare = run_algorithm(graph, algorithm, RunConfig(engine=engine)).to_json_dict()
        accepted = []
        kernel = KERNELS[engine]
        charge = kernel.charge_tree_wave
        monkeypatch.setattr(
            kernel,
            "charge_tree_wave",
            lambda self, *args: accepted.append(charge(self, *args)) or accepted[-1],
        )
        config = RunConfig(engine=engine, condition=NetworkCondition(seed=0))
        noop = run_algorithm(graph, algorithm, config).to_json_dict()
        assert accepted and all(accepted)
        assert noop["details"].pop("condition")["condition"] == NetworkCondition(seed=0).label()
        assert noop == bare
