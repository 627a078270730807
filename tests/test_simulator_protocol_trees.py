"""Tests for the protocol driver and the RootedForest structure."""

from __future__ import annotations

import sys

import pytest

import repro.simulator.protocol as protocol_module
from repro.algorithms import run_algorithm
from repro.config import RunConfig
from repro.exceptions import ConvergenceError, ProtocolError
from repro.graphs import cycle_graph, grid_graph, path_graph, random_connected_graph
from repro.simulator.engine import create_engine
from repro.simulator.network import SyncNetwork
from repro.simulator.primitives.trees import RootedForest
from repro.simulator.protocol import NodeProtocol, run_protocol, run_protocols_sequentially


class _RelayProtocol(NodeProtocol):
    """Vertex 0 sends a token along a path; every vertex finishes on receipt."""

    name = "relay"

    def __init__(self, network):
        super().__init__(network.vertices())
        self.received_at = {}

    def on_start(self, vertex, node, api):
        if vertex == 0:
            api.send(0, 1, "token", payload=(0,))
            self.received_at[0] = 0
            api.finish(0)

    def on_round(self, vertex, node, api, inbox):
        for message in inbox:
            self.received_at[vertex] = message.payload[0] + 1
            successor = vertex + 1
            if successor in node.edge_weights:
                api.send(vertex, successor, "token", payload=(self.received_at[vertex],))
        if vertex in self.received_at:
            api.finish(vertex)

    def result(self, network):
        return dict(self.received_at)


class _NeverFinishesProtocol(NodeProtocol):
    name = "stuck"

    def on_start(self, vertex, node, api):
        pass

    def on_round(self, vertex, node, api, inbox):
        pass

    def result(self, network):
        return None


class _StreamProtocol(NodeProtocol):
    """Leaf 1 of a 2-path streams ``count`` one-word items to root 0, then ``done``.

    At ``b = 1`` the leaf has one item per round to send and nothing to
    read, so it keeps itself scheduled with ``api.wake``.
    """

    name = "stream"

    def __init__(self, count, wake=True):
        super().__init__([0, 1])
        self._left = count
        self._wake = wake
        self.received = []

    def _send(self, vertex, api):
        if self._left:
            api.send(vertex, 0, "item", payload=(self._left,))
            self._left -= 1
            if self._wake:
                api.wake(vertex)
        else:
            api.send(vertex, 0, "done")
            api.finish(vertex)

    def on_start(self, vertex, node, api):
        if vertex == 1:
            self._send(vertex, api)

    def on_round(self, vertex, node, api, inbox):
        if vertex == 1:
            self._send(vertex, api)
            return
        for message in inbox:
            if message.kind.endswith(":done"):
                api.finish(vertex)
            else:
                self.received.append(message.payload[0])

    def result(self, network):
        return list(self.received)


class _CountingRelayProtocol(_RelayProtocol):
    """The path relay, recording the inbox size of every ``on_round`` call."""

    def __init__(self, network):
        super().__init__(network)
        self.calls = []

    def on_round(self, vertex, node, api, inbox):
        self.calls.append((vertex, len(inbox)))
        super().on_round(vertex, node, api, inbox)


class _StrayMessageProtocol(NodeProtocol):
    """Participants 0 and 1 of a 3-path; vertex 1 messages (or wakes) vertex 2."""

    name = "stray"

    def __init__(self, wake=False):
        super().__init__([0, 1])
        self._wake = wake

    def on_start(self, vertex, node, api):
        if vertex == 1 and self._wake:
            api.wake(2)
            return  # stay unfinished, so round 1 runs
        if vertex == 1:
            api.send(vertex, 2, "hello")
        api.finish(vertex)

    def on_round(self, vertex, node, api, inbox):
        pass

    def result(self, network):
        return None


class TestEventDrivenDriver:
    def test_self_woken_stream_finishes_in_count_plus_one_rounds(self):
        network = SyncNetwork(path_graph(2, seed=0), bandwidth=1)
        assert run_protocol(network, _StreamProtocol(5)) == [5, 4, 3, 2, 1]
        # Items leave in on_start and rounds 1-4, done in round 5, read in 6.
        assert network.round == 6
        assert network.metrics.messages == 6

    def test_stream_without_wake_is_never_polled_and_stalls(self):
        network = SyncNetwork(path_graph(2, seed=0), bandwidth=1)
        with pytest.raises(ConvergenceError):
            run_protocol(network, _StreamProtocol(5, wake=False), max_rounds=20)

    def test_quiet_vertices_never_see_on_round(self):
        network = SyncNetwork(path_graph(6, seed=0))
        protocol = _CountingRelayProtocol(network)
        run_protocol(network, protocol)
        # One call per vertex, in the round its token arrives; a polling
        # driver would have called vertex 5 once per round from round 1.
        assert protocol.calls == [(vertex, 1) for vertex in range(1, 6)]

    def test_message_to_non_participant_raises(self):
        network = SyncNetwork(path_graph(3, seed=0))
        with pytest.raises(ProtocolError, match="'stray' sent a message to vertex 2"):
            run_protocol(network, _StrayMessageProtocol())

    def test_wake_of_non_participant_raises(self):
        network = SyncNetwork(path_graph(3, seed=0))
        with pytest.raises(ProtocolError, match="'stray' woke vertex 2"):
            run_protocol(network, _StrayMessageProtocol(wake=True))

    @pytest.mark.parametrize(
        "wake, action", [(False, "sent a message to"), (True, "woke")]
    )
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_non_participant_raises_on_every_engine(self, engine, wake, action):
        network = create_engine(path_graph(3, seed=0), engine=engine)
        with pytest.raises(ProtocolError, match=f"'stray' {action} vertex 2"):
            run_protocol(network, _StrayMessageProtocol(wake=wake))


class TestProtocolDriver:
    def test_relay_reaches_every_vertex_and_counts_rounds(self):
        network = SyncNetwork(path_graph(6, seed=0))
        protocol = _RelayProtocol(network)
        hops = run_protocol(network, protocol)
        assert hops == {vertex: vertex for vertex in range(6)}
        # One round per hop along the path.
        assert network.round == 5
        assert network.metrics.messages == 5

    def test_scratch_space_is_cleared_after_the_run(self):
        network = SyncNetwork(path_graph(4, seed=0))
        run_protocol(network, _RelayProtocol(network))
        assert all(not network.node(v).memory for v in network.vertices())

    def test_non_terminating_protocol_raises_convergence_error(self):
        network = SyncNetwork(path_graph(3, seed=0))
        with pytest.raises(ConvergenceError):
            run_protocol(network, _NeverFinishesProtocol(network.vertices()), max_rounds=10)

    def test_protocol_requires_participants(self):
        with pytest.raises(ProtocolError):
            _NeverFinishesProtocol([])

    def test_sequential_composition_accumulates_costs(self):
        network = SyncNetwork(path_graph(5, seed=0))
        run_protocols_sequentially(network, [_RelayProtocol(network), _RelayProtocol(network)])
        assert network.round == 8
        assert network.metrics.messages == 8


class TestRootedForest:
    def test_basic_structure(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 0, 3: 1, 4: None, 5: 4})
        assert forest.roots == (0, 4)
        assert forest.children[0] == (1, 2)
        assert forest.depth[3] == 2
        assert forest.height == 2
        assert forest.size == 6
        assert forest.is_root(4) and not forest.is_root(5)
        assert forest.is_leaf(3) and not forest.is_leaf(0)

    def test_root_of_and_path_to_root(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 1, 3: 2})
        assert forest.root_of(3) == 0
        assert forest.path_to_root(3) == [3, 2, 1, 0]

    def test_tree_vertices_in_bfs_order(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 0, 3: 1})
        assert forest.tree_vertices(0) == [0, 1, 2, 3]
        with pytest.raises(ProtocolError):
            forest.tree_vertices(1)

    def test_orders(self):
        forest = RootedForest(parent={0: None, 1: 0, 2: 1})
        assert forest.level_order == (0, 1, 2)
        assert forest.subtree_height == {0: 2, 1: 1, 2: 0}
        assert forest.fold_order == (2, 1)
        # Two trees: levels are sorted across trees; folds go by subtree
        # height, then parent, then vertex.
        forest = RootedForest(parent={5: None, 4: 5, 1: 5, 3: 4, 0: None})
        assert forest.level_order == (0, 5, 1, 4, 3)
        assert list(forest.depth) == [0, 5, 1, 4, 3]
        assert forest.subtree_height == {0: 0, 5: 2, 1: 0, 4: 1, 3: 0}
        assert forest.fold_order == (3, 1, 4)

    def test_edges_are_child_parent_pairs(self):
        forest = RootedForest(parent={0: None, 1: 0})
        assert forest.edges() == [(1, 0)]

    def test_rejects_cycles(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: 1, 1: 0})

    def test_rejects_self_parent(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: 0})

    def test_rejects_unknown_parent(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={0: None, 1: 7})

    def test_rejects_empty_forest(self):
        with pytest.raises(ProtocolError):
            RootedForest(parent={})

    def test_single_tree_helper(self):
        with pytest.raises(ProtocolError):
            RootedForest.single_tree({0: None, 1: None})
        tree = RootedForest.single_tree({0: None, 1: 0})
        assert tree.roots == (0,)

    def test_from_parent_pairs(self):
        forest = RootedForest.from_parent_pairs([(0, None), (1, 0)])
        assert forest.size == 2


# ---------------------------------------------------------------------- #
# audit against the polling driver
# ---------------------------------------------------------------------- #


class _AuditedEngine:
    """Forwards to ``inner``; before each delivery, the audit polls the round's skips."""

    def __init__(self, inner, audit):
        self._inner = inner
        self._audit = audit

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def deliver_round(self):
        self._audit.poll_skipped()
        return self._inner.deliver_round()


class _PollingAudit:
    """Replays, after every round, the calls only a polling driver would make.

    The polling driver ran ``on_round`` at every unfinished participant
    every round.  After each round of the event-driven driver, every
    unfinished participant it did not visit is called with ``[]``; the
    call must leave the in-flight message count, the finished set and the
    woken set unchanged.  Every ``api.wake`` must also name the vertex
    whose callback is running.
    """

    def __init__(self, network, protocol):
        self.network = network
        self.protocol = protocol
        self.api = None
        self.current = None
        self.visited = None  # None until round 1: on_start visits everyone
        self.polls = 0
        self._on_start = protocol.on_start
        self._on_round = protocol.on_round
        self._result = protocol.result
        protocol.on_start = self.on_start
        protocol.on_round = self.on_round
        protocol.result = self.result

    def _enter(self, vertex, api):
        if self.api is None:
            self.api = api
            wake = api.wake

            def checked_wake(target):
                assert target == self.current, (
                    f"{self.protocol.name}: vertex {self.current} woke vertex {target}"
                )
                wake(target)

            api.wake = checked_wake
        self.current = vertex

    def on_start(self, vertex, node, api):
        self._enter(vertex, api)
        self._on_start(vertex, node, api)

    def on_round(self, vertex, node, api, inbox):
        self._enter(vertex, api)
        self.visited.add(vertex)
        self._on_round(vertex, node, api, inbox)

    def _observable(self):
        api = self.api
        return self.network.pending_count(), set(api._finished), set(api._woken)

    def poll_skipped(self):
        if self.visited is not None:
            api = self.api
            for vertex in self.protocol.participants:
                if vertex in self.visited or vertex in api._finished:
                    continue
                before = self._observable()
                self.current = vertex
                self._on_round(vertex, self.network.node(vertex), api, [])
                assert self._observable() == before, (
                    f"{self.protocol.name}: skipped vertex {vertex} acted on an empty inbox"
                )
                self.polls += 1
        self.visited = set()

    def result(self, network):
        self.poll_skipped()
        return self._result(network)


@pytest.fixture
def polling_audit(monkeypatch):
    """Route every ``run_protocol`` call through :class:`_PollingAudit`."""
    event_driven = protocol_module.run_protocol
    audits = []

    def audited(network, protocol, max_rounds=None):
        audit = _PollingAudit(network, protocol)
        audits.append(audit)
        return event_driven(_AuditedEngine(network, audit), protocol, max_rounds)

    patched = [
        name
        for name, module in sorted(sys.modules.items())
        if vars(module).get("run_protocol") is event_driven
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "run_protocol", audited)
    assert "repro.simulator.primitives.pipeline" in patched
    assert "repro.baselines.pipeline_mst" in patched
    return audits


_AUDIT_GRAPHS = {
    "cycle": lambda: cycle_graph(40, seed=1),
    "grid": lambda: grid_graph(6, 6, seed=2),
    "random_connected": lambda: random_connected_graph(40, seed=3),
}


#: The presets under which every message is eventually delivered, so every
#: algorithm terminates; the crash presets end in NonTerminationError.
_EVENTUAL_DELIVERY_CONDITIONS = ["delayed", "flaky", "heavy-delay", "jittery", "lossy"]


@pytest.mark.usefixtures("message_path_waves")
class TestPollingAudit:
    """The polling audit over every protocol, tree waves included.

    Closed-form waves run no protocol, so the message path is forced:
    otherwise ``ghs`` (nothing but waves) would leave nothing to poll.
    """

    @pytest.mark.parametrize("bandwidth", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_AUDIT_GRAPHS))
    @pytest.mark.parametrize("algorithm", ["elkin", "ghs", "gkp", "prs"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_skipped_vertices_would_do_nothing(
        self, polling_audit, engine, algorithm, family, bandwidth
    ):
        config = RunConfig(bandwidth=bandwidth, engine=engine)
        result = run_algorithm(_AUDIT_GRAPHS[family](), algorithm, config)
        assert result.edges
        assert polling_audit
        assert sum(audit.polls for audit in polling_audit) > 0

    @pytest.mark.parametrize("condition", _EVENTUAL_DELIVERY_CONDITIONS)
    @pytest.mark.parametrize("algorithm", ["elkin", "ghs", "gkp", "prs"])
    def test_skipped_vertices_would_do_nothing_under_condition(
        self, polling_audit, algorithm, condition
    ):
        config = RunConfig(bandwidth=2, condition=condition, seed=4)
        result = run_algorithm(_AUDIT_GRAPHS["grid"](), algorithm, config)
        assert result.edges
        assert sum(audit.polls for audit in polling_audit) > 0
