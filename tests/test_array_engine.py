"""Broadcast, staging and bandwidth-reset contract tests.

These cases were first written against the numpy structure-of-arrays
kernel (``engine="array"``), which has since been retired.  What they
check is part of the :class:`~repro.simulator.engine.Engine` contract
that the remaining kernels still honour -- the neighbourhood broadcast's
partial-commit error semantics, the interleaving of point sends and
broadcasts, generation-stamped bandwidth resets, bulk metric charging,
byte-identical batched campaign rows, and the batch runner building
every engine through the registry -- so they now run against the
``fast`` and ``reference`` kernels.  Class and test names are kept from
the original file; the array-only internals (CSR layout cache, message
columns, lazy inboxes, arena lanes) went with that kernel.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign, execute_campaign, run_spec, RunStore
from repro.campaign.spec import graph_spec_for
from repro.exceptions import BandwidthExceededError, ConfigurationError, SimulationError
from repro.graphs import path_graph, random_connected_graph, star_graph
from repro.simulator.engine import _REGISTRY, available_engines, create_engine, register_engine
from repro.simulator.fast_network import FastNetwork


def _inbox_signature(inboxes):
    """Engine-independent projection of one round's deliveries."""
    return [
        (
            receiver,
            [
                (m.sender, m.receiver, m.kind, tuple(m.payload), m.words, m.sent_in_round)
                for m in inboxes[receiver]
            ],
        )
        for receiver in inboxes
    ]


def _hub(graph):
    """The maximum-degree vertex (the centre of a star)."""
    return max(graph.nodes(), key=lambda v: (graph.degree(v), -v))


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #


class TestRegistryGating:
    def test_unknown_engine_error_is_distinct_from_unavailable(self, small_random_graph):
        # There is no separate "unavailable" path any more: the retired
        # ``array`` name is rejected exactly like any other unknown name.
        assert "array" not in available_engines()
        for name in ("warp", "array"):
            with pytest.raises(ConfigurationError, match="unknown engine"):
                create_engine(small_random_graph, engine=name)


# ---------------------------------------------------------------------- #
# kernel internals
# ---------------------------------------------------------------------- #


class TestKernelInternals:
    def test_pure_point_send_round_never_materializes_columns(self):
        network = FastNetwork(path_graph(4, seed=0), bandwidth=4)
        network.send(0, 1, "ping", payload=("a",))
        network.send(2, 1, "ping", payload=("b",))
        network.send(3, 2, "pong")
        assert network.pending_count() == 3
        inboxes = network.deliver_round()
        assert [m.payload for m in inboxes[1]] == [("a",), ("b",)]
        assert list(inboxes) == [1, 2]  # first-message receiver order
        assert network.metrics.words == 3
        assert network.pending_count() == 0

    def test_broadcast_flushes_staged_point_sends_in_order(self):
        graph = star_graph(8, seed=1)
        network = FastNetwork(graph, bandwidth=2)
        network.send(1, 0, "early")
        network.send_to_neighbors(0, "blast")
        network.send(2, 0, "late")
        inboxes = network.deliver_round()
        kinds = [m.kind for m in inboxes[0]]
        assert kinds == ["early", "late"]
        assert all(m.kind == "blast" for v, inbox in inboxes.items() if v != 0 for m in inbox)
        assert network.metrics.messages == 2 + network.node(0).degree()

    def test_idle_rounds_reject_staged_point_sends(self):
        network = FastNetwork(path_graph(3, seed=0))
        network.send(0, 1, "pending")
        with pytest.raises(SimulationError, match="pending"):
            network.idle_rounds(1)

    def test_generation_stamping_resets_bandwidth_without_clearing(self):
        network = FastNetwork(path_graph(3, seed=0), bandwidth=2)
        network.send(0, 1, "a", words=2)
        assert network.remaining_capacity(0, 1) == 0
        network.deliver_round()
        # No counter was zeroed -- the generation base moved past it.
        assert network.remaining_capacity(0, 1) == 2
        network.idle_rounds(3)
        assert network.remaining_capacity(0, 1) == 2
        network.send(0, 1, "b", words=2)
        assert network.remaining_capacity(0, 1) == 0

    def test_small_rounds_deliver_eager_plain_dicts(self):
        network = FastNetwork(path_graph(4, seed=0))
        network.send(1, 2, "x")
        inboxes = network.deliver_round()
        assert type(inboxes) is dict

    def test_lazy_delivery_matches_fast_kernel_exactly(self):
        graph = random_connected_graph(40, extra_edges=80, seed=13)
        signatures = []
        for engine in ("reference", "fast"):
            network = create_engine(graph, bandwidth=2, engine=engine)
            for vertex in network.vertices():
                network.send_to_neighbors(vertex, "flood", payload=(vertex,))
            signatures.append(_inbox_signature(network.deliver_round()))
            assert network.metrics.messages == 2 * graph.number_of_edges()
        assert signatures[0] == signatures[1]

    def test_metrics_charged_as_reductions_match(self):
        graph = star_graph(40, seed=2)
        counts = {}
        for engine in ("reference", "fast"):
            network = create_engine(graph, bandwidth=4, engine=engine)
            hub = _hub(graph)
            network.send_to_neighbors(hub, "a", words=3)
            network.send_to_neighbors(hub, "b", words=1)
            network.deliver_round()
            counts[engine] = (
                network.metrics.messages,
                network.metrics.words,
                dict(network.metrics.messages_by_kind),
            )
        assert counts["reference"] == counts["fast"]


# ---------------------------------------------------------------------- #
# the neighbourhood broadcast
# ---------------------------------------------------------------------- #


class TestBroadcast:
    @pytest.mark.parametrize("exclude_origin", [False, True])
    def test_broadcast_equivalent_across_engines(self, exclude_origin):
        graph = random_connected_graph(30, extra_edges=45, seed=21)
        results = {}
        for engine in ("reference", "fast"):
            network = create_engine(graph, bandwidth=2, engine=engine)
            rounds = []
            for vertex in sorted(network.vertices()):
                exclude = None
                if exclude_origin:
                    exclude = min(network.node(vertex).neighbors)
                network.send_to_neighbors(
                    vertex, "gossip", payload=(vertex,), exclude=exclude
                )
            rounds.append(_inbox_signature(network.deliver_round()))
            results[engine] = (rounds, network.metrics.messages, network.metrics.words)
        assert results["reference"] == results["fast"]

    def test_exclude_leaves_that_edge_uncharged(self):
        graph = star_graph(12, seed=1)
        hub = _hub(graph)
        network = FastNetwork(graph, bandwidth=1)
        leaves = sorted(graph.neighbors(hub))
        skipped = leaves[3]
        count = network.send_to_neighbors(hub, "wave", exclude=skipped)
        assert count == len(leaves) - 1
        assert network.remaining_capacity(hub, skipped) == 1
        for leaf in leaves:
            if leaf != skipped:
                assert network.remaining_capacity(hub, leaf) == 0
        network.send(hub, skipped, "direct")  # still within bandwidth

    def test_partial_commit_and_error_identical_to_fast_kernel(self):
        graph = star_graph(10, seed=3)
        hub = _hub(graph)
        leaves = sorted(graph.neighbors(hub))
        blocked = leaves[4]
        outcomes = {}
        for engine in ("reference", "fast"):
            network = create_engine(graph, bandwidth=1, engine=engine)
            network.send(hub, blocked, "pre")
            with pytest.raises(BandwidthExceededError) as excinfo:
                network.send_to_neighbors(hub, "bcast")
            network_inboxes = network.deliver_round()
            outcomes[engine] = (
                str(excinfo.value),
                network.metrics.messages,
                _inbox_signature(network_inboxes),
            )
        # Same error text, and the same prefix (every neighbour sorted
        # before the saturated edge) was committed before the raise.
        assert outcomes["reference"] == outcomes["fast"]
        assert outcomes["fast"][1] == 1 + leaves.index(blocked)

    def test_oversized_broadcast_raises_without_committing(self):
        graph = star_graph(10, seed=3)
        hub = _hub(graph)
        network = FastNetwork(graph, bandwidth=2)
        with pytest.raises(BandwidthExceededError):
            network.send_to_neighbors(hub, "huge", words=3)
        assert network.pending_count() == 0
        assert network.remaining_capacity(hub, sorted(graph.neighbors(hub))[0]) == 2

    def test_broadcast_from_unknown_vertex_raises(self):
        network = FastNetwork(path_graph(4, seed=0))
        with pytest.raises(SimulationError, match="unknown vertex"):
            network.send_to_neighbors(10_000, "ghost")

    def test_zero_word_broadcast_rejected(self):
        graph = star_graph(10, seed=3)
        network = FastNetwork(graph, bandwidth=2)
        with pytest.raises(ValueError):
            network.send_to_neighbors(_hub(graph), "empty", words=0)
        assert network.pending_count() == 0


# ---------------------------------------------------------------------- #
# batched campaigns
# ---------------------------------------------------------------------- #


def _engine_grid() -> Campaign:
    graphs = [
        graph_spec_for("random_connected", 20),
        graph_spec_for("planted_fragments", 16),
    ]
    return Campaign.from_grid(
        "engine-eq",
        graphs,
        algorithms=("elkin", "ghs"),
        bandwidths=(1, 2),
        engines=("reference", "fast"),
        seeds=(0, 1),
    )


class TestBatchedArrayCampaign:
    def test_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _engine_grid()
        reference = [run_spec(spec) for spec in campaign.specs]
        batched_store = RunStore(tmp_path / "batched.jsonl")
        batched = execute_campaign(campaign, store=batched_store)
        assert batched.rows == [row for row, _ in reference]
        assert batched_store.run_keys() == campaign.run_keys()
        for spec, (row, result) in zip(campaign.specs, reference):
            key = spec.run_key()
            assert json.dumps(batched_store.get_row(key), sort_keys=True) == json.dumps(
                row, sort_keys=True
            )
            assert batched_store.get_result(key).to_json_dict() == result.to_json_dict()
            assert batched_store.get_spec(key) == spec

    def test_batched_stands_down_when_array_engine_is_replaced(self):
        # The retired name is free for a third-party kernel, and the batch
        # runner must construct it through the registry like any other.
        created = []

        class CountingArray(FastNetwork):
            __slots__ = ()

            def __init__(self, graph, bandwidth=1, validate=True):
                created.append(id(graph))
                super().__init__(graph, bandwidth=bandwidth, validate=validate)

        register_engine("array", CountingArray)
        try:
            campaign = Campaign.from_grid(
                "swapped-array",
                [graph_spec_for("random_connected", 16)],
                algorithms=("elkin",),
                engines=("array",),
                seeds=(0,),
            )
            report = execute_campaign(campaign)
            assert created, "replacement engine was never constructed"
            assert report.executed == 1
        finally:
            _REGISTRY.pop("array", None)
