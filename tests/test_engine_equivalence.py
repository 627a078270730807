"""Cross-engine equivalence: the optimized kernels change wall-clock only.

Every algorithm in the library is run on the same instance once per
engine -- the reference kernel (``engine="reference"``) against each
optimized comparand (``engine="fast"``) -- and the executions must
agree exactly: identical
MST edge sets, identical round counts, identical message and word
counts, and (where the network is in hand) identical per-kind message
histograms.  This is the contract that makes the optimized kernels safe
to use for the paper's complexity reproductions.
"""

from __future__ import annotations

import pytest

from repro.baselines.ghs import ghs_style_mst
from repro.baselines.gkp import gkp_mst
from repro.baselines.pipeline_mst import pipeline_mst_upcast
from repro.config import RunConfig
from repro.core.controlled_ghs import build_base_forest
from repro.core.elkin_mst import compute_mst
from repro.graphs import (
    complete_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.simulator.engine import create_engine
from repro.simulator.primitives.bfs import build_bfs_tree
from repro.simulator.primitives.neighbor_exchange import neighbor_exchange
from repro.types import normalize_edge

#: The optimized kernels compared against the reference execution.
OTHER_ENGINES = ["fast"]

#: Graph families the equivalence matrix covers (label -> builder).
GRAPH_FAMILIES = {
    "random": lambda: random_connected_graph(40, extra_edges=60, seed=11),
    "grid": lambda: grid_graph(6, 6, seed=9),
    "path": lambda: path_graph(30, seed=3),
    "star": lambda: star_graph(25, seed=4),
    "complete": lambda: complete_graph(12, seed=6),
}

FAMILIES = sorted(GRAPH_FAMILIES)


def _mst_signature(result):
    """Everything a run reports that must not depend on the engine."""
    return (
        frozenset(result.edges),
        result.total_weight,
        result.cost.rounds,
        result.cost.messages,
        result.cost.words,
    )


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_elkin_identical_across_engines(family, other):
    graph = GRAPH_FAMILIES[family]()
    reference = compute_mst(graph, RunConfig(engine="reference"))
    fast = compute_mst(graph, RunConfig(engine=other))
    assert _mst_signature(reference) == _mst_signature(fast)
    assert reference.details["k"] == fast.details["k"]
    assert reference.details["boruvka_phase_count"] == fast.details["boruvka_phase_count"]


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_ghs_identical_across_engines(family, other):
    graph = GRAPH_FAMILIES[family]()
    reference = ghs_style_mst(graph, RunConfig(engine="reference"))
    fast = ghs_style_mst(graph, RunConfig(engine=other))
    assert _mst_signature(reference) == _mst_signature(fast)


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_gkp_identical_across_engines(family, other):
    graph = GRAPH_FAMILIES[family]()
    reference = gkp_mst(graph, RunConfig(engine="reference"))
    fast = gkp_mst(graph, RunConfig(engine=other))
    assert _mst_signature(reference) == _mst_signature(fast)


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [2, 4, 8])
def test_controlled_ghs_identical_across_engines(family, k, other):
    graph = GRAPH_FAMILIES[family]()

    def run(engine):
        network = create_engine(graph, validate=False, engine=engine)
        result = build_base_forest(network, k)
        return (
            frozenset(result.forest.tree_edges()),
            result.forest.count,
            network.total_cost(),
            dict(network.metrics.messages_by_kind),
        )

    assert run("reference") == run(other)


def _run_pipeline(graph, engine):
    """The Pipeline-MST filtered upcast over singleton fragments."""
    network = create_engine(graph, validate=False, engine=engine)
    bfs = build_bfs_tree(network)
    fragment_of = {vertex: vertex for vertex in network.vertices()}
    neighbor_fragments = neighbor_exchange(network, fragment_of)
    items = {}
    for vertex in network.vertices():
        own = fragment_of[vertex]
        node = network.node(vertex)
        best = {}
        for neighbor in node.neighbors:
            other = neighbor_fragments[vertex].get(neighbor, own)
            if other == own:
                continue
            candidate = (
                node.edge_weights[neighbor],
                *normalize_edge(vertex, neighbor),
                own,
                other,
            )
            current = best.get(other)
            if current is None or candidate < current:
                best[other] = candidate
        if best:
            items[vertex] = sorted(best.values())
    collected = pipeline_mst_upcast(
        network, bfs.forest, items, set(fragment_of.values())
    )
    return (
        tuple(collected),
        network.total_cost(),
        dict(network.metrics.messages_by_kind),
    )


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_pipeline_identical_across_engines(family, other):
    graph = GRAPH_FAMILIES[family]()
    assert _run_pipeline(graph, "reference") == _run_pipeline(graph, other)


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("bandwidth", [1, 2, 4])
def test_elkin_identical_across_engines_under_bandwidth(bandwidth, other):
    graph = random_connected_graph(48, extra_edges=96, seed=23)
    reference = compute_mst(graph, RunConfig(bandwidth=bandwidth, engine="reference"))
    fast = compute_mst(graph, RunConfig(bandwidth=bandwidth, engine=other))
    assert _mst_signature(reference) == _mst_signature(fast)


def _point_send_storm(graph, engine_name):
    """A protocol round mix dominated by single-target sends.

    Exercises the point-send path interleaved with whole-neighbourhood
    broadcasts across several rounds, reading every delivered message:
    the trace below must not depend on the engine.
    """
    network = create_engine(graph, bandwidth=2, engine=engine_name)
    vertices = sorted(network.vertices())
    trace = []
    for round_index in range(4):
        for vertex in vertices:
            neighbors = network.node(vertex).neighbors
            target = neighbors[round_index % len(neighbors)]
            network.send(vertex, target, "probe", payload=(vertex, round_index))
        if round_index % 2:
            # Every other round mixes a broadcast in; point sends stay
            # ahead of it in global send order.
            network.send_to_neighbors(vertices[0], "blast", words=1)
        inboxes = network.deliver_round()
        for receiver in inboxes:
            for message in inboxes[receiver]:
                trace.append(
                    (receiver, message.sender, message.kind, message.payload, message.words)
                )
    return trace, network.metrics.rounds, network.metrics.messages, network.metrics.words


@pytest.mark.parametrize("other", OTHER_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_point_send_storm_identical_across_engines(family, other):
    graph = GRAPH_FAMILIES[family]()
    assert _point_send_storm(graph, "reference") == _point_send_storm(graph, other)


@pytest.mark.parametrize("other", OTHER_ENGINES)
def test_prs_inherits_engine_from_config(other):
    from repro.baselines.prs import prs_style_mst

    graph = random_connected_graph(36, extra_edges=40, seed=17)
    reference = prs_style_mst(graph, RunConfig(engine="reference"))
    fast = prs_style_mst(graph, RunConfig(engine=other))
    assert _mst_signature(reference) == _mst_signature(fast)
