"""Seeded CONGEST-locality violations (LOC101-LOC105).

Every marked line must produce exactly the named finding; the compliant
twin lives in ``good/repro/core/loc_clean.py``.  The path mimics the
real tree so the default protocol globs classify it as protocol code.
"""

from repro.simulator.protocol import NodeProtocol

TOTAL_STARTS = 0


class LeakyProtocol(NodeProtocol):
    """Reads global topology and foreign state from round callbacks."""

    def __init__(self, network):
        self.network = network

    @property
    def name(self):
        return "leaky"

    def participants(self, network):
        return list(network.vertices())

    def on_start(self, vertex, node, api):
        global TOTAL_STARTS  # seeded LOC104
        TOTAL_STARTS += 1
        edges = self.network.graph.edges()  # seeded LOC101
        api.send(vertex, next(iter(node.neighbors)), "probe", len(edges))

    def on_round(self, vertex, node, api, inbox):
        other = next(iter(node.neighbors))
        foreign = api.node(other)  # seeded LOC102
        api._network.send(vertex, other, "cheat", 1)  # seeded LOC103
        self.network.send(vertex, other, "raw", 1 if foreign else 0)  # seeded LOC103
        api.wake(other)  # seeded LOC105

    def result(self, network):
        return TOTAL_STARTS
