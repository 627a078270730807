"""Compliant twin of ``loc_violations.py``: same shape, fully local.

Topology validation happens in ``__init__`` (the declared seam), round
callbacks touch only the current vertex's state, and every message goes
through the ProtocolApi.  The analyzer must stay silent on this file.
"""

from repro.simulator.protocol import NodeProtocol


class LocalProtocol(NodeProtocol):
    """Validates topology at construction and stays vertex-local after."""

    def __init__(self, network):
        self.network = network
        self._n = len(list(network.graph.nodes()))

    @property
    def name(self):
        return "local"

    def participants(self, network):
        return list(network.vertices())

    def on_start(self, vertex, node, api):
        api.send_to_neighbors(vertex, "probe", 1)

    def on_round(self, vertex, node, api, inbox):
        own = api.node(vertex)
        if inbox and own is not None:
            api.finish(vertex)
        else:
            api.wake(vertex)

    def result(self, network):
        return self._n
