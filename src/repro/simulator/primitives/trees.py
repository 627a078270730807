"""Rooted forests: the shared tree representation used by the primitives.

A :class:`RootedForest` is a set of vertex-disjoint rooted trees given by
parent pointers.  BFS trees, MST fragment trees and the auxiliary tree
``tau`` of the paper are all instances; the broadcast, convergecast and
pipelining primitives operate on any of them.  The structure is validated
eagerly (no cycles, parents are present, edges are consistent) because a
malformed forest would silently corrupt cost accounting.
"""

from __future__ import annotations

import functools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ...exceptions import ProtocolError
from ...types import VertexId

if TYPE_CHECKING:
    from ..engine import Engine


@dataclass
class RootedForest:
    """A forest described by parent pointers.

    Attributes:
        parent: maps every vertex of the forest to its parent, or ``None``
            for roots.  The key set defines the vertex set of the forest.
            It must not be mutated after construction: every derived
            attribute below is computed once from it.
        depth: distance of every vertex from its root, keyed in
            ``level_order``.
        level_order: all vertices sorted by ``(depth, vertex)`` -- the
            order in which a broadcast reaches them.
        subtree_height: height of the subtree hanging from every vertex
            (0 for leaves) -- the round in which a convergecast sends
            that vertex's aggregate.
    """

    parent: Dict[VertexId, Optional[VertexId]]
    children: Dict[VertexId, Tuple[VertexId, ...]] = field(init=False)
    roots: Tuple[VertexId, ...] = field(init=False)
    depth: Dict[VertexId, int] = field(init=False)
    level_order: Tuple[VertexId, ...] = field(init=False, repr=False, compare=False)
    subtree_height: Dict[VertexId, int] = field(init=False, repr=False, compare=False)
    #: the graph every tree edge was last checked against (see check_edges)
    _checked_graph: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parent:
            raise ProtocolError("a rooted forest needs at least one vertex")
        children: Dict[VertexId, List[VertexId]] = defaultdict(list)
        roots: List[VertexId] = []
        for vertex, parent in self.parent.items():
            if parent is None:
                roots.append(vertex)
                continue
            if parent not in self.parent:
                raise ProtocolError(
                    f"vertex {vertex} has parent {parent} which is not in the forest"
                )
            if parent == vertex:
                raise ProtocolError(f"vertex {vertex} is its own parent")
            children[parent].append(vertex)
        if not roots:
            raise ProtocolError("forest has no roots (parent pointers form a cycle)")
        self.children = {v: tuple(sorted(children.get(v, ()))) for v in self.parent}
        self.roots = tuple(sorted(roots))

        # Depth by level-synchronous BFS from the roots, each level sorted;
        # detects unreachable vertices (cycles).
        depth: Dict[VertexId, int] = {}
        level: List[VertexId] = list(self.roots)
        distance = 0
        while level:
            for vertex in level:
                depth[vertex] = distance
            distance += 1
            level = sorted(child for vertex in level for child in self.children[vertex])
        if len(depth) != len(self.parent):
            missing = set(self.parent) - set(depth)
            raise ProtocolError(
                f"{len(missing)} vertices unreachable from any root (cycle?), e.g. {next(iter(missing))}"
            )
        self.depth = depth
        self.level_order = tuple(depth)

        height = dict.fromkeys(self.level_order, 0)
        for vertex in reversed(self.level_order):
            parent = self.parent[vertex]
            if parent is not None and height[vertex] >= height[parent]:
                height[parent] = height[vertex] + 1
        self.subtree_height = height

    # ------------------------------------------------------------------ #

    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        """Vertices of the forest in sorted order."""
        return tuple(sorted(self.parent))

    @property
    def size(self) -> int:
        """Number of vertices in the forest."""
        return len(self.parent)

    @property
    def height(self) -> int:
        """Maximum depth over all vertices (0 for a forest of singletons)."""
        return self.depth[self.level_order[-1]]

    @functools.cached_property
    def fold_order(self) -> Tuple[VertexId, ...]:
        """Non-root vertices in the order a convergecast folds them into their parents.

        Sorted by ``(subtree height, parent, vertex)``: a vertex's
        aggregate is sent in the round equal to its subtree height, the
        round driver visits receivers in sorted order, and each receiver
        reads its inbox in sender order.
        """
        parent = self.parent
        height = self.subtree_height
        return tuple(
            sorted(
                (vertex for vertex, up in parent.items() if up is not None),
                key=lambda vertex: (height[vertex], parent[vertex], vertex),
            )
        )

    def check_edges(self, network: "Engine", primitive: str) -> None:
        """Raise unless the forest lives in ``network``'s graph.

        Every tree edge must be a graph edge (:class:`ProtocolError`
        naming ``primitive``) and every vertex a graph vertex (the
        engine's own error from :meth:`Engine.node`).  The verdict is
        cached against the graph object, so a forest reused by many
        waves on one engine is checked once.
        """
        graph = network.graph
        if self._checked_graph is graph:
            return
        for child, parent in self.edges():
            if not network.has_edge(child, parent):
                raise ProtocolError(
                    f"{primitive}: tree edge ({child}, {parent}) is not a graph edge"
                )
        for vertex in self.parent:
            network.node(vertex)
        self._checked_graph = graph

    def is_root(self, vertex: VertexId) -> bool:
        """True when ``vertex`` is a root of its tree."""
        return self.parent[vertex] is None

    def is_leaf(self, vertex: VertexId) -> bool:
        """True when ``vertex`` has no children."""
        return not self.children[vertex]

    def root_of(self, vertex: VertexId) -> VertexId:
        """Root of the tree containing ``vertex``."""
        current = vertex
        while self.parent[current] is not None:
            current = self.parent[current]
        return current

    def tree_vertices(self, root: VertexId) -> List[VertexId]:
        """All vertices of the tree rooted at ``root``, in BFS order."""
        if root not in self.parent or self.parent[root] is not None:
            raise ProtocolError(f"{root} is not a root of this forest")
        order: List[VertexId] = []
        queue: deque[VertexId] = deque([root])
        while queue:
            vertex = queue.popleft()
            order.append(vertex)
            queue.extend(self.children[vertex])
        return order

    def path_to_root(self, vertex: VertexId) -> List[VertexId]:
        """Vertices on the path from ``vertex`` up to (and including) its root."""
        path = [vertex]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """Tree edges as (child, parent) pairs."""
        return [(v, p) for v, p in self.parent.items() if p is not None]

    @staticmethod
    def single_tree(parent: Dict[VertexId, Optional[VertexId]]) -> "RootedForest":
        """Build a forest and check that it consists of exactly one tree."""
        forest = RootedForest(parent=dict(parent))
        if len(forest.roots) != 1:
            raise ProtocolError(f"expected a single tree, found {len(forest.roots)} roots")
        return forest

    @staticmethod
    def from_parent_pairs(pairs: Iterable[Tuple[VertexId, Optional[VertexId]]]) -> "RootedForest":
        """Build a forest from (vertex, parent-or-None) pairs."""
        return RootedForest(parent=dict(pairs))
