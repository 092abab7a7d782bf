"""Enumeration of stable graphs indexing torus-fixed loci of stable maps.

A stable graph here is a finite tree whose vertices are labeled by
torus-fixed points, whose edges carry an invariant curve together with a
covering degree, and which has two marked vertices with distinct labels.
Each edge's endpoints must be labeled by the endpoints of its curve, and the
beta-weighted covering degrees sum to the total curve degree.

Graphs are enumerated one representative per isomorphism class.  Since the
two marks sit on distinct labels, every isomorphism fixes both marked
vertices; rooting the tree at the first mark therefore turns graph
isomorphism into rooted-tree isomorphism, and canonical rooted growth
(children generated as non-increasing key sequences) is exhaustive and
duplicate-free.

Each graph is laid out, validated and given its symmetry order in time
linear in its size.  Within one ``enumerate_graphs`` call, equal edge records
of different graphs are one shared (frozen) object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import Curve, FixedPoint, curve_catalog, fixed_points, pair_curve, punctual_curve

__all__ = [
    "Edge",
    "StableGraph",
    "Family",
    "pair_family",
    "punctual_family",
    "enumerate_graphs",
    "automorphism_order",
    "validate_graph",
]


@dataclass(frozen=True)
class Edge:
    """An edge of a stable graph: a degree-``degree`` covering of ``curve``."""

    head: int
    tail: int
    curve: Curve
    degree: int


@dataclass(frozen=True)
class StableGraph:
    """A marked labeled tree; vertex identity is the index into ``vertices``."""

    vertices: tuple[FixedPoint, ...]
    edges: tuple[Edge, ...]
    marks: tuple[int, int]

    def degree(self) -> int:
        return sum(e.curve.beta * e.degree for e in self.edges)

    def mark_count(self, vertex: int) -> int:
        return (self.marks[0] == vertex) + (self.marks[1] == vertex)


@dataclass(frozen=True)
class Family:
    """A connected system of curves with two chosen mark labels.

    Equality compares every field; the hash reads only the name and the mark
    labels, so the enumeration caches keyed by a family never hash curves.
    """

    name: str
    curves: tuple[Curve, ...]
    mark_labels: tuple[FixedPoint, FixedPoint]

    def __hash__(self) -> int:
        return hash((self.name, self.mark_labels))


def pair_family(i: int, j: int) -> Family:
    """Graphs covering the single pair-type curve over charts (i, j)."""
    curve = pair_curve(i, j)
    first, second = sorted(curve.endpoints)
    return Family(f"pair({i},{j})", (curve,), (first, second))


def punctual_family(i: int, j: int, k: int) -> Family:
    """Graphs in the punctual triangle of chart ``i`` with marks on strata j, k."""
    if not 0 <= j < k <= 2:
        raise ValueError(f"need 0 <= j < k <= 2, got ({j},{k})")
    curves = tuple(
        punctual_curve(i, a, b) for (a, b) in ((0, 1), (0, 2), (1, 2))
    )
    return Family(f"punctual({i};{j},{k})", curves, punctual_curve(i, j, k).endpoints)


# A rooted subtree is encoded as (label, carries_second_mark, children) with
# children a sorted tuple of (curve_name, degree, child_encoding).  Encodings
# are canonical: equal encodings <=> isomorphic rooted marked subtrees.


@lru_cache(maxsize=None)
def _edges_at(family: Family, label: FixedPoint) -> tuple[Curve, ...]:
    return tuple(c for c in family.curves if label in c.endpoints)


def _other_end(curve: Curve, label: FixedPoint) -> FixedPoint:
    a, b = curve.endpoints
    return b if label == a else a


@lru_cache(maxsize=None)
def _subtrees(family: Family, label: FixedPoint, budget: int, with_mark: bool) -> tuple:
    """All canonical rooted subtrees with the given root label and beta budget."""
    mark_label = family.mark_labels[1]
    results = []
    if with_mark and label == mark_label:
        for children in _child_multisets(family, label, budget, None):
            results.append((label, True, children))
    if with_mark:
        # The second mark goes into exactly one branch.
        for curve in _edges_at(family, label):
            child_label = _other_end(curve, label)
            for degree in range(1, budget // curve.beta + 1):
                spent = curve.beta * degree
                for branch_budget in range(budget - spent + 1):
                    for marked_child in _subtrees(family, child_label, branch_budget, True):
                        marked_item = (curve.name, degree, marked_child)
                        rest = budget - spent - branch_budget
                        for children in _child_multisets(family, label, rest, None):
                            merged = tuple(sorted(children + (marked_item,)))
                            results.append((label, False, merged))
    else:
        for children in _child_multisets(family, label, budget, None):
            results.append((label, False, children))
    return tuple(results)


@lru_cache(maxsize=None)
def _items(family: Family, label: FixedPoint, cost: int) -> tuple:
    """All unmarked child attachments at ``label`` with exact beta cost."""
    found = []
    for curve in _edges_at(family, label):
        child_label = _other_end(curve, label)
        for degree in range(1, cost // curve.beta + 1):
            rest = cost - curve.beta * degree
            for child in _subtrees(family, child_label, rest, False):
                found.append((curve.name, degree, child))
    return tuple(sorted(found))


def _child_multisets(family: Family, label: FixedPoint, budget: int, bound) -> tuple:
    """Non-increasing tuples of unmarked child items with total cost ``budget``."""
    if budget < 0:
        return ()
    if budget == 0:
        return ((),)
    results = []
    for cost in range(1, budget + 1):
        for item in _items(family, label, cost):
            if bound is not None and item > bound:
                continue
            for rest in _child_multisets(family, label, budget - cost, item):
                results.append(rest + (item,))
    return tuple(results)


def _materialize(
    encoding: tuple, curves: dict[str, Curve], shared: dict[tuple, Edge]
) -> StableGraph:
    """Lay an encoding out as a graph, vertices in depth-first preorder.

    The layout runs on an explicit stack, so it leaves no reference cycle
    behind for the cyclic collector.

    ``curves`` maps the family's curve names to curves; ``shared`` holds the
    edge records already built in this enumeration, so equal edges of
    different graphs are one object.
    """
    vertices: list[FixedPoint] = []
    edges: list[Edge] = []
    second = -1
    # Each entry is a subtree still to lay out, with the vertex it hangs
    # from and the curve and degree of the edge to it.  Children are pushed
    # last first, so they are popped, and numbered, in order.
    stack: list[tuple] = [(-1, "", 0, encoding)]
    while stack:
        parent, curve_name, degree, (label, marked, children) = stack.pop()
        index = len(vertices)
        vertices.append(label)
        if marked:
            second = index
        if parent >= 0:
            key = (parent, index, curve_name, degree)
            edge = shared.get(key)
            if edge is None:
                edge = shared[key] = Edge(parent, index, curves[curve_name], degree)
            edges.append(edge)
        stack += [(index, name, deg, child) for name, deg, child in reversed(children)]
    if second < 0:
        raise ValueError("encoding carries no second mark")
    return StableGraph(tuple(vertices), tuple(edges), (0, second))


@lru_cache(maxsize=None)
def enumerate_graphs(family: Family, d: int) -> tuple[StableGraph, ...]:
    """One representative per isomorphism class with total curve degree ``d``.

    The first mark always sits at vertex 0 and carries the smaller of the
    family's two mark labels, which normalizes the mark swap.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    curves = {curve.name: curve for curve in family.curves}
    shared: dict[tuple, Edge] = {}
    graphs = [
        _materialize(encoding, curves, shared)
        for encoding in _subtrees(family, family.mark_labels[0], d, True)
    ]
    for graph in graphs:
        validate_graph(family, graph)
    return tuple(graphs)


def _rooted_encoding_and_aut(
    graph: StableGraph, around: list[list[tuple[int, Edge]]], vertex: int, parent: int
) -> tuple[tuple, int]:
    children = []
    aut = 1
    for child, edge in around[vertex]:
        if child == parent:
            continue
        child_enc, child_aut = _rooted_encoding_and_aut(graph, around, child, vertex)
        children.append((edge.curve.name, edge.degree, child_enc))
        aut *= child_aut
    children.sort()
    start = 0
    for pos in range(1, len(children) + 1):
        if pos == len(children) or children[pos] != children[start]:
            aut *= math.factorial(pos - start)
            start = pos
    encoding = (graph.vertices[vertex], vertex == graph.marks[1], tuple(children))
    return encoding, aut


def automorphism_order(graph: StableGraph) -> int:
    """Order of the graph's deck-transformation group ``|Aut| * prod(d_e)``.

    ``Aut`` is computed by rooting at the first mark: every automorphism
    fixes both marked vertices, so rooted and unrooted automorphisms agree.
    The neighbour lists are built once, so any edge order and orientation
    gives the same result in time linear in the graph.
    """
    around: list[list[tuple[int, Edge]]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        around[edge.head].append((edge.tail, edge))
        around[edge.tail].append((edge.head, edge))
    _, aut = _rooted_encoding_and_aut(graph, around, graph.marks[0], -1)
    return aut * math.prod(e.degree for e in graph.edges)


def validate_graph(family: Family, graph: StableGraph) -> None:
    """Raise ``ValueError`` unless the graph is a valid member of the family.

    Every check is one pass over the vertices or the edges.
    """
    labels = graph.vertices
    n = len(labels)
    if len(graph.edges) != n - 1:
        raise ValueError("graph is not a tree: wrong edge count")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for edge in graph.edges:
        if not (0 <= edge.head < n and 0 <= edge.tail < n):
            raise ValueError(f"edge ({edge.head}, {edge.tail}) leaves the {n} vertices")
        adjacency[edge.head].append(edge.tail)
        adjacency[edge.tail].append(edge.head)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    if not all(seen):
        raise ValueError("graph is not connected")
    for edge in graph.edges:
        curve = edge.curve
        if curve not in family.curves:
            raise ValueError(f"edge curve {curve} not in family {family.name}")
        if edge.degree < 1:
            raise ValueError("edge degree must be positive")
        ends = (labels[edge.head], labels[edge.tail])
        if ends != curve.endpoints and ends[::-1] != curve.endpoints:
            raise ValueError(f"edge endpoints {ends} do not match curve {curve}")
    m1, m2 = graph.marks
    if not (0 <= m1 < n and 0 <= m2 < n):
        raise ValueError(f"marks ({m1}, {m2}) leave the {n} vertices")
    if m1 == m2:
        raise ValueError("marks must sit on distinct vertices")
    l1, l2 = labels[m1], labels[m2]
    if (l1, l2) != family.mark_labels:
        raise ValueError(
            f"mark labels ({l1}, {l2}) do not match family {family.mark_labels}"
        )
    if not l1 < l2:
        raise ValueError("first mark must carry the smaller label")


def all_pair_families() -> tuple[Family, ...]:
    """The six ordered-chart pair families."""
    return tuple(
        pair_family(i, j) for i in range(3) for j in range(3) if i != j
    )


def all_punctual_families(i: int) -> tuple[Family, ...]:
    """The three mark placements for the punctual triangle of chart ``i``."""
    return tuple(punctual_family(i, j, k) for (j, k) in ((0, 1), (0, 2), (1, 2)))


def catalog_summary() -> dict:
    """Counts used by the command-line catalog listing."""
    curves = curve_catalog()
    return {
        "fixed_points": len(fixed_points()),
        "curves": len(curves),
        "pair_curves": sum(1 for c in curves if c.kind == "pair"),
        "punctual_curves": sum(1 for c in curves if c.kind == "punctual"),
    }
