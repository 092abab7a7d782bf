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

Each graph is validated in time linear in its size, and laid out in that
time plus the time of the subtrees laid out for the first time.  Its
symmetry order is computed while its canonical encoding is built: every
encoding node carries the order of its rooted subtree, so each shared
subtree's order is computed once, and a graph's order is read off its root
node in time linear in the root's children.  Within one ``enumerate_graphs``
call, equal edge records, equal vertex tuples and equal mark tuples of
different graphs are one shared object each, one recursive routine lays
every child subtree, at any depth, out once per vertex offset, and graphs
and edges carry no per-instance ``__dict__``.  The rooted subtrees below the
top degree are memoized for one call only: ``enumerate_graphs`` empties that
memo when it returns, since the graphs themselves are what it caches.  The
top-level encodings are generated one at a time and dropped once laid out.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from .geometry import CHART_PAIRS, STRATUM_PAIRS, Curve, FixedPoint, pair_curve, punctual_curve
from .scalars import positive_degree

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


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge of a stable graph: a degree-``degree`` covering of ``curve``."""

    head: int
    tail: int
    curve: Curve
    degree: int


@dataclass(frozen=True, slots=True)
class StableGraph:
    """A marked labeled tree; vertex identity is the index into ``vertices``.

    ``symmetry`` is the graph's symmetry order when ``enumerate_graphs`` built
    it, and 0 otherwise: it is no ``__init__`` argument, so a graph built by
    hand or by ``dataclasses.replace`` never carries an order it was not
    enumerated with.  It takes no part in equality, hashing or ``repr``.
    """

    vertices: tuple[FixedPoint, ...]
    edges: tuple[Edge, ...]
    marks: tuple[int, int]
    symmetry: int = field(default=0, init=False, compare=False, repr=False)


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


@lru_cache(maxsize=None)
def pair_family(i: int, j: int) -> Family:
    """Graphs covering the single pair-type curve over charts (i, j), named after it."""
    curve = pair_curve(i, j)
    return Family(curve.name, (curve,), tuple(sorted(curve.endpoints)))


@lru_cache(maxsize=None)
def punctual_family(i: int, j: int, k: int) -> Family:
    """Graphs in the punctual triangle of chart ``i`` with marks on strata j, k,
    named after the curve joining the marks."""
    if (j, k) not in STRATUM_PAIRS:
        raise ValueError(f"need 0 <= j < k <= 2, got ({j},{k})")
    curves = tuple(punctual_curve(i, a, b) for a, b in STRATUM_PAIRS)
    marked = punctual_curve(i, j, k)
    return Family(marked.name, curves, marked.endpoints)


# A rooted subtree is encoded as (label, carries_second_mark, children,
# symmetry) with children a sorted tuple of (curve_name, degree,
# child_encoding).  Encodings are canonical: equal encodings <=> isomorphic
# rooted marked subtrees.  The symmetry order is a function of the first
# three entries, so it never decides how encodings sort or compare.


def _node(label: FixedPoint, marked: bool, children: tuple) -> tuple:
    """The encoding node of a rooted subtree, with its symmetry order.

    The order is the product over children of the edge degree times the
    child's order, times the factorial of the length of every run of equal
    children: ``children`` is sorted, so equal children are adjacent, and
    the k-th child of a run contributes the factor k.
    """
    symmetry = 1
    run = 0
    previous = None
    for item in children:
        run = run + 1 if item == previous else 1
        symmetry *= item[1] * item[2][3] * run
        previous = item
    return (label, marked, children, symmetry)


@lru_cache(maxsize=None)
def _edges_at(family: Family, label: FixedPoint) -> tuple[Curve, ...]:
    return tuple(c for c in family.curves if label in c.endpoints)


def _other_end(curve: Curve, label: FixedPoint) -> FixedPoint:
    a, b = curve.endpoints
    return b if label == a else a


def _rooted_trees(
    family: Family, label: FixedPoint, budget: int, with_mark: bool
) -> Iterator[tuple]:
    """Yield all canonical rooted subtrees with the given root label and beta budget.

    Without ``with_mark`` the subtrees are the root's unmarked child
    multisets.  With it, each subtree carries the second mark exactly once:
    at the root, over the same multisets, when the root has the second
    mark's label, or in exactly one branch.

    Not memoized: ``enumerate_graphs`` draws the top level from it, one
    encoding at a time, and each is dropped once it is laid out.  Every
    smaller budget is read from ``_subtrees``.
    """
    if label == family.mark_labels[1] or not with_mark:
        for children in _child_multisets(family, label, budget, None):
            yield _node(label, with_mark, children)
    if with_mark:
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
                            yield _node(label, False, merged)


@lru_cache(maxsize=None)
def _subtrees(family: Family, label: FixedPoint, budget: int, with_mark: bool) -> tuple:
    """``_rooted_trees`` memoized, for the subtrees hanging below a top level.

    The memo holds one ``enumerate_graphs`` call's subtrees and is emptied
    when that call returns.
    """
    return tuple(_rooted_trees(family, label, budget, with_mark))


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


def _lay_out(
    subtree: tuple,
    offset: int,
    curves: dict[str, Curve],
    shared: dict[tuple, object],
    layouts: dict[tuple[int, int], tuple],
) -> tuple[tuple, tuple, int]:
    """Lay a subtree out from vertex ``offset`` in depth-first preorder.

    Returns its labels, the edges inside it and the index of the vertex
    carrying the second mark, or -1.  Each child is laid out from the vertex
    after the children before it; ``layouts`` holds those layouts for one
    enumeration, keyed by ``(id(child), offset)``, so each child is laid out
    once per offset.  The ids are sound keys because every child, at any
    depth, is held by the ``_subtrees`` or ``_items`` memo until the
    enumeration returns.  A top-level encoding is freed once laid out, and
    it is never a key, since only children are keyed.

    ``curves`` maps the family's curve names to curves; ``shared`` holds the
    edge records, vertex tuples and mark tuples already built in this
    enumeration, each keyed by its value, so equal ones of different graphs
    are one object.  The keys cannot collide: an edge is keyed by four
    fields, a mark tuple is two integers and a vertex tuple holds fixed
    points only.
    """
    label, marked, children, _ = subtree
    labels = [label]
    edges: list[Edge] = []
    second = offset if marked else -1
    for curve_name, degree, child in children:
        start = offset + len(labels)
        laid = layouts.get((id(child), start))
        if laid is None:
            laid = layouts[id(child), start] = _lay_out(child, start, curves, shared, layouts)
        below, inner, mark = laid
        key = (offset, start, curve_name, degree)
        edge = shared.get(key)
        if edge is None:
            edge = shared[key] = Edge(offset, start, curves[curve_name], degree)
        edges.append(edge)
        edges += inner
        labels += below
        if mark >= 0:
            second = mark
    return tuple(labels), tuple(edges), second


@lru_cache(maxsize=None, typed=True)
def enumerate_graphs(family: Family, d: int) -> tuple[StableGraph, ...]:
    """One representative per isomorphism class with total curve degree ``d``.

    The first mark always sits at vertex 0 and carries the smaller of the
    family's two mark labels, which normalizes the mark swap.  Each encoding
    is laid out by ``_lay_out`` from vertex 0, with its vertex and mark
    tuples shared and its root node's symmetry order stored on the graph.

    The cyclic collector is paused while the graphs are built and validated,
    and left as it was found: the layout makes no reference cycle, so a
    collection over the growing heap would only cost time.  The subtree
    memos ``_subtrees`` and ``_items`` are emptied on the way out, so each
    call builds and frees its own.
    """
    positive_degree(d)
    curves = {curve.name: curve for curve in family.curves}
    shared: dict[tuple, object] = {}
    layouts: dict[tuple[int, int], tuple] = {}
    built = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for encoding in _rooted_trees(family, family.mark_labels[0], d, True):
            labels, edges, second = _lay_out(encoding, 0, curves, shared, layouts)
            marks = (0, second)
            graph = StableGraph(
                shared.setdefault(labels, labels), edges, shared.setdefault(marks, marks)
            )
            object.__setattr__(graph, "symmetry", encoding[3])
            built.append(graph)
        # Built in the pause: made after it, the tuple would start a young
        # collection over every layout while ``layouts`` still holds them.
        graphs = tuple(built)
        for graph in graphs:
            validate_graph(family, graph)
    finally:
        _subtrees.cache_clear()
        _items.cache_clear()
        if collecting:
            gc.enable()
    return graphs


def _rooted_encoding(
    graph: StableGraph, around: list[list[tuple[int, Edge]]], vertex: int, parent: int
) -> tuple:
    """The encoding node of the subtree of ``graph`` below ``vertex``, seen from ``parent``."""
    children = sorted(
        (edge.curve.name, edge.degree, _rooted_encoding(graph, around, child, vertex))
        for child, edge in around[vertex] if child != parent
    )
    return _node(graph.vertices[vertex], vertex == graph.marks[1], tuple(children))


def automorphism_order(graph: StableGraph) -> int:
    """Order of the graph's deck-transformation group ``|Aut| * prod(d_e)``.

    An enumerated graph carries its order in ``symmetry``, computed while
    its encoding was built, and that is returned.  Any other graph is walked:
    rooted at the first mark, its canonical encoding is built through
    ``_node``, whose order counts the edge degrees, and the root's order is
    returned.  Every automorphism fixes both marked vertices, so rooted and
    unrooted automorphisms agree.  The neighbour lists are built once, so
    any edge order and orientation gives the same result.
    """
    if graph.symmetry:
        return graph.symmetry
    around: list[list[tuple[int, Edge]]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        around[edge.head].append((edge.tail, edge))
        around[edge.tail].append((edge.head, edge))
    return _rooted_encoding(graph, around, graph.marks[0], -1)[3]


def validate_graph(family: Family, graph: StableGraph) -> None:
    """Raise ``ValueError`` unless the graph is a valid member of the family.

    One loop over the edges checks each edge and marks its ends as reached
    from vertex 0 when one end already is; the edges it could not place are
    swept again until none is left or a sweep reaches nothing.  An edge list
    in preorder, as ``enumerate_graphs`` lays it out, is placed in the loop.
    """
    labels = graph.vertices
    n = len(labels)
    if len(graph.edges) != n - 1:
        raise ValueError("graph is not a tree: wrong edge count")
    curves = family.curves
    reached = [False] * n
    reached[0] = True
    pending = []
    for edge in graph.edges:
        head, tail, curve = edge.head, edge.tail, edge.curve
        if not (0 <= head < n and 0 <= tail < n):
            raise ValueError(f"edge ({head}, {tail}) leaves the {n} vertices")
        if curve not in curves:
            raise ValueError(f"edge curve {curve} not in family {family.name}")
        if edge.degree < 1:
            raise ValueError("edge degree must be positive")
        ends = (labels[head], labels[tail])
        if ends != curve.endpoints and ends[::-1] != curve.endpoints:
            raise ValueError(f"edge endpoints {ends} do not match curve {curve}")
        if reached[head]:
            reached[tail] = True
        elif reached[tail]:
            reached[head] = True
        else:
            pending.append(edge)
    while pending:
        left = []
        for edge in pending:
            if reached[edge.head]:
                reached[edge.tail] = True
            elif reached[edge.tail]:
                reached[edge.head] = True
            else:
                left.append(edge)
        if len(left) == len(pending):
            break
        pending = left
    if not all(reached):
        raise ValueError("graph is not connected")
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
    return tuple(pair_family(i, j) for i, j in CHART_PAIRS)


def all_punctual_families(i: int) -> tuple[Family, ...]:
    """The three mark placements for the punctual triangle of chart ``i``."""
    return tuple(punctual_family(i, j, k) for j, k in STRATUM_PAIRS)
