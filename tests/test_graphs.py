"""Stable-graph enumeration against an exhaustive labeled-tree oracle.

The oracle decodes every Pruefer sequence, decorates the resulting labeled
trees in all possible ways, and groups them into isomorphism classes by
trying every vertex permutation.  It is written independently of the
enumerator under test and is feasible for small degrees, which is exactly
where the enumerator's recursion could plausibly go wrong.
"""

import gc
import heapq
import itertools

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb3.geometry import pair_curve
from hilb3.graphs import (
    Edge,
    Family,
    StableGraph,
    all_pair_families,
    all_punctual_families,
    automorphism_order,
    catalog_summary,
    enumerate_graphs,
    pair_family,
    punctual_family,
    validate_graph,
)
from hilb3.localization import graph_contribution
from hilb3.scalars import Specialization

FAMILIES = all_pair_families() + tuple(
    family for chart in range(3) for family in all_punctual_families(chart)
)


def _labeled_trees(n):
    """Every labeled tree on ``n`` vertices, as a sorted tuple of edges."""
    if n == 1:
        return [()]
    if n == 2:
        return [((0, 1),)]
    trees = []
    for seq in itertools.product(range(n), repeat=n - 2):
        remaining = [1] * n
        for s in seq:
            remaining[s] += 1
        heap = [v for v in range(n) if remaining[v] == 1]
        heapq.heapify(heap)
        edges = []
        for s in seq:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, s), max(leaf, s)))
            remaining[leaf] -= 1
            remaining[s] -= 1
            if remaining[s] == 1:
                heapq.heappush(heap, s)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((min(u, v), max(u, v)))
        trees.append(tuple(sorted(edges)))
    return trees


def _degree_tuples(betas, total):
    """All positive degree assignments with sum of beta*degree equal to total."""
    if not betas:
        return [()] if total == 0 else []
    head, rest = betas[0], betas[1:]
    results = []
    top = (total - len(rest)) // head if head else 0
    for degree in range(1, top + 1):
        for tail in _degree_tuples(rest, total - head * degree):
            results.append((degree,) + tail)
    return results


def _canonical_and_aut(labels, decorated, marks):
    """Minimal relabeling of a decorated marked tree and its symmetry count."""
    n = len(labels)
    forms = []
    for perm in itertools.permutations(range(n)):
        new_labels = [None] * n
        for v in range(n):
            new_labels[perm[v]] = labels[v]
        new_edges = tuple(
            sorted(
                ((min(perm[u], perm[v]), max(perm[u], perm[v])), name, degree)
                for (u, v), name, degree in decorated
            )
        )
        forms.append((tuple(new_labels), new_edges, (perm[marks[0]], perm[marks[1]])))
    canon = min(forms)
    return canon, forms.count(canon)


def _brute_force_classes(family, total):
    """Isomorphism classes of decorated marked trees, with automorphism data.

    Returns a dict mapping each canonical form to the order of the full
    symmetry group: tree automorphisms times the product of edge degrees.
    """
    curves = family.curves
    points = sorted({p for c in curves for p in c.endpoints})
    mark_one, mark_two = family.mark_labels
    min_beta = min(c.beta for c in curves)
    classes = {}
    for n in range(2, total // min_beta + 2):
        for tree in _labeled_trees(n):
            for labeling in itertools.product(points, repeat=n):
                options = []
                for u, v in tree:
                    fits = [
                        c
                        for c in curves
                        if {labeling[u], labeling[v]} == set(c.endpoints)
                    ]
                    if not fits:
                        break
                    options.append(fits)
                if len(options) < len(tree):
                    continue
                for chosen in itertools.product(*options):
                    betas = [c.beta for c in chosen]
                    for degrees in _degree_tuples(betas, total):
                        decorated = [
                            (edge, curve.name, degree)
                            for edge, curve, degree in zip(tree, chosen, degrees)
                        ]
                        for m1 in range(n):
                            if labeling[m1] != mark_one:
                                continue
                            for m2 in range(n):
                                if labeling[m2] != mark_two:
                                    continue
                                canon, aut = _canonical_and_aut(
                                    list(labeling), decorated, (m1, m2)
                                )
                                full = aut
                                for degree in degrees:
                                    full *= degree
                                classes[canon] = full
    return classes


# Class counts confirmed by the oracle below and frozen here so count
# regressions fail loudly even when the oracle comparison is skipped.
PAIR_COUNTS = {1: 1, 2: 3, 3: 11, 4: 39, 5: 142}
PUNCTUAL_NEAR_COUNTS = {1: 1, 2: 4, 3: 19, 4: 90}
PUNCTUAL_FAR_COUNTS = {1: 0, 2: 1, 3: 7, 4: 35}


def test_catalog_summary():
    assert catalog_summary() == {
        "fixed_points": 21,
        "curves": 15,
        "pair_curves": 6,
        "punctual_curves": 9,
    }


def test_pair_family_counts():
    for d, expected in PAIR_COUNTS.items():
        if d > 4:
            continue
        assert len(enumerate_graphs(pair_family(0, 1), d)) == expected


def test_punctual_family_counts():
    for d in (1, 2, 3, 4):
        assert len(enumerate_graphs(punctual_family(0, 0, 1), d)) == PUNCTUAL_NEAR_COUNTS[d]
        assert len(enumerate_graphs(punctual_family(0, 0, 2), d)) == PUNCTUAL_NEAR_COUNTS[d]
        assert len(enumerate_graphs(punctual_family(0, 1, 2), d)) == PUNCTUAL_FAR_COUNTS[d]


def test_counts_do_not_depend_on_charts():
    for d in (1, 2, 3):
        pair_counts = {len(enumerate_graphs(f, d)) for f in all_pair_families()}
        assert pair_counts == {PAIR_COUNTS[d]}
    for chart in (0, 1, 2):
        counts = [len(enumerate_graphs(f, 2)) for f in all_punctual_families(chart)]
        assert sorted(counts) == sorted(
            [PUNCTUAL_NEAR_COUNTS[2], PUNCTUAL_NEAR_COUNTS[2], PUNCTUAL_FAR_COUNTS[2]]
        )


def test_pair_degree_two_automorphism_orders():
    orders = sorted(automorphism_order(g) for g in enumerate_graphs(pair_family(0, 1), 2))
    assert orders == [1, 1, 2]


def test_pair_degree_three_automorphism_orders():
    orders = sorted(automorphism_order(g) for g in enumerate_graphs(pair_family(0, 1), 3))
    assert orders == sorted([2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 3])


@pytest.mark.parametrize(
    "family",
    [
        pair_family(0, 1),
        pair_family(1, 2),
        punctual_family(0, 0, 1),
        punctual_family(1, 0, 2),
        punctual_family(2, 1, 2),
    ],
    ids=lambda f: f.name,
)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumeration_matches_brute_force(family, d):
    oracle = _brute_force_classes(family, d)
    graphs = enumerate_graphs(family, d)
    assert len(graphs) == len(oracle)
    assert sorted(automorphism_order(g) for g in graphs) == sorted(oracle.values())


def test_enumerated_graphs_validate():
    for family in (pair_family(0, 1), punctual_family(0, 0, 1), punctual_family(0, 1, 2)):
        for d in (1, 2, 3):
            for graph in enumerate_graphs(family, d):
                validate_graph(family, graph)


families = st.sampled_from(
    [pair_family(0, 1), pair_family(0, 2), punctual_family(0, 0, 1), punctual_family(1, 1, 2)]
)


@given(families, st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_graph_shape_properties(family, d):
    graphs = enumerate_graphs(family, d)
    seen = set()
    for graph in graphs:
        assert graph.degree() == d
        # Trees: one more vertex than edge, and connectivity comes with it.
        assert len(graph.vertices) == len(graph.edges) + 1
        assert graph.vertices[graph.marks[0]] == family.mark_labels[0]
        assert graph.vertices[graph.marks[1]] == family.mark_labels[1]
        for edge in graph.edges:
            ends = {graph.vertices[edge.head], graph.vertices[edge.tail]}
            assert ends == set(edge.curve.endpoints)
            assert edge.degree >= 1
        key = (graph.vertices, graph.edges, graph.marks)
        assert key not in seen
        seen.add(key)


# Per family at d = 5: (graph count, sum of automorphism orders), captured
# from the enumerator before its edge records were shared.
DEGREE_FIVE = {
    **{f"pair({i},{j})": (142, 453) for i in range(3) for j in range(3) if i != j},
    **{f"punctual({i};{j},{k})": (429, 1088) for i in range(3) for j, k in ((0, 1), (0, 2))},
    **{f"punctual({i};1,2)": (183, 385) for i in range(3)},
}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_degree_five_counts_and_orders_are_pinned(family):
    graphs = enumerate_graphs(family, 5)
    assert (len(graphs), sum(automorphism_order(g) for g in graphs)) == DEGREE_FIVE[family.name]


def test_equal_families_hash_equal_and_share_the_cache():
    first, second = pair_family(0, 1), pair_family(0, 1)
    assert first == second and hash(first) == hash(second)
    assert first != Family(first.name, first.curves, first.mark_labels[::-1])
    enumerate_graphs(first, 3)
    hits = enumerate_graphs.cache_info().hits
    assert enumerate_graphs(second, 3) is enumerate_graphs(first, 3)
    assert enumerate_graphs.cache_info().hits == hits + 2


def test_enumerated_graphs_share_edge_records():
    graphs = enumerate_graphs(pair_family(0, 1), 4)
    edges = [e for g in graphs for e in g.edges]
    assert len({id(e) for e in edges}) == len(set(edges)) < len(edges)


def test_enumeration_leaves_no_reference_cycles():
    # The uncached enumeration lays every graph out afresh; with the
    # collector paused, anything it left in a cycle would still be there.
    gc.collect()
    gc.disable()
    try:
        graphs = enumerate_graphs.__wrapped__(punctual_family(0, 0, 1), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert graphs == enumerate_graphs(punctual_family(0, 0, 1), 4)


@pytest.mark.parametrize(
    "family", [pair_family(0, 1), punctual_family(0, 0, 1), punctual_family(1, 1, 2)],
    ids=lambda f: f.name,
)
def test_symmetry_order_ignores_edge_order_and_orientation(family):
    point = Specialization(Fraction(2, 7), Fraction(-5, 3))
    for graph in enumerate_graphs(family, 4):
        flipped = StableGraph(
            graph.vertices,
            tuple(Edge(e.tail, e.head, e.curve, e.degree) for e in reversed(graph.edges)),
            graph.marks,
        )
        validate_graph(family, flipped)
        assert automorphism_order(flipped) == automorphism_order(graph)
        assert graph_contribution(flipped, point) == graph_contribution(graph, point)


def _one_edge_graph():
    """The degree-2 pair graph with a single doubled edge, and its family."""
    family = pair_family(0, 1)
    (graph,) = [g for g in enumerate_graphs(family, 2) if len(g.edges) == 1]
    return family, graph


def test_validate_rejects_a_wrong_edge_count():
    family, graph = _one_edge_graph()
    with pytest.raises(ValueError, match="wrong edge count"):
        validate_graph(family, StableGraph(graph.vertices, graph.edges * 2, graph.marks))


def test_validate_rejects_an_edge_off_the_vertices():
    family, graph = _one_edge_graph()
    (edge,) = graph.edges
    bad = StableGraph(graph.vertices, (Edge(0, -1, edge.curve, edge.degree),), graph.marks)
    with pytest.raises(ValueError, match="leaves the 2 vertices"):
        validate_graph(family, bad)


def test_validate_rejects_a_disconnected_graph():
    family, graph = _one_edge_graph()
    (edge,) = graph.edges
    bad = StableGraph(graph.vertices + graph.vertices[:1], (edge, edge), graph.marks)
    with pytest.raises(ValueError, match="not connected"):
        validate_graph(family, bad)


def test_validate_rejects_a_curve_outside_the_family():
    family, graph = _one_edge_graph()
    (edge,) = graph.edges
    bad = StableGraph(graph.vertices, (Edge(0, 1, pair_curve(1, 0), edge.degree),), graph.marks)
    with pytest.raises(ValueError, match="not in family"):
        validate_graph(family, bad)


def test_validate_rejects_a_nonpositive_degree():
    family, graph = _one_edge_graph()
    (edge,) = graph.edges
    bad = StableGraph(graph.vertices, (Edge(0, 1, edge.curve, 0),), graph.marks)
    with pytest.raises(ValueError, match="degree must be positive"):
        validate_graph(family, bad)


def test_validate_rejects_endpoints_off_the_curve():
    family, graph = _one_edge_graph()
    bad = StableGraph(graph.vertices[:1] * 2, graph.edges, graph.marks)
    with pytest.raises(ValueError, match="do not match curve"):
        validate_graph(family, bad)


def test_validate_rejects_both_marks_on_one_vertex():
    family, graph = _one_edge_graph()
    with pytest.raises(ValueError, match="distinct vertices"):
        validate_graph(family, StableGraph(graph.vertices, graph.edges, (0, 0)))


def test_validate_rejects_a_mark_off_the_vertices():
    # A negative index would otherwise read a label from the end.
    family, graph = _one_edge_graph()
    with pytest.raises(ValueError, match="leave the 2 vertices"):
        validate_graph(family, StableGraph(graph.vertices, graph.edges, (0, -1)))


def test_validate_rejects_wrong_mark_labels():
    family, graph = _one_edge_graph()
    with pytest.raises(ValueError, match="do not match family"):
        validate_graph(family, StableGraph(graph.vertices, graph.edges, (1, 0)))


def test_validate_rejects_mark_labels_out_of_order():
    family, graph = _one_edge_graph()
    swapped = Family(family.name, family.curves, family.mark_labels[::-1])
    with pytest.raises(ValueError, match="smaller label"):
        validate_graph(swapped, StableGraph(graph.vertices, graph.edges, (1, 0)))


def test_degree_must_be_positive():
    family = pair_family(0, 1)
    with pytest.raises(ValueError):
        enumerate_graphs(family, 0)
    with pytest.raises(ValueError):
        enumerate_graphs(family, -1)
