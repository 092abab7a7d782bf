"""Stable-graph enumeration against an exhaustive labeled-tree oracle.

The oracle, ``_brute_force_classes`` in ``oracles.py``, decodes every
Pruefer sequence, decorates the resulting labeled trees in all possible
ways, and groups them into isomorphism classes by trying every vertex
permutation.  It is written independently of the enumerator under test and
is feasible for small degrees, which is exactly where the enumerator's
recursion could plausibly go wrong.
"""

import dataclasses
import gc
import json
import random
import threading

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb3 import graphs as graphs_module
from hilb3.cli import main
from hilb3.geometry import CHART_PAIRS, CHARTS, STRATUM_PAIRS, curve_catalog, pair_curve
from hilb3.graphs import (
    Edge,
    Family,
    StableGraph,
    all_pair_families,
    all_punctual_families,
    automorphism_order,
    enumerate_graphs,
    pair_family,
    punctual_family,
    validate_graph,
)
from hilb3.scalars import Specialization

from oracles import FAMILIES, _brute_force_classes, graph_contribution


# Class counts confirmed by the oracle and frozen here so count
# regressions fail loudly even when the oracle comparison is skipped.
PAIR_COUNTS = {1: 1, 2: 3, 3: 11, 4: 39, 5: 142}
PUNCTUAL_NEAR_COUNTS = {1: 1, 2: 4, 3: 19, 4: 90}
PUNCTUAL_FAR_COUNTS = {1: 0, 2: 1, 3: 7, 4: 35}


def test_catalog_summary(capsys):
    # The counts ``hilb3 catalog`` prints, read from its JSON summary.
    assert main(["catalog", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == {
        "fixed_points": 21,
        "curves": 15,
        "pair_curves": 6,
        "punctual_curves": 9,
    }


def test_catalog_order_follows_the_index_sets():
    # Pair curves over the chart pairs, then each chart's punctual triangle
    # over the stratum pairs; every family is named after the curve that
    # joins its two marks.
    names = [pair_family(i, j).name for i, j in CHART_PAIRS]
    names += [punctual_family(i, j, k).name for i in CHARTS for j, k in STRATUM_PAIRS]
    assert [curve.name for curve in curve_catalog()] == names
    assert [family.name for family in FAMILIES] == names
    for family in FAMILIES:
        joining = [c for c in family.curves if set(c.endpoints) == set(family.mark_labels)]
        assert [c.name for c in joining] == [family.name]


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
        assert sum(e.curve.beta * e.degree for e in graph.edges) == d
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


# Per family at d = 6: (graph count, sum of automorphism orders), captured
# from the enumerator before it recorded each graph's order while building it,
# when every order came from walking the laid-out graph.
DEGREE_SIX = {
    **{f"pair({i},{j})": (514, 2272) for i in range(3) for j in range(3) if i != j},
    **{f"punctual({i};{j},{k})": (2051, 6615) for i in range(3) for j, k in ((0, 1), (0, 2))},
    **{f"punctual({i};1,2)": (930, 2509) for i in range(3)},
}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_degree_five_counts_and_orders_are_pinned(family):
    graphs = enumerate_graphs(family, 5)
    assert (len(graphs), sum(automorphism_order(g) for g in graphs)) == DEGREE_FIVE[family.name]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_degree_six_counts_and_orders_are_pinned(family):
    graphs = enumerate_graphs(family, 6)
    assert (len(graphs), sum(automorphism_order(g) for g in graphs)) == DEGREE_SIX[family.name]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_stored_symmetry_orders_match_the_layout_walk(family):
    # A copy built by hand carries no order, so automorphism_order walks it.
    for d in range(1, 7):
        for graph in enumerate_graphs(family, d):
            copy = StableGraph(graph.vertices, graph.edges, graph.marks)
            assert copy.symmetry == 0 and graph.symmetry > 0
            assert copy == graph and hash(copy) == hash(graph) and repr(copy) == repr(graph)
            assert graph.symmetry == automorphism_order(copy)


def test_a_replaced_graph_carries_no_symmetry_order():
    graph = max(enumerate_graphs(pair_family(0, 1), 4), key=automorphism_order)
    assert graph.symmetry == automorphism_order(graph) > 1
    flipped = tuple(Edge(e.tail, e.head, e.curve, e.degree) for e in graph.edges)
    replaced = dataclasses.replace(graph, edges=flipped)
    assert replaced.symmetry == 0
    assert automorphism_order(replaced) == graph.symmetry
    assert dataclasses.replace(graph).symmetry == 0


def test_equal_families_hash_equal_and_share_the_cache():
    first, second = pair_family(0, 1), pair_family(0, 1)
    assert first == second and hash(first) == hash(second)
    assert first != Family(first.name, first.curves, first.mark_labels[::-1])
    enumerate_graphs(first, 3)
    hits = enumerate_graphs.cache_info().hits
    assert enumerate_graphs(second, 3) is enumerate_graphs(first, 3)
    assert enumerate_graphs.cache_info().hits == hits + 2


def test_enumerated_graphs_share_edge_records():
    # At d = 6 most child subtrees, at any depth, are read from one call's
    # layout memo.
    for graphs in (
        enumerate_graphs(pair_family(0, 1), 4),
        enumerate_graphs.__wrapped__(pair_family(0, 1), 6),
    ):
        edges = [e for g in graphs for e in g.edges]
        assert len({id(e) for e in edges}) == len(set(edges)) < len(edges)


def test_enumerated_graphs_share_vertex_and_mark_tuples():
    for d in (5, 6):
        graphs = enumerate_graphs.__wrapped__(punctual_family(0, 0, 1), d)
        for field in ("vertices", "marks"):
            values = [getattr(g, field) for g in graphs]
            assert len({id(v) for v in values}) == len(set(values)) < len(values), field


def _clear_enumeration_caches():
    for cached in (enumerate_graphs, graphs_module._subtrees, graphs_module._items):
        cached.cache_clear()


def _stack_layout(encoding, curves):
    """An encoding laid out as a graph on one explicit stack, vertices and
    edges in depth-first preorder, with fresh edge records."""
    vertices, edges, second = [], [], -1
    stack = [(-1, None, encoding)]
    while stack:
        parent, item, (label, marked, children, _) = stack.pop()
        index = len(vertices)
        vertices.append(label)
        if marked:
            second = index
        if parent >= 0:
            edges.append(Edge(parent, index, curves[item[0]], item[1]))
        stack += [(index, child, child[2]) for child in reversed(children)]
    graph = StableGraph(tuple(vertices), tuple(edges), (0, second))
    object.__setattr__(graph, "symmetry", encoding[3])
    return graph


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_layout_matches_one_stack_over_the_whole_encoding(family):
    # Each child subtree, at any depth, is laid out once per offset and
    # reused; the oracle lays every encoding out whole, in the same order the
    # enumeration draws them.
    curves = {curve.name: curve for curve in family.curves}
    for d in range(1, 6):
        graphs = enumerate_graphs.__wrapped__(family, d)
        try:
            encodings = list(graphs_module._rooted_trees(family, family.mark_labels[0], d, True))
        finally:
            _clear_enumeration_caches()
        assert len(encodings) == len(graphs)
        for encoding, graph in zip(encodings, graphs):
            expected = _stack_layout(encoding, curves)
            assert (graph.vertices, graph.edges, graph.marks, graph.symmetry) == (
                expected.vertices, expected.edges, expected.marks, expected.symmetry
            )


def test_enumeration_does_not_depend_on_call_order():
    # Only the graphs are cached across calls: each call builds its own
    # subtree memo and empties it on return.  So a degree enumerated cold,
    # after every lower degree, or uncached must give equal graphs.
    cold = {}
    for family in FAMILIES:
        for d in range(1, 6):
            _clear_enumeration_caches()
            cold[family, d] = enumerate_graphs(family, d)
    _clear_enumeration_caches()
    for family in FAMILIES:
        for d in range(1, 6):
            assert enumerate_graphs(family, d) == cold[family, d]
            assert enumerate_graphs.__wrapped__(family, d) == cold[family, d]


def _subtree_memos_are_empty():
    return all(
        memo.cache_info().currsize == 0 for memo in (graphs_module._subtrees, graphs_module._items)
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_the_collector_state(monkeypatch, enabled):
    # One call owns its subtree memo: it is emptied on return, as on a raise.
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        enumerate_graphs.__wrapped__(pair_family(0, 1), 3)
        assert gc.isenabled() is enabled
        assert _subtree_memos_are_empty()

        def refuse(family, graph):
            raise ValueError("refused")

        monkeypatch.setattr(graphs_module, "validate_graph", refuse)
        with pytest.raises(ValueError, match="refused"):
            enumerate_graphs.__wrapped__(pair_family(0, 1), 3)
        assert gc.isenabled() is enabled
        assert _subtree_memos_are_empty()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_an_encoding_without_the_second_mark_is_refused(monkeypatch):
    # The layout records no second mark as -1, and validation refuses it;
    # the subtree memos filled on the way are still emptied.
    rooted_trees = graphs_module._rooted_trees

    def unmarked(family, label, budget, with_mark):
        if label != family.mark_labels[0]:
            return rooted_trees(family, label, budget, with_mark)
        assert len(list(rooted_trees(family, label, budget, with_mark))) == 1
        assert not _subtree_memos_are_empty()
        return iter([graphs_module._node(label, False, ())])

    monkeypatch.setattr(graphs_module, "_rooted_trees", unmarked)
    with pytest.raises(ValueError, match=r"^marks \(0, -1\) leave the 1 vertices$"):
        enumerate_graphs.__wrapped__(pair_family(0, 1), 1)
    assert _subtree_memos_are_empty()


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


@pytest.mark.parametrize(
    "family", [pair_family(0, 1), punctual_family(0, 0, 1), punctual_family(1, 1, 2)],
    ids=lambda f: f.name,
)
def test_validate_accepts_any_edge_order_and_orientation(family):
    # A shuffled edge list leaves edges that reach no vertex yet, which only a
    # later sweep places.
    rng = random.Random(29)
    for d in range(1, 5):
        for graph in enumerate_graphs(family, d):
            edges = [
                Edge(e.tail, e.head, e.curve, e.degree) if rng.random() < 0.5 else e
                for e in graph.edges
            ]
            rng.shuffle(edges)
            validate_graph(family, StableGraph(graph.vertices, tuple(edges), graph.marks))


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


def test_validate_stops_when_a_sweep_reaches_nothing():
    # Vertices 2 and 3 are joined to each other twice and never to vertex 0,
    # so every sweep after the first loop reaches nothing.
    family, graph = _one_edge_graph()
    (edge,) = graph.edges
    apart = Edge(2, 3, edge.curve, edge.degree)
    bad = StableGraph(graph.vertices * 2, (edge, apart, apart), graph.marks)
    raised = []

    def check():
        with pytest.raises(ValueError, match="not connected") as info:
            validate_graph(family, bad)
        raised.append(info.value)

    worker = threading.Thread(target=check, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "validate_graph kept sweeping"
    assert len(raised) == 1


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
