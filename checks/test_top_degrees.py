"""The engine at the largest degrees its reference data cover.

Tier-1 compares every family's graph sums with ``golden/high_degree.json``
in degrees 13 to 16; here the same helper checks all of it, to degree 24.
Tier-1 enumerates graphs up to degree 6 and the benchmark at degree 7; here
every family is enumerated at degree 8, the largest degree ``hilb3 graphs``
accepts, and the totals are pinned.  Tier-1 compares the recursion with the
graph-by-graph sum up to degree 5; here every family is compared at degrees
6 and 7, at one point.  Tier-1 probes the recursion on the walls of degree
3; here the same probe runs at degree 6, the degree of the benchmark's
``invariant-d6``.
"""

from hilb3.graphs import automorphism_order, enumerate_graphs
from hilb3.localization import _stored_pass, forbidden_weights, graph_sum
from hilb3.scalars import sample_specializations

from oracles import FAMILIES, _enumerated_sum, check_high_degree, wall_passes


def test_graph_sums_to_degree_24_match_the_reference_file():
    graph_sum.cache_clear()
    _stored_pass.cache_clear()
    check_high_degree(24)


def test_graph_counts_and_symmetry_orders_at_degree_8():
    count = orders = 0
    for family in FAMILIES:
        graphs = enumerate_graphs(family, 8)
        count += len(graphs)
        orders += sum(automorphism_order(g) for g in graphs)
    enumerate_graphs.cache_clear()
    assert (count, orders) == (398382, 2270391)


def test_recursion_equals_enumeration_at_degrees_6_and_7():
    # 18,180 and 84,612 graphs, summed one at a time; the point is the one
    # the degree 6 to 8 pins of tier-1 are taken at.
    (point,) = sample_specializations(1, seed=29, forbidden=forbidden_weights(8))
    wrong = [
        f"{family.name} degree {d}"
        for d in (6, 7)
        for family in FAMILIES
        if graph_sum(family, d, point) != _enumerated_sum(family, d, point)
    ]
    enumerate_graphs.cache_clear()
    assert not wrong, ", ".join(wrong)


def test_passes_on_the_walls_of_degree_6_stop_exactly_where_they_did():
    # One pass per curve system at one point on each wall of
    # forbidden_weights(6): a degree-6 pass stops exactly where a form it
    # inverts vanishes, and the count pins that set.
    assert wall_passes(6) == (318, 1242)
