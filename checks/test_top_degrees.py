"""The engine at the largest degrees its reference data cover.

Tier-1 compares every family's graph sums with ``golden/high_degree.json``
in degrees 13 to 16; here the same helper checks all of it, to degree 24.
Tier-1 enumerates graphs up to degree 6 and the benchmark at degree 7; here
every family is enumerated at degree 8, the largest degree ``hilb3 graphs``
accepts, and the totals are pinned.
"""

from hilb3.graphs import automorphism_order, enumerate_graphs
from hilb3.localization import _stored_pass, graph_sum

from oracles import FAMILIES, check_high_degree


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
