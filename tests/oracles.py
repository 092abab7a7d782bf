"""Reference routes that the tests and checks compare the engine against.

No ``hilb3`` command runs any of this.  Each route is written apart from the
production code it checks: the graph-by-graph localization sum
:func:`graph_contribution` over :func:`~hilb3.graphs.enumerate_graphs`
against the tree recursion of :func:`~hilb3.localization.graph_sum`, the
closed form :func:`edge_euler_closed` against
:func:`~hilb3.localization.edge_euler`, the multinomial expansion
:func:`_psi_vertex_oracle` against the vertex integral
:func:`psi_vertex_integral`, and the Pruefer-sequence enumeration
:func:`_brute_force_classes` against the canonical rooted growth of
``enumerate_graphs``.  Beside them sit the data several test modules share:
the 15 families, the golden commands and the reference file of graph sums in
degrees 13 to 24.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from hilb3.geometry import pair_weights, tangent_euler
from hilb3.graphs import (
    Edge,
    StableGraph,
    all_pair_families,
    all_punctual_families,
    automorphism_order,
    enumerate_graphs,
    pair_family,
)
from hilb3.invariants import _mark_factor
from hilb3.localization import edge_euler, forbidden_weights, graph_sum
from hilb3.scalars import (
    DegenerateSpecializationError,
    Rational,
    Specialization,
    evaluate_weight,
    invertible,
    positive_degree,
    sample_specializations,
)

FAMILIES = all_pair_families() + tuple(
    family for chart in range(3) for family in all_punctual_families(chart)
)

# The stdout of each command of ``COMMANDS``, plain and ``--json``, is
# recorded in ``GOLDEN``; the commands that sample specializations run at
# seed 7.
GOLDEN = Path(__file__).parent / "golden"

SEED = ["--seed", "7"]
PAIR_D2 = ["--family", "pair", "--i", "0", "--j", "1", "--d", "2"]

COMMANDS = {
    "catalog": ["catalog"],
    "graphs": ["graphs", *PAIR_D2],
    "graphsum": ["graphsum", *PAIR_D2, *SEED],
    "verify": ["verify", "--dmax", "4", "--specs", "5", *SEED],
    "reproduce": ["reproduce", *SEED],
    "table": ["table", "--dmax", "4", *SEED],
    "table_markdown": ["table", "--dmax", "4", "--markdown", *SEED],
    "table_two": ["table", "--dmax", "2", "--kind", "two", *SEED],
    "invariant": ["invariant", "--d", "6", "--points", "2", *SEED],
}


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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _psi_vertex_oracle(weights, total_points):
    """Vertex factor by expanding every psi-class monomial separately.

    A genus-zero moduli space with ``n`` special points integrates the
    monomial with exponents ``a_F`` to the multinomial coefficient
    ``(n-3)! / prod(a_F!)``; each flag also carries the geometric series
    ``1/w_F^(a_F + 1)``.
    """
    n = total_points
    total = Fraction(0)
    for exponents in _compositions(n - 3, len(weights)):
        coefficient = math.factorial(n - 3)
        for a in exponents:
            coefficient //= math.factorial(a)
        term = Fraction(coefficient)
        for w, a in zip(weights, exponents):
            term /= Fraction(w) ** (a + 1)
        total += term
    return total


def pochhammer(start: Rational, length: int) -> Rational:
    """Rising product ``start * (start + 1) * ... * (start + length - 1)``."""
    out = Fraction(1)
    for step in range(length):
        out *= start + step
    return out


def edge_euler_closed(i: int, j: int, degree: int, point: Specialization) -> Rational:
    """Closed form for the edge Euler factor of the curve joining charts i, j.

    Valid for the curves of residual pairs; provides an independent route to
    the same factor that :func:`edge_euler` computes term by term.  Where one
    of ``w_i, z_i, w_j, z_j, w_i - z_i`` vanishes it raises, as
    :func:`edge_euler` does, rather than return 0 or divide by zero.
    """
    wi, zi, wj, zj = (
        invertible(evaluate_weight(t, point), f"weight {t}", point)
        for t in pair_weights(i, j)
    )
    invertible(wi - zi, "w_i - z_i", point)
    d = positive_degree(degree)
    sign = -1 if d % 2 == 0 else 1
    numerator = sign * math.factorial(d - 1) ** 2 * wi * wj * zi * zj * (wi - zi) ** 2
    denominator = (wi + zi)
    denominator *= pochhammer(1 + Fraction(2 * d) * wi / (zi - wi), d - 1)
    denominator *= pochhammer(1 - d * (wi + zi) / Fraction(wi - zi), d - 1)
    return numerator / invertible(denominator, "closed-form edge denominator", point)


def psi_vertex_integral(weights: Sequence[Rational], total_points: int) -> Rational:
    """Integrate ``prod_F 1/(omega_F - psi_F)`` over ``total_points``-pointed
    genus-zero stable curves.

    ``weights`` lists the flag weights omega_F; marked points contribute to
    ``total_points`` but carry no weight factor.
    """
    if total_points < 3:
        raise ValueError("need at least three special points")
    if not 1 <= len(weights) <= total_points:
        raise ValueError("flag count must be between 1 and the point count")
    if any(value == 0 for value in weights):
        raise DegenerateSpecializationError("vanishing flag weight")
    inverses = [Fraction(1) / value for value in weights]
    return math.prod(inverses) * sum(inverses) ** (total_points - 3)


def mark_count(graph: StableGraph, vertex: int) -> int:
    """The number of the graph's two marks at ``vertex``."""
    return (graph.marks[0] == vertex) + (graph.marks[1] == vertex)


def graph_contribution(graph: StableGraph, point: Specialization) -> Rational:
    """Exact localization contribution of one stable graph."""
    value = Fraction(1, automorphism_order(graph))
    around: list[list[Edge]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        value /= edge_euler(edge.curve, edge.degree, point)
        around[edge.head].append(edge)
        around[edge.tail].append(edge)
    for vertex, label in enumerate(graph.vertices):
        omegas = []
        for edge in around[vertex]:
            tangent = evaluate_weight(edge.curve.tangent_at(label), point)
            omegas.append(invertible(tangent, "flag weight", point) / edge.degree)
        valence = len(omegas)
        special = valence + mark_count(graph, vertex)
        value *= tangent_euler(label, point) ** (valence - 1)
        if special >= 3:
            value *= psi_vertex_integral(omegas, special)
        elif valence == 2:
            value /= invertible(omegas[0] + omegas[1], "node smoothing weight", point)
        elif special == 1:
            value *= omegas[0]
    return value


def _enumerated_sum(family, d, point):
    """The graph sum one enumerated graph at a time: the oracle for the recursion."""
    return sum(
        (graph_contribution(g, point) for g in enumerate_graphs(family, d)), Fraction(0)
    )


def pair_family_term(d: int, i: int, j: int, spec: Specialization) -> Rational:
    """Weighted graph sum of the residual-pair family between charts i and j."""
    family = pair_family(i, j)
    return _mark_factor(*family.mark_labels, spec) * graph_sum(family, d, spec)


# Every family's graph sums in degrees 13..24 at two points, written as p/q
# by the pass on reduced integer pairs.
HIGH_DEGREE = GOLDEN / "high_degree.json"


def check_high_degree(top):
    """Compare every family's graph sums in degrees 13..``top`` with
    ``golden/high_degree.json``, naming each family, degree and point that
    differs.  Top degree first, so one pass per curve system and point
    serves every degree."""
    assert 13 <= top <= 24, top
    recorded = json.loads(HIGH_DEGREE.read_text())
    points = sample_specializations(2, seed=0, forbidden=forbidden_weights(24))
    assert [list(point.as_strings()) for point in points] == recorded["points"]
    assert sorted(recorded["sums"]) == sorted(family.name for family in FAMILIES)
    wrong = [
        f"{family.name} degree {d} at w={point.w}, z={point.z}: got {value}, recorded {expected}"
        for d in range(top, 12, -1)
        for family in FAMILIES
        for point, expected in zip(points, recorded["sums"][family.name][str(d)])
        if (value := graph_sum(family, d, point)) != Fraction(expected)
    ]
    assert not wrong, "\n".join(wrong)
