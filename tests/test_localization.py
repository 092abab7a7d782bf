"""Covering characters, Euler factors and vertex integrals.

The psi-class vertex factor has two independent derivations: the closed
product form that the graph-by-graph oracle ``graph_contribution`` uses, and
a term-by-term expansion whose coefficients are multinomials.  Both live in
``oracles.py``, the expansion written against the classical integral values
directly, and they must agree on randomized inputs.
"""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from hilb3.geometry import curve_catalog, curves_through, fixed_points, pair_curve
from hilb3.graphs import enumerate_graphs, pair_family, punctual_family
from hilb3 import localization, scalars
from hilb3.cli import main
from hilb3.invariants import two_point_pairing, verify_identities
from hilb3.localization import (
    _dot,
    _splitting,
    _stored_pass,
    edge_character,
    edge_euler,
    forbidden_weights,
    graph_sum,
)
from hilb3.scalars import (
    DegenerateSpecializationError,
    Specialization,
    Weight,
    evaluate_weight,
    sample_specializations,
)

from oracles import (
    FAMILIES,
    _enumerated_sum,
    _psi_vertex_oracle,
    check_high_degree,
    edge_euler_closed,
    graph_contribution,
    pochhammer,
    psi_vertex_integral,
    wall_passes,
)

POINT_13 = Specialization(Fraction(1), Fraction(3))


def test_psi_vertex_frozen_case():
    # Two flags of weights 1 and 2 with one extra marked point.
    assert _psi_vertex_oracle([1, 2], 4) == Fraction(3, 4)
    assert psi_vertex_integral([Fraction(1), Fraction(2)], 4) == Fraction(3, 4)


def test_psi_vertex_three_points_is_bare_product():
    weights = [Fraction(3), Fraction(-2), Fraction(5, 7)]
    assert psi_vertex_integral(weights, 3) == Fraction(1, 3) * Fraction(-1, 2) * Fraction(7, 5)


def test_psi_vertex_matches_expansion_oracle():
    rng = random.Random(7)
    for _ in range(100):
        flags = rng.randint(1, 5)
        extra = rng.randint(0, 8 - flags) if flags < 8 else 0
        n = flags + extra
        if n < 3:
            extra += 3 - n
            n = 3
        weights = []
        while len(weights) < flags:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if value != 0:
                weights.append(value)
        assert psi_vertex_integral(weights, n) == _psi_vertex_oracle(weights, n)


def test_psi_vertex_rejects_too_few_points():
    with pytest.raises(ValueError):
        psi_vertex_integral([Fraction(1)], 2)


@pytest.mark.parametrize(
    "weights, points, error, message",
    [
        ([], 3, ValueError, "flag count must be between 1 and the point count"),
        ([Fraction(1)] * 4, 3, ValueError, "flag count must be between 1 and the point count"),
        ([Fraction(1), Fraction(0)], 3, DegenerateSpecializationError, "vanishing flag weight"),
    ],
    ids=["no-flag", "more-flags-than-points", "zero-weight"],
)
def test_psi_vertex_refuses_flags_it_cannot_integrate(weights, points, error, message):
    with pytest.raises(error, match=message):
        psi_vertex_integral(weights, points)


def test_pochhammer_values():
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(3), 2) == 12
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_edge_character_ranks():
    # By Riemann-Roch, H^0 - H^1 of f^*T_X has rank 6 + d*c_1*C, and c_1
    # vanishes on the contracted curves; the left-out rotation makes it
    # 6 + d*c_1*C - 1 = 5 at every covering degree.
    for curve in curve_catalog():
        for degree in (1, 2, 3, 4):
            assert sum(mult for _, mult in edge_character(curve, degree).items()) == 5


def test_edge_characters_are_pinned():
    # SHA-256 of every curve's character in degrees 1..12, as the hand-written
    # covering tables of earlier versions gave it; the derivation must keep it.
    data = [
        (c.name, d, [(str(w), m) for w, m in edge_character(c, d).items()])
        for c in curve_catalog()
        for d in range(1, 13)
    ]
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "cbc38234e3b4401aa9cfccb82c4bc65f02353c2bf5418cfd0380103b54041a76"


def test_tangent_bundle_splits_with_the_curve_and_degree_zero():
    # Six line bundles, one the curve's own tangent bundle O(2).  The degrees
    # sum to c_1(T_X)*C = 0: the canonical class of Hilb^3 is pulled back from
    # Sym^3 and so vanishes on the curves Hilbert-Chow contracts.  A wrong
    # tangent weight at either end breaks the pairing or the sum.
    for curve in curve_catalog():
        bundles = _splitting(curve)
        assert len(bundles) == 6, curve
        assert (curve.tangents[0], 2) in bundles, curve
        assert sum(a for _, a in bundles) == 0, curve


def test_covering_characters_have_no_trivial_summand():
    # edge_euler takes the Euler class of the whole character.
    for curve in curve_catalog():
        for degree in range(1, 21):
            assert all(w != Weight(0, 0) for w, _ in edge_character(curve, degree).items())


def test_edge_euler_matches_closed_form_everywhere():
    points = sample_specializations(5, seed=3, forbidden=forbidden_weights(4))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            curve = pair_curve(i, j)
            for degree in (1, 2, 3, 4):
                for point in points:
                    assert edge_euler(curve, degree, point) == edge_euler_closed(
                        i, j, degree, point
                    )


def test_edge_euler_frozen_value():
    # Hand-expanded product over the four moving weights at (w, z) = (1, 3).
    assert edge_euler(pair_curve(0, 1), 1, POINT_13) == -6


def test_single_edge_graph_sum_is_reciprocal_euler():
    family = pair_family(0, 1)
    (graph,) = enumerate_graphs(family, 1)
    value = graph_contribution(graph, POINT_13)
    assert value == Fraction(1) / edge_euler(pair_curve(0, 1), 1, POINT_13)
    assert graph_sum(family, 1, POINT_13) == value


def test_graph_sum_adds_contributions():
    family = pair_family(0, 1)
    total = sum(graph_contribution(g, POINT_13) for g in enumerate_graphs(family, 2))
    assert graph_sum(family, 2, POINT_13) == total


def test_degenerate_specialization_is_detected():
    # (w, z) = (1, 1) sits on the wall w - z = 0 shared by many characters.
    wall = Specialization(Fraction(1), Fraction(1))
    with pytest.raises(DegenerateSpecializationError):
        graph_sum(pair_family(0, 1), 1, wall)


def test_forbidden_weights_census():
    weights = forbidden_weights(4)
    assert len(weights) == 66
    assert Weight(0, 0) not in weights
    # Growing the degree bound only adds new walls.
    assert set(forbidden_weights(2)) <= set(weights)


def test_forbidden_weights_list_each_wall_once_in_primitive_form():
    for d in range(1, 13):
        weights = forbidden_weights(d)
        pairs = [(w.a, w.b) for w in weights]
        assert pairs == sorted(set(pairs)), d
        assert set(pairs) == scalars._walls(weights), d
    assert [len(forbidden_weights(d)) for d in range(1, 7)] == [6, 24, 42, 66, 108, 138]


@pytest.mark.parametrize("d", [0, -2])
def test_forbidden_weights_reject_nonpositive_degree(d):
    with pytest.raises(ValueError, match="degree must be positive"):
        forbidden_weights(d)


def test_forbidden_weights_make_sampling_safe():
    for point in sample_specializations(4, seed=11, forbidden=forbidden_weights(3)):
        for family in (pair_family(0, 1), punctual_family(0, 1, 2)):
            graph_sum(family, 3, point)


def _weight_walls(d_max):
    """The walls of degree ``d_max`` as Weights: the edge characters' weights and
    the node smoothings ``d2*t1 + d1*t2``, each reduced by the sampler's rule."""
    forms = [
        weight
        for curve in curve_catalog()
        for degree in range(1, d_max // curve.beta + 1)
        for weight, _ in edge_character(curve, degree).items()
    ]
    for label in fixed_points():
        ends = [
            (curve.tangent_at(label), degree)
            for curve in curves_through(label)
            for degree in range(1, d_max // curve.beta + 1)
        ]
        forms += [t1.scaled(d2) + t2.scaled(d1) for t1, d1 in ends for t2, d2 in ends]
    return tuple(Weight(a, b) for a, b in sorted(scalars._walls(forms) - {(0, 0)}))


def test_forbidden_weights_are_the_walls_of_the_weight_route():
    # forbidden_weights reduces integer rows; the route through Weight and
    # Fraction objects must list the same walls in the same order.
    for d in range(1, 13):
        assert forbidden_weights(d) == _weight_walls(d), d


nonzero = st.fractions(-40, 40, max_denominator=36).filter(bool)


@given(st.sampled_from(curve_catalog()), st.integers(1, 6), nonzero, nonzero)
@settings(max_examples=60, deadline=None)
def test_edge_euler_is_the_euler_class_of_the_edge_character(curve, degree, w, z):
    point = Specialization(w, z)
    try:
        expected = edge_character(curve, degree).euler(point)
    except DegenerateSpecializationError as exc:
        with pytest.raises(DegenerateSpecializationError, match=f"^{re.escape(str(exc))}$"):
            edge_euler.__wrapped__(curve, degree, point)
        return
    value = edge_euler.__wrapped__(curve, degree, point)
    assert type(value) is Fraction
    assert value == expected


def test_a_point_on_a_wall_raises_naming_the_vanishing_weight():
    # One point on each covering weight's wall, for every curve in degrees
    # 1..4: the integer route stops as the Weight route does, with its message.
    for curve in curve_catalog():
        for degree in range(1, 5):
            for weight, _ in edge_character(curve, degree).items():
                wall = Specialization(weight.b, -weight.a)
                with pytest.raises(DegenerateSpecializationError) as old:
                    edge_character(curve, degree).euler(wall)
                with pytest.raises(DegenerateSpecializationError) as new:
                    edge_euler.__wrapped__(curve, degree, wall)
                assert str(new.value) == str(old.value), (curve.name, degree, weight)
    with pytest.raises(DegenerateSpecializationError) as caught:
        edge_euler(pair_curve(0, 1), 2, Specialization(Fraction(1), Fraction(-3)))
    assert str(caught.value) == "weight -3/2*w + -1/2*z vanishes at w=1, z=-3"


@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 4), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_closed_euler_agrees_on_random_specializations(i, j, degree, seed):
    if i == j:
        return
    point = sample_specializations(1, seed=seed, forbidden=forbidden_weights(4))[0]
    assert edge_euler(pair_curve(i, j), degree, point) == edge_euler_closed(
        i, j, degree, point
    )


def _or_refused(route, *args):
    try:
        return route(*args)
    except DegenerateSpecializationError:
        return "refused"


def test_closed_euler_refuses_where_the_engine_refuses():
    # One point (b, -a) on each wall a*w + b*z = 0 of degree 6, every pair
    # curve, d = 1..6: the closed form must neither return 0 nor divide by
    # zero where the engine raises.
    outcomes = {}
    for wall in forbidden_weights(6):
        point = Specialization(wall.b, -wall.a)
        for i, j in permutations(range(3), 2):
            for degree in range(1, 7):
                engine = _or_refused(edge_euler.__wrapped__, pair_curve(i, j), degree, point)
                closed = _or_refused(edge_euler_closed, i, j, degree, point)
                key = (engine == "refused", engine == closed)
                outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {(True, True): 324, (False, True): 4644}


def _clear_sums():
    """Empty the graph sums and the stored passes, so the recursion itself runs."""
    graph_sum.cache_clear()
    _stored_pass.cache_clear()


def _clear_point_caches():
    """Empty every cache keyed by a specialization."""
    _clear_sums()
    edge_euler.cache_clear()


def test_recursion_matches_enumeration_oracle():
    points = sample_specializations(2, seed=29, forbidden=forbidden_weights(5))
    assert len(FAMILIES) == 15
    oracle = {
        (family, d, point): _enumerated_sum(family, d, point)
        for family in FAMILIES
        for d in range(1, 6)
        for point in points
    }
    # Ascending, every degree runs its own pass; top first, one degree-5 pass
    # per curve system and point serves degrees 1 to 4.
    for degrees in ((1, 2, 3, 4, 5), (5, 1, 2, 3, 4)):
        _clear_sums()
        for d in degrees:
            for family in FAMILIES:
                for point in points:
                    assert graph_sum(family, d, point) == oracle[family, d, point], (
                        f"{family.name} degree {d} at w={point.w}, z={point.z}, "
                        f"degrees in the order {degrees}"
                    )
        for family in FAMILIES:
            for point in points:
                assert _stored_pass(family.curves, point).top == 5


# Graph sums in degrees 6, 7 and 8, past the enumeration oracle's reach,
# at the first point of sample_specializations(1, seed=29,
# forbidden=forbidden_weights(8)), as computed by the power-table form of
# the recursion, which summed each vertex's children through G^r / r!.
PINNED_SUMS = {
    "pair(0,1)": (
        "90662538375/6659013826551488",
        "271987615125/23306548392930208",
        "271987615125/26636055306205952",
    ),
    "pair(0,2)": (
        "12251694375/7750655437461568",
        "36755083125/27127294031115488",
        "36755083125/31002621749846272",
    ),
    "pair(1,0)": (
        "184643875/7809597976984",
        "553931625/27333592919444",
        "553931625/31238391907936",
    ),
    "pair(1,2)": (
        "-923219375/375372807680608",
        "-2769658125/1313804826882128",
        "-2769658125/1501491230722432",
    ),
    "pair(2,0)": (
        "-2346500225/6709654599944",
        "-7039500675/23483791099804",
        "-7039500675/26838618399776",
    ),
    "pair(2,1)": (
        "86820508325/277080384324448",
        "260461524975/969781345135568",
        "260461524975/1108321537297792",
    ),
    "punctual(0;0,1)": (
        "-1361299375/901316593766342",
        "-4083898125/10835011619780558",
        "17050274671875/13361117185992253808",
    ),
    "punctual(0;0,2)": (
        "-10073615375/774370594644322",
        "-30220846125/3156406422746122",
        "-37564511733375/6684366972969787504",
    ),
    "punctual(0;1,2)": (
        "50368076875/74441133885152528",
        "0",
        "-151104230625/148882267770305056",
    ),
    "punctual(1;0,1)": (
        "1263887324375/480590304581994912",
        "1263887324375/2684641188946191216",
        "-3216593240534375/1187378445853915429248",
    ),
    "punctual(1;0,2)": (
        "-252777464875/9998638669679976",
        "-252777464875/9745030457335152",
        "-207530298662375/6879063404739823488",
    ),
    "punctual(1;1,2)": (
        "-34159116875/23275519526140272",
        "0",
        "34159116875/15517013017426848",
    ),
    "punctual(2;0,1)": (
        "2170512708125/279847241577966816",
        "-2170512708125/910286914572947184",
        "-7203931678266875/402606898216834925952",
    ),
    "punctual(2;0,2)": (
        "-58662505625/6776655577092648",
        "58662505625/11342576433947472",
        "123836549374375/4662339037039741824",
    ),
    "punctual(2;1,2)": (
        "-434102541625/11644394090215536",
        "0",
        "434102541625/7762929393477024",
    ),
}


def test_graph_sums_past_the_oracle_are_pinned():
    (point,) = sample_specializations(1, seed=29, forbidden=forbidden_weights(8))
    assert sorted(PINNED_SUMS) == sorted(family.name for family in FAMILIES)
    # Ascending from cold, each degree runs its own pass.
    _clear_sums()
    for n, d in enumerate((6, 7, 8)):
        for family in FAMILIES:
            assert graph_sum(family, d, point) == Fraction(PINNED_SUMS[family.name][n]), (
                f"{family.name} degree {d}"
            )


def test_graph_sums_to_degree_10_at_two_points_are_pinned():
    # SHA-256 of every family's graph sums in degrees 1..10 at two points, as
    # the pass gave them when it added each row's products one k at a time.
    points = (
        Specialization(Fraction(-41, 19), Fraction(-13, 67)),
        Specialization(Fraction(-83, 61), Fraction(-23, 89)),
    )
    _clear_sums()
    data = [
        (family.name, d, point.as_strings(), str(graph_sum(family, d, point)))
        for point in points
        for family in FAMILIES
        for d in range(10, 0, -1)
    ]
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "09d672c39e8eb863b7e06b41a10c245c9542ca85107a1cce8672567c3831b8ae"


def test_graph_sums_in_degrees_11_and_12_at_two_points_are_pinned():
    # SHA-256 of every family's graph sums in degrees 11 and 12 at the two
    # points above, as the pass gave them when it ran on Fraction objects.
    # Ascending from cold, each degree runs its own pass.
    points = (
        Specialization(Fraction(-41, 19), Fraction(-13, 67)),
        Specialization(Fraction(-83, 61), Fraction(-23, 89)),
    )
    _clear_sums()
    data = [
        (family.name, d, point.as_strings(), str(graph_sum(family, d, point)))
        for d in (11, 12)
        for point in points
        for family in FAMILIES
    ]
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "964288e9f4bf1362358daa0e2eb5378d4fa87810a3bc7e1f1d31e5a7c45f65ec"


def test_graph_sums_in_degrees_13_to_16_match_the_reference_file():
    # Continuous integration checks the file to degree 24.
    _clear_sums()
    check_high_degree(16)


def test_graph_sums_are_fractions_even_when_empty():
    # Inside the pass a value is an integer pair or the int 0; every value it
    # returns, the empty families' zeros included, is still a Fraction.
    points = sample_specializations(2, seed=5, forbidden=forbidden_weights(6))
    zeros = []
    for point in points:
        for family in FAMILIES:
            for d in range(6, 0, -1):
                value = graph_sum(family, d, point)
                assert type(value) is Fraction, (family.name, d)
                if value == 0:
                    zeros.append((family.name, d))
    assert ("punctual(0;1,2)", 1) in zeros


def test_recursion_matches_the_oracle_where_denominators_are_composite_and_shared():
    # Sampled points have prime denominators.  Here 35 and 21 share the
    # factor 7, and weights and Euler factors are formed from unreduced
    # integer parts and reduced once; every sum must still be the oracle's.
    point = Specialization(Fraction(-6, 35), Fraction(10, 21))
    assert 0 not in (point.w, point.z, point.w - point.z)
    assert all(evaluate_weight(form, point) != 0 for form in forbidden_weights(3))
    _clear_sums()
    for d in (1, 2, 3):
        for family in FAMILIES:
            value = graph_sum(family, d, point)
            assert type(value) is Fraction, (family.name, d)
            assert value == _enumerated_sum(family, d, point), (family.name, d)


def test_point_values_fold_each_edge_share_into_its_kid_series_and_node_factors():
    # Each flag is one end of one cover: its far flag is the other end of
    # the same curve and degree, and it sits at its end's label.  Each
    # flag's series is kept only for the t-degrees the pass reads, its kid
    # series is the series times the edge share, and each node factor
    # carries the share of the flag hanging below the node, all as reduced
    # pairs at a point whose denominators are composite and shared.
    top, point = 3, Specialization(Fraction(-6, 35), Fraction(10, 21))
    curves = punctual_family(0, 0, 1).curves
    flags = localization._layout(curves, top)
    localization._point_values(top, flags, [point])
    numbered = {f.index: f for here in flags.values() for f in here}
    assert sorted(numbered) == list(range(len(numbered)))
    for label, here in flags.items():
        for f in here:
            far = numbered[f.far]
            assert (far.curve, far.degree, far.end, far.far) == (f.curve, f.degree, 1 - f.end, f.index)
            assert f.cost == f.curve.beta * f.degree
            assert f.curve.endpoints[f.end] == label

    def exact(pair):
        num, den = pair
        assert den > 0 and gcd(num, den) == 1, pair
        return Fraction(num, den)

    def only(column):
        # A column of a one-point batch holds that point's value alone.
        assert len(column) == 1, column
        return column[0]

    for here in flags.values():
        for f in here:
            omega, share = exact(only(f.weight)), exact(only(f.edge))
            series, weighted = list(map(only, f.series)), list(map(only, f.weighted))
            nodes = list(map(only, f.nodes))
            assert len(series) == len(weighted) == top - f.cost
            for s, (term, kid) in enumerate(zip(series, weighted)):
                assert exact(term) == 1 / (omega ** (s + 1) * factorial(s))
                assert exact(kid) == share * exact(term)
            assert len(nodes) == f.width
            for node, g in zip(nodes, here):
                other, below = only(g.weight), only(g.edge)
                assert exact(node) == exact(below) / (omega + exact(other))


_PRIME = 2 ** 61 - 1


def _residue(num, den=1):
    """``num/den`` mod :data:`_PRIME`."""
    return num * pow(den, -1, _PRIME) % _PRIME


def _residue_dot(groups, divisor=1):
    """:func:`localization._dot` over residues: each value is ``(r, 1)``."""
    terms = [(k, xs, ys) for k, pairs in groups for xs, ys in pairs if xs and ys]
    if not terms:
        return 0
    sums = tuple(
        _residue(sum(k * xs[i][0] * ys[i][0] for k, xs, ys in terms if xs[i] and ys[i]), divisor)
        for i in range(len(terms[0][1]))
    )
    sums = tuple((r, 1) if r else 0 for r in sums)
    return sums if any(sums) else 0


def test_every_pass_value_is_built_by_reduced_or_dot(monkeypatch):
    # With _reduced and _dot computing residues mod a prime, every graph sum
    # of the pass, over nine curve systems, two points and degrees 1..8,
    # must be the exact one reduced mod the prime.  A value the pass built
    # any other way would not be a residue, and the sums it feeds would differ.
    points = sample_specializations(2, seed=29, forbidden=forbidden_weights(8))
    systems = sorted({family.curves for family in FAMILIES}, key=repr)
    exact = {curves: localization._recursion_pass(curves, 8, points) for curves in systems}
    monkeypatch.setattr(localization, "_reduced", lambda num, den: (_residue(num, den), 1))
    monkeypatch.setattr(localization, "_dot", _residue_dot)
    compared = 0
    for curves in systems:
        modular = localization._recursion_pass(curves, 8, points)
        for point in points:
            for placement, sums in exact[curves][point].items():
                assert [_residue(v.numerator, v.denominator) for v in modular[point][placement]] == [
                    _residue(v.numerator, v.denominator) for v in sums
                ], ([c.name for c in curves], placement)
                compared += len(sums)
    assert len(systems) == 9 and compared == 240


def _fraction_dot(groups, divisor=1):
    """The sum of ``k * x * y / divisor`` in plain Fraction arithmetic, one reduction per step."""
    total = sum((k * Fraction(x) * y for k, pairs in groups for x, y in pairs), Fraction(0))
    return total / divisor


def _column(values):
    """An operand's values at the points of a batch as the pass holds them: a
    tuple of reduced pairs ``(num, den)`` with ``den > 0`` and ints 0, or
    the int 0 when every value is zero."""
    def pair(x):
        x = Fraction(x)
        return (x.numerator, x.denominator) if x else 0
    return tuple(map(pair, values)) if any(values) else 0


def _pairs(groups):
    """The groups with each operand as a one-point pass holds it."""
    return [(k, [(_column([x]), _column([y])) for x, y in pairs]) for k, pairs in groups]


def _as_fraction(value):
    """A nonzero one-point :func:`_dot` result, which must be a reduced pair,
    as a Fraction."""
    ((num, den),) = value
    assert den > 0 and gcd(num, den) == 1, value
    return Fraction(num, den)


@pytest.mark.parametrize(
    "pairs",
    [
        [(2, Fraction(1, 3)), (Fraction(-5, 6), 4), (3, 7), (1, 1)],
        [
            (Fraction(1, 6), Fraction(5, 7)),
            (Fraction(-1, 6), Fraction(2, 7)),
            (Fraction(1, 2), Fraction(3, 7)),
        ],
        [(Fraction(7, 10), Fraction(3, 4)), (0, Fraction(9, 11)), (Fraction(-2, 15), 5)],
    ],
    ids=["mixed-ints", "equal-denominators", "zero-operand"],
)
def test_dot_is_fraction_arithmetic_on_small_cases(pairs):
    value = _dot(_pairs([(1, pairs)]))
    assert _as_fraction(value) == _fraction_dot([(1, pairs)])
    # The same pairs split into weighted groups, over a divisor.
    groups = [(3, pairs[:1]), (-2, pairs[1:])]
    assert _as_fraction(_dot(_pairs(groups), 6)) == _fraction_dot(groups, 6)


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [(0, Fraction(2, 3)), (Fraction(5, 7), 0)],
        [(Fraction(1, 6), Fraction(5, 7)), (Fraction(-5, 6), Fraction(1, 7))],
        [
            (Fraction(2, 3), Fraction(9, 4)),
            (-3, Fraction(1, 2)),
            (Fraction(7, 5), Fraction(0)),
            (Fraction(-1, 9), 27),
            (Fraction(3, 4), 4),
        ],
    ],
    ids=["empty", "zero-operands", "equal-denominators", "mixed-denominators"],
)
def test_dot_gives_a_falsy_zero_when_the_terms_cancel(pairs):
    assert _fraction_dot([(1, pairs)]) == 0
    value = _dot(_pairs([(1, pairs)]), 5)
    assert not value
    assert value == 0


def test_dot_weights_can_cancel_equal_terms():
    # k/N-weighted terms that cancel only through their weights.
    pairs = [(((1, 6),), ((5, 7),))]
    assert _dot([(2, pairs), (1, pairs + pairs), (-4, pairs)], 3) == 0


# Operand values of every kind the pass multiplies, ints, zeros and fractions;
# each test hands them to _dot as the pass holds them.
operands = st.one_of(
    st.integers(-30, 30), st.just(0), st.fractions(-30, 30, max_denominator=60)
)
# A batch of 1 to 4 points and groups of pairs, each operand with a value at
# every point, with the int weights the pass gives them: 1, -1 and k.
batches = st.integers(1, 4).flatmap(lambda count: st.tuples(st.just(count), st.lists(
    st.tuples(st.integers(-12, 12), st.lists(st.tuples(
        st.lists(operands, min_size=count, max_size=count),
        st.lists(operands, min_size=count, max_size=count),
    ), max_size=6)),
    max_size=4,
)))


@given(batches, st.integers(1, 12))
def test_dot_is_fraction_arithmetic(batch, divisor):
    # At each point of the batch, the sum of that point's terms.
    count, groups = batch
    value = _dot(
        [(k, [(_column(xs), _column(ys)) for xs, ys in pairs]) for k, pairs in groups], divisor
    )
    expected = [
        _fraction_dot([(k, [(xs[n], ys[n]) for xs, ys in pairs]) for k, pairs in groups], divisor)
        for n in range(count)
    ]
    if any(expected):
        assert [_as_fraction((v,)) if v else 0 for v in value] == expected
    else:
        assert value == 0 and type(value) is int


def test_a_pass_builds_one_fraction_per_placement_and_degree(monkeypatch):
    # Inside a pass every value is a reduced integer pair; the one Fraction
    # per point, placement and degree is the graph sum it returns.  The edge
    # Euler factors are cached Fractions, so they are warmed by a first pass.
    points = sample_specializations(3, seed=13, forbidden=forbidden_weights(6))
    systems = sorted({family.curves for family in FAMILIES}, key=repr)
    expected = {curves: localization._recursion_pass(curves, 6, points) for curves in systems}
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(localization, "Fraction", Counted)
    for curves in systems:
        built.clear()
        totals = localization._recursion_pass(curves, 6, points)
        assert totals == expected[curves]
        placements = len(totals[points[0]])
        assert len(built) == 6 * placements * len(points), [c.name for c in curves]
        assert all(
            type(value) is Counted
            for point in points for sums in totals[point].values() for value in sums
        )


def test_a_batch_equals_passes_of_one_point():
    points = sample_specializations(3, seed=31, forbidden=forbidden_weights(8))
    systems = {family.curves for family in FAMILIES}
    assert len(systems) == 9
    for curves in systems:
        batch = localization._recursion_pass(curves, 8, points)
        assert batch == {
            point: localization._recursion_pass(curves, 8, [point])[point] for point in points
        }, [c.name for c in curves]


def test_failed_pass_is_not_stored():
    # 6w - z vanishes at (w, z) = (-1, -6).  It is a wall of degree 3 only,
    # and the degree-3 recursion on pair(1,0) inverts it.
    _clear_sums()
    wall = Specialization(Fraction(-1), Fraction(-6))
    assert all(evaluate_weight(form, wall) != 0 for form in forbidden_weights(2))
    assert any(evaluate_weight(form, wall) == 0 for form in forbidden_weights(3))
    family = pair_family(1, 0)
    with pytest.raises(DegenerateSpecializationError):
        graph_sum(family, 3, wall)
    assert _stored_pass(family.curves, wall).top == 0
    assert graph_sum(family, 2, wall) == _enumerated_sum(family, 2, wall)
    assert _stored_pass(family.curves, wall).top == 2


def test_a_wall_point_fails_its_whole_batch():
    # The degree-3 pass on pair(1,0) inverts 6w - z, which vanishes at
    # (w, z) = (-1, -6).  A batch that holds that point raises, and every
    # point's stored pass keeps the degree it had; each admissible point
    # then runs on its own, and the wall point alone raises the same error.
    _clear_sums()
    wall = Specialization(Fraction(-1), Fraction(-6))
    first, second = sample_specializations(2, seed=17, forbidden=forbidden_weights(3))
    family = pair_family(1, 0)
    assert graph_sum(family, 2, first) == _enumerated_sum(family, 2, first)
    with pytest.raises(DegenerateSpecializationError, match="vanishes at w=-1, z=-6$") as caught:
        localization.fill_passes([(family.curves, point) for point in (first, wall, second)], 3)
    assert [_stored_pass(family.curves, p).top for p in (first, wall, second)] == [2, 0, 0]
    with pytest.raises(DegenerateSpecializationError, match=f"^{re.escape(str(caught.value))}$"):
        graph_sum(family, 3, wall)
    for point in (first, second):
        assert graph_sum(family, 3, point) == _enumerated_sum(family, 3, point)


@pytest.fixture
def passes(monkeypatch):
    """The degree and point count of every recursion pass run from cold
    point caches on."""
    _clear_point_caches()
    batches = []
    recursion_pass = localization._recursion_pass

    def counted(curves, top, points):
        batches.append((top, len(points)))
        return recursion_pass(curves, top, points)

    monkeypatch.setattr(localization, "_recursion_pass", counted)
    return batches


def _per_pair(batches):
    """The degree of the pass run on each (curve system, point)."""
    return [top for top, size in batches for _ in range(size)]


@pytest.mark.parametrize("d_max", [2, 4])
def test_verify_runs_one_pass_per_curve_system_and_point(passes, d_max):
    assert all(check.passed for check in verify_identities(d_max, 20, seed=101))
    assert _per_pair(passes) == [d_max] * (9 * 20)
    assert graph_sum.cache_info().misses == 15 * d_max * 20


@pytest.mark.parametrize(
    "argv, expected",
    [
        # 3 points x 8 curve systems: the pairing skips the chart-0
        # triangle, whose mark factors vanish.
        (["table", "--dmax", "4"], 24),
        # verify's 5 points x 9 systems, run before the pairings, whose
        # 3 points are verify's first.
        (["reproduce"], 45),
    ],
    ids=["table", "reproduce"],
)
def test_table_and_reproduce_run_one_pass_per_curve_system_and_point(
    passes, capsys, argv, expected
):
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    assert _per_pair(passes) == [4] * expected


@pytest.mark.parametrize(
    "run, top, systems",
    [
        (lambda count: all(c.passed for c in verify_identities(4, count, seed=101)), 4, 9),
        # The pairing skips the chart-0 triangle, whose mark factors vanish.
        (lambda count: two_point_pairing(2, count).value == Fraction(81, 2), 2, 8),
    ],
    ids=["verify", "pairing"],
)
def test_a_store_with_room_for_one_batch_runs_each_pass_once(
    passes, monkeypatch, run, top, systems
):
    # Points are read one batch at a time, so a pass cache with room for one
    # batch on each of the nine curve systems still runs each pass once,
    # with more points than one batch holds.
    bound = localization._PASS_BATCH_SIZE
    small = lru_cache(maxsize=9 * bound)(localization._stored_pass.__wrapped__)
    monkeypatch.setattr(localization, "_stored_pass", small)
    assert run(bound + 5)
    assert _per_pair(passes) == [top] * (systems * (bound + 5))
    assert sorted({size for _, size in passes}) == [5, bound]


def test_the_walk_fills_one_batch_at_a_time_and_stored_pairs_are_skipped(passes):
    bound = localization._PASS_BATCH_SIZE
    points = sample_specializations(2 * bound + 1, seed=19, forbidden=forbidden_weights(2))
    family = pair_family(0, 1)
    # A system named twice at a point runs once; each batch's pass runs
    # just before its first point is yielded.
    walk = localization.in_batches(points, lambda point: [family.curves] * 2, 1)
    seen = [(point, len(passes)) for point in walk]
    assert [point for point, _ in seen] == points
    assert [count for _, count in seen] == [1] * bound + [2] * bound + [3]
    assert passes == [(1, bound), (1, bound), (1, 1)]
    # fill_passes skips stored pairs and runs the rest as one pass per system.
    keys = [(family.curves, point) for point in points]
    localization.fill_passes(keys + keys, 1)
    localization.fill_passes(keys[:3] + keys[:3], 2)
    assert passes[3:] == [(2, 3)]


def test_point_caches_are_bounded_and_never_evict_in_verify():
    _clear_point_caches()
    assert all(check.passed for check in verify_identities(4, 20, seed=102))
    for cache in (graph_sum, _stored_pass, edge_euler):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.misses == info.currsize < info.maxsize, cache.__name__


def test_graph_sum_rejects_nonpositive_degree():
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive"):
            graph_sum(pair_family(0, 1), d, POINT_13)


def test_degenerate_walls_raise_and_never_divide_by_zero():
    # On each wall a*w + b*z = 0 the recursion may stop, but only with
    # DegenerateSpecializationError, and at least wherever enumeration
    # stops; where it does not stop it agrees with enumeration.
    _clear_sums()
    stopped = 0
    for form in forbidden_weights(2):
        wall = Specialization(form.b, -form.a)
        for family in FAMILIES:
            try:
                oracle = _enumerated_sum(family, 2, wall)
            except DegenerateSpecializationError:
                oracle = None
            try:
                value = graph_sum(family, 2, wall)
            except DegenerateSpecializationError:
                stopped += 1
                continue
            assert oracle is not None, f"{family.name} missed the wall {form}"
            assert value == oracle, f"{family.name} on the wall {form}"
    assert stopped > 0


def test_passes_on_the_walls_stop_exactly_where_they_did():
    # One pass per curve system at one point on each wall of
    # forbidden_weights(3).  A degree-3 pass stops at a point exactly when a
    # form it inverts vanishes there; the count pins that set, so inverting
    # more or fewer forms fails here.
    assert wall_passes(3) == (108, 378)
