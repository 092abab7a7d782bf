"""Covering characters, Euler factors and vertex integrals.

The psi-class vertex factor has two independent derivations: the closed
product form used by the engine, and a term-by-term expansion whose
coefficients are multinomials.  The expansion oracle lives here, written
against the classical integral values directly, and the engine must agree
with it on randomized inputs.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hilb3.geometry import pair_curve, punctual_curve, curve_catalog
from hilb3.graphs import (
    all_pair_families,
    all_punctual_families,
    enumerate_graphs,
    pair_family,
    punctual_family,
)
from hilb3 import localization, scalars
from hilb3.cli import main
from hilb3.invariants import verify_identities
from hilb3.localization import (
    _dot,
    _stored_pass,
    edge_character,
    edge_euler,
    edge_euler_closed,
    forbidden_weights,
    graph_contribution,
    graph_sum,
    pochhammer,
    psi_vertex_integral,
)
from hilb3.scalars import (
    DegenerateSpecializationError,
    Specialization,
    evaluate_weight,
    sample_specializations,
)

POINT_13 = Specialization(Fraction(1), Fraction(3))

FAMILIES = all_pair_families() + tuple(
    family for chart in range(3) for family in all_punctual_families(chart)
)


def _enumerated_sum(family, d, point):
    """The graph sum one enumerated graph at a time: the oracle for the recursion."""
    return sum(
        (graph_contribution(g, point) for g in enumerate_graphs(family, d)), Fraction(0)
    )


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
        coefficient = factorial(n - 3)
        for a in exponents:
            coefficient //= factorial(a)
        term = Fraction(coefficient)
        for w, a in zip(weights, exponents):
            term /= Fraction(w) ** (a + 1)
        total += term
    return total


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


def test_pochhammer_values():
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(3), 2) == 12
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_edge_character_ranks():
    # The covering character has constant virtual rank in the covering
    # degree: the extra group blocks cancel in pairs.  The common value is
    # one less than the dimension of the ambient space.
    for curve in curve_catalog():
        for degree in (1, 2, 3, 4):
            assert edge_character(curve, degree).rank() == 5


def test_covering_characters_have_no_trivial_summand():
    # edge_euler takes the Euler class of the whole character.
    for curve in curve_catalog():
        for degree in range(1, 21):
            character = edge_character(curve, degree)
            assert character == character.moving_part()


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
    assert all(not w.is_zero() for w in weights)
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


@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 4), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_closed_euler_agrees_on_random_specializations(i, j, degree, seed):
    if i == j:
        return
    point = sample_specializations(1, seed=seed, forbidden=forbidden_weights(4))[0]
    assert edge_euler(pair_curve(i, j), degree, point) == edge_euler_closed(
        i, j, degree, point
    )


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


def test_graph_sums_are_fractions_even_when_empty():
    # The pass seeds its sums with ints; every value it returns, the empty
    # families' zeros included, is still a Fraction.
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


def _fraction_dot(pairs):
    """The sum of ``x * y`` in plain Fraction arithmetic, one reduction per step."""
    return sum((Fraction(x) * y for x, y in pairs), Fraction(0))


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
    value = _dot(pairs)
    assert type(value) is Fraction
    assert value == _fraction_dot(pairs)


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
    assert _fraction_dot(pairs) == 0
    value = _dot(pairs)
    assert not value
    assert value == 0


# Operands of every kind the pass multiplies: ints, zeros and fractions.
operands = st.one_of(
    st.integers(-30, 30), st.just(0), st.fractions(-30, 30, max_denominator=60)
)


@given(st.lists(st.tuples(operands, operands), max_size=12))
def test_dot_is_fraction_arithmetic(pairs):
    value = _dot(pairs)
    expected = _fraction_dot(pairs)
    assert value == expected
    if expected:
        assert type(value) is Fraction
    else:
        assert not value


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


@pytest.fixture
def passes(monkeypatch):
    """The degree of every recursion pass run from cold point caches on."""
    _clear_point_caches()
    tops = []
    recursion_pass = localization._recursion_pass

    def counted(curves, top, point):
        tops.append(top)
        return recursion_pass(curves, top, point)

    monkeypatch.setattr(localization, "_recursion_pass", counted)
    return tops


@pytest.mark.parametrize("d_max", [2, 4])
def test_verify_runs_one_pass_per_curve_system_and_point(passes, d_max):
    assert all(check.passed for check in verify_identities(d_max, 20, seed=101))
    assert passes == [d_max] * (9 * 20)
    assert graph_sum.cache_info().misses == 15 * d_max * 20


@pytest.mark.parametrize(
    "argv, expected",
    [
        # 3 points x 8 curve systems: the pairing skips the chart-0
        # triangle, whose mark factors vanish.
        (["table", "--dmax", "4"], 24),
        # verify's 5 points x 9 systems; its first 3 points are the
        # pairing's, whose 24 passes it reuses.
        (["reproduce"], 45),
    ],
    ids=["table", "reproduce"],
)
def test_table_and_reproduce_run_one_pass_per_curve_system_and_point(
    passes, capsys, argv, expected
):
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    assert passes == [4] * expected


def test_verify_needs_room_for_one_points_passes_only(passes, monkeypatch):
    # verify walks one point at a time, top degree first, so a pass cache
    # with room for one point's nine passes still runs each pass once.
    small = lru_cache(maxsize=9)(localization._stored_pass.__wrapped__)
    monkeypatch.setattr(localization, "_stored_pass", small)
    assert all(check.passed for check in verify_identities(4, 5, seed=101))
    assert passes == [4] * (9 * 5)


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
    # One point on each wall of forbidden_weights(3).  A degree-3 pass on a
    # curve system stops there exactly when a form it inverts vanishes; the
    # count pins that set, so inverting more or fewer forms fails here.  A
    # form vanishes at a multiple of a point exactly when it vanishes at the
    # point, so one point per wall probes every form.
    systems = {family.curves for family in FAMILIES}
    assert len(systems) == 9
    stopped = total = 0
    for form in forbidden_weights(3):
        wall = Specialization(form.b, -form.a)
        for curves in systems:
            total += 1
            try:
                localization._recursion_pass(curves, 3, wall)
            except DegenerateSpecializationError:
                stopped += 1
    assert (stopped, total) == (108, 378)
