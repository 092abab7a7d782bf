"""Weight arithmetic, virtual characters and specialization sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hilb3 import fock, scalars
from hilb3.geometry import (
    FixedPoint,
    curve_catalog,
    fixed_points,
    pair_curve,
    tangent_character,
    taut_c1,
)
from hilb3.graphs import enumerate_graphs, pair_family
from hilb3.invariants import (
    family_term_closed,
    pair_sum_closed,
    two_point_pairing,
    verify_identities,
)
from hilb3.localization import (
    edge_character,
    edge_euler,
    forbidden_weights,
    graph_sum,
)
from hilb3.scalars import (
    DegenerateSpecializationError,
    Specialization,
    VirtualCharacter,
    Weight,
    evaluate_weight,
    format_rational,
    sample_specializations,
)

from oracles import edge_euler_closed

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
weights = st.builds(Weight, fractions, fractions)


def test_weight_algebra_small_cases():
    a = Weight(1, 2)
    b = Weight(-1, 3)
    assert a + b == Weight(0, 5)
    assert a - b == Weight(2, -1)
    assert -a == Weight(-1, -2)
    assert a.scaled(Fraction(3, 2)) == Weight(Fraction(3, 2), 3)


@given(weights, weights)
def test_weight_addition_roundtrip(a, b):
    assert (a + b) - b == a
    assert a + (-a) == Weight(0, 0)


def test_weight_strings_are_readable():
    assert str(Weight(1, 0)) == "1*w + 0*z"
    assert str(Weight(2, -3)) == "2*w + -3*z"


def test_evaluate_weight():
    point = Specialization(Fraction(1), Fraction(3))
    assert evaluate_weight(Weight(2, -1), point) == -1
    assert evaluate_weight(Weight(0, 0), point) == 0


def test_character_multiset_semantics():
    a, b = Weight(1, 0), Weight(0, 1)
    char = VirtualCharacter([(a, 2), (b, -1)])
    assert char.items() == [(b, -1), (a, 2)]
    # Terms with their negations cancel to the empty character.
    assert VirtualCharacter([(a, 2), (b, -1), (a, -2), (b, 1)]).items() == []
    assert VirtualCharacter([]) == VirtualCharacter([(a, 1), (a, -1)])


def test_character_merges_repeated_weights():
    a = Weight(1, 1)
    char = VirtualCharacter([(a, 1), (a, 1), (a, -1)])
    assert char.items() == [(a, 1)]
    assert char == VirtualCharacter([(a, 1)])


def test_euler_is_signed_product():
    point = Specialization(Fraction(1), Fraction(3))
    char = VirtualCharacter([(Weight(1, 0), 2), (Weight(0, 1), -1)])
    # w^2 / z at (w, z) = (1, 3).
    assert char.euler(point) == Fraction(1, 3)


def test_euler_rejects_vanishing_weight():
    point = Specialization(Fraction(1), Fraction(1))
    char = VirtualCharacter([(Weight(1, -1), 1)])
    with pytest.raises(DegenerateSpecializationError):
        char.euler(point)


@given(weights, weights, st.integers(-3, 3), st.integers(-3, 3))
def test_character_addition_is_multiplicity_addition(a, b, m, n):
    # The sum of two characters is built from their concatenated terms.
    total = dict(VirtualCharacter([(a, m), (b, n)]).items())
    assert total.get(a, 0) == m + (n if a == b else 0)
    assert sum(total.values()) == m + n
    assert 0 not in total.values()


def test_rational_formatting_roundtrip():
    for text in ("-27", "27/2", "0", "81/4", "-3/8"):
        assert format_rational(Fraction(text)) == text
    assert format_rational(Fraction(6, 4)) == "3/2"


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_parse_inverts_format(q):
    assert Fraction(format_rational(q)) == q


def test_sampling_is_deterministic():
    first = sample_specializations(3, seed=0)
    second = sample_specializations(3, seed=0)
    assert first == second
    assert len(set(first)) == 3


def test_sampling_seeds_differ():
    assert sample_specializations(3, seed=0) != sample_specializations(3, seed=1)


def test_sampling_avoids_forbidden_walls():
    # Samples must stay off every listed hyperplane a*w + b*z = 0.
    forbidden = (Weight(1, -1), Weight(2, 1), Weight(0, 1))
    for point in sample_specializations(8, seed=2, forbidden=forbidden):
        for weight in forbidden:
            assert evaluate_weight(weight, point) != 0


@pytest.mark.parametrize("d, count", [(4, 200), (8, 100)])
def test_sampler_decides_as_fraction_arithmetic_does(monkeypatch, d, count):
    # Every draw's accept/reject decision, and so every drawn point, must be
    # the one that evaluating each form with Fractions gives.  Walls are rare
    # among the draws: seeds 7 and 11 meet at least one at both sizes.
    forbidden = forbidden_weights(d)
    seeds = (0, 7, 11)
    drawn = [sample_specializations(count, seed=seed, forbidden=forbidden) for seed in seeds]
    integer_test = scalars._admissible
    decisions = []

    def by_fractions(w, z, walls):
        point = Specialization(w, z)
        keep = w != 0 and z != 0 and w != z and all(
            evaluate_weight(form, point) != 0 for form in forbidden
        )
        assert integer_test(w, z, walls) == keep, (w, z)
        decisions.append(keep)
        return keep

    monkeypatch.setattr(scalars, "_admissible", by_fractions)
    for seed, points in zip(seeds, drawn):
        assert sample_specializations(count, seed=seed, forbidden=forbidden) == points
    assert decisions.count(True) == count * len(seeds)
    assert False in decisions


def test_every_forbidden_form_rejects_its_own_zeros():
    forbidden = forbidden_weights(8)
    walls = scalars._walls(forbidden)
    for form in forbidden:
        w, z = form.b * 7, -form.a * 7
        assert evaluate_weight(form, Specialization(w, z)) == 0
        assert not scalars._admissible(w, z, walls)


def test_sampler_walls_cover_axes_scaling_and_the_zero_form():
    walls = scalars._walls((Weight(Fraction(1, 2), Fraction(-3, 4)), Weight(0, -5)))
    assert walls == {(2, -3), (0, 1)}
    # w = 3, z = 2 lies on w/2 - 3z/4 = 0; z = 0 is excluded before the walls.
    assert not scalars._admissible(Fraction(3), Fraction(2), walls)
    assert scalars._admissible(Fraction(-3), Fraction(2), walls)
    assert not scalars._admissible(Fraction(3), Fraction(0), walls)
    assert not scalars._admissible(Fraction(3), Fraction(2), scalars._walls((Weight(0, 0),)))
    with pytest.raises(DegenerateSpecializationError):
        sample_specializations(1, seed=0, forbidden=(Weight(0, 0),))


def test_built_weights_are_exact_and_evaluate_to_fractions():
    # Weights keep the coefficients they are built with; the specialization
    # alone sets the number type of a value.
    built = [w for p in fixed_points() for w, _ in tangent_character(p).items()]
    built += [
        w for c in curve_catalog() for d in range(1, 7) for w, _ in edge_character(c, d).items()
    ]
    built += [taut_c1(p, twist) for p in fixed_points() for twist in (0, 1)]
    built += forbidden_weights(6)
    point = Specialization(2, 3)
    for weight in built:
        assert {type(weight.a), type(weight.b)} <= {int, Fraction}
        assert type(evaluate_weight(weight, point)) is Fraction


def test_specialization_rejects_float_coordinates():
    with pytest.raises(TypeError, match="exact"):
        Specialization(0.1, 2)
    with pytest.raises(TypeError, match="exact"):
        Specialization(1, 2.0)
    point = Specialization(3, Fraction(1, 7))
    assert (point.w, point.z) == (Fraction(3), Fraction(1, 7))
    assert {type(point.w), type(point.z)} == {Fraction}


def test_a_point_is_hashed_once_at_construction(monkeypatch):
    point = Specialization(Fraction(-41, 19), Fraction(-13, 67))
    expected = hash((Fraction(-41, 19), Fraction(-13, 67)))

    def refuse(self):
        raise AssertionError("Fraction.__hash__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert hash(point) == expected
    assert {point: 1}[point] == 1


def test_equal_points_hash_equal_whatever_their_input_types():
    points = [
        Specialization(2, -5),
        Specialization(Fraction(2), Fraction(-5)),
        Specialization(2, Fraction(-10, 2)),
        Specialization(Fraction(4, 2), -5),
    ]
    assert len({hash(p) for p in points}) == 1 and len(set(points)) == 1
    assert Specialization(2, -5) != Specialization(-5, 2)


def test_sampler_rejects_a_negative_count():
    with pytest.raises(ValueError, match="must not be negative"):
        sample_specializations(-3)
    assert sample_specializations(0) == []


def test_weight_rejects_float_coefficients():
    # Both once slipped through: evaluating gave the float 2.5, and the
    # sampler failed in _walls on float.numerator.
    with pytest.raises(TypeError, match="exact"):
        Weight(0.5, 1)
    with pytest.raises(TypeError, match="exact"):
        Weight(1, 2.0)
    assert evaluate_weight(Weight(Fraction(1, 2), 1), Specialization(1, 2)) == Fraction(5, 2)


def test_sampler_rejects_a_non_integer_count():
    # 1.5 once drew two points.
    with pytest.raises(TypeError, match="must be an int"):
        sample_specializations(1.5)
    with pytest.raises(TypeError, match="must be an int"):
        sample_specializations(Fraction(2))


def test_bools_are_rejected_where_floats_are():
    # Each once passed for 0 or 1: Weight(True, False) printed as
    # "True*w + False*z", and a count of True drew one point.
    with pytest.raises(TypeError, match="exact"):
        Weight(True, 0)
    with pytest.raises(TypeError, match="exact"):
        Weight(1, False)
    with pytest.raises(TypeError, match="exact"):
        Specialization(True, 2)
    with pytest.raises(TypeError, match="exact"):
        Specialization(1, False)
    with pytest.raises(TypeError, match="must be an int"):
        sample_specializations(True)
    with pytest.raises(TypeError, match="must be an int"):
        two_point_pairing(2, num_points=True)
    with pytest.raises(TypeError, match="must be an int"):
        taut_c1(FixedPoint.punctual(0, 0), True)
    with pytest.raises(TypeError, match="must be an int"):
        taut_c1(FixedPoint.punctual(0, 0), 1.0)


_F = [Fraction(-27), Fraction(27), Fraction(54), Fraction(27)]
_MIDDLE = fock.basis(4)[1].items()[0][0]
_POINT = Specialization(Fraction(1), Fraction(3))
_DEGREE_ENTRY_POINTS = {
    "one_point": lambda d: fock.one_point(_MIDDLE, d),
    "two_point_table": lambda d: fock.two_point_table(d, _F[0]),
    "_case_iv": lambda d: fock._case_iv(d, _F),
    "three_point_table": lambda d: fock.three_point_table(d, _F),
    "edge_character": lambda d: edge_character(pair_curve(0, 1), d),
    "edge_euler": lambda d: edge_euler(pair_curve(0, 1), d, _POINT),
    "enumerate_graphs": lambda d: enumerate_graphs(pair_family(0, 1), d),
    "two_point_pairing": lambda d: two_point_pairing(d, 2),
    "graph_sum": lambda d: graph_sum(pair_family(0, 1), d, _POINT),
    "forbidden_weights": forbidden_weights,
    "verify_identities": verify_identities,
    "pair_sum_closed": lambda d: pair_sum_closed(d, 0, 1, _POINT),
    "family_term_closed": lambda d: family_term_closed(d, 0, _POINT),
    "edge_euler_closed": lambda d: edge_euler_closed(0, 1, d, _POINT),
}


@pytest.mark.parametrize(
    "bad, error, message",
    [(2.5, TypeError, "must be an int"), (True, TypeError, "must be an int"),
     (0, ValueError, "degree must be positive")],
)
@pytest.mark.parametrize("entry", sorted(_DEGREE_ENTRY_POINTS))
def test_every_degree_entry_point_checks_the_degree(entry, bad, error, message):
    # 2.5 once gave one_point the float -0.96, and True gave two_point_pairing
    # a result whose d was True.  Degree 1 goes in first, so a cached entry
    # point must not hand True the entry stored for 1.
    call = _DEGREE_ENTRY_POINTS[entry]
    call(1)
    with pytest.raises(error, match=message):
        call(bad)


# Coefficients of every kind the engine builds: ints, zeros and fractions.
coefficients = st.one_of(
    st.integers(-30, 30), st.just(0), st.fractions(-30, 30, max_denominator=12)
)


@st.composite
def points(draw):
    """Nonzero coordinates with composite denominators, often a shared one."""
    numerators = st.integers(-99, 99).filter(bool)
    denominators = st.sampled_from([1, 4, 6, 10, 12, 15, 21, 35, 36, 77])
    w_den = draw(denominators)
    z_den = draw(st.one_of(st.just(w_den), denominators))
    return Specialization(
        Fraction(draw(numerators), w_den), Fraction(draw(numerators), z_den)
    )


@given(coefficients, coefficients, points())
def test_integer_evaluation_is_fraction_arithmetic(a, b, point):
    value = evaluate_weight(Weight(a, b), point)
    assert type(value) is Fraction
    assert value == a * point.w + b * point.z


@given(st.lists(st.tuples(coefficients, coefficients, st.integers(-3, 3)), max_size=6), points())
def test_euler_is_the_fraction_product_of_its_weights(terms, point):
    merged = {}
    for a, b, mult in terms:
        merged[Weight(a, b)] = merged.get(Weight(a, b), 0) + mult
    values = {w: w.a * point.w + w.b * point.z for w, m in merged.items() if m}
    char = VirtualCharacter((Weight(a, b), mult) for a, b, mult in terms)
    if 0 in values.values():
        with pytest.raises(DegenerateSpecializationError, match="vanishes"):
            char.euler(point)
        return
    expected = Fraction(1)
    for weight, value in values.items():
        expected *= value ** merged[weight]
    result = char.euler(point)
    assert type(result) is Fraction
    assert result == expected


def test_vanishing_weight_names_itself_and_the_point():
    point = Specialization(Fraction(-6, 35), Fraction(-6, 35))
    char = VirtualCharacter([(Weight(2, 1), 1), (Weight(Fraction(1, 2), Fraction(-1, 2)), -2)])
    with pytest.raises(DegenerateSpecializationError) as caught:
        char.euler(point)
    assert str(caught.value) == "weight 1/2*w + -1/2*z vanishes at w=-6/35, z=-6/35"


def test_a_character_equals_no_other_type():
    # VirtualCharacter.__eq__ leaves any other type to Python, which then
    # compares identities.
    assert (VirtualCharacter() == 1) is False
    assert VirtualCharacter() != 0
