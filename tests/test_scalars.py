"""Weight arithmetic, virtual characters and specialization sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hilb3 import scalars
from hilb3.geometry import curve_catalog, fixed_points, tangent_character, taut_c1
from hilb3.localization import edge_character, forbidden_weights
from hilb3.scalars import (
    DegenerateSpecializationError,
    Specialization,
    VirtualCharacter,
    Weight,
    ZERO_WEIGHT,
    evaluate_weight,
    format_rational,
    parse_rational,
    sample_specializations,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
weights = st.builds(Weight, fractions, fractions)


def test_weight_algebra_small_cases():
    a = Weight(1, 2)
    b = Weight(-1, 3)
    assert a + b == Weight(0, 5)
    assert a - b == Weight(2, -1)
    assert -a == Weight(-1, -2)
    assert a.scaled(Fraction(3, 2)) == Weight(Fraction(3, 2), 3)
    assert ZERO_WEIGHT.is_zero()
    assert not a.is_zero()


@given(weights, weights)
def test_weight_addition_roundtrip(a, b):
    assert (a + b) - b == a
    assert a + (-a) == ZERO_WEIGHT


def test_weight_strings_are_readable():
    assert str(Weight(1, 0)) == "1*w + 0*z"
    assert str(Weight(2, -3)) == "2*w + -3*z"


def test_evaluate_weight():
    point = Specialization(Fraction(1), Fraction(3))
    assert evaluate_weight(Weight(2, -1), point) == -1
    assert evaluate_weight(ZERO_WEIGHT, point) == 0


def test_character_multiset_semantics():
    a, b = Weight(1, 0), Weight(0, 1)
    char = VirtualCharacter([(a, 2), (b, -1)])
    assert char.multiplicity(a) == 2
    assert char.multiplicity(b) == -1
    assert char.rank() == 1
    # Adding the negation cancels to the empty character.
    assert char + VirtualCharacter([(a, -2), (b, 1)]) == VirtualCharacter([])
    assert len(VirtualCharacter([])) == 0


def test_character_merges_repeated_weights():
    a = Weight(1, 1)
    char = VirtualCharacter([(a, 1), (a, 1), (a, -1)])
    assert char.multiplicity(a) == 1
    assert char == VirtualCharacter([(a, 1)])


def test_moving_part_strips_trivial_summands():
    a = Weight(1, 0)
    char = VirtualCharacter([(ZERO_WEIGHT, 3), (a, 2)])
    assert char.moving_part() == VirtualCharacter([(a, 2)])


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
    left = VirtualCharacter([(a, m)])
    right = VirtualCharacter([(b, n)])
    total = left + right
    assert total.multiplicity(a) == m + (n if a == b else 0)
    assert total.rank() == m + n


def test_rational_formatting_roundtrip():
    for text in ("-27", "27/2", "0", "81/4", "-3/8"):
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(6, 4)) == "3/2"


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_parse_inverts_format(q):
    assert parse_rational(format_rational(q)) == q


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
    assert not scalars._admissible(Fraction(3), Fraction(2), scalars._walls((ZERO_WEIGHT,)))
    with pytest.raises(DegenerateSpecializationError):
        sample_specializations(1, seed=0, forbidden=(ZERO_WEIGHT,))


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
