"""Two-point invariants: frozen values, sign pins and closed-form identities."""

import re
from fractions import Fraction

import pytest

from hilb3.geometry import fixed_points, taut_c1
from hilb3 import invariants
from hilb3.invariants import (
    ConsistencyError,
    _mark_factor,
    family_term_closed,
    pair_sum_closed,
    punctual_family_term,
    two_point_pairing,
    two_point_total,
    verify_identities,
)
from hilb3.localization import forbidden_weights
from hilb3.scalars import Specialization, evaluate_weight, sample_specializations

from oracles import edge_euler_closed, pair_family_term

POINT_13 = Specialization(Fraction(1), Fraction(3))

EXPECTED_INVARIANTS = {
    1: Fraction(-27),
    2: Fraction(27, 2),
    3: Fraction(18),
    4: Fraction(27, 4),
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_frozen_invariants(d):
    result = two_point_pairing(d)
    assert result.value == 3 * EXPECTED_INVARIANTS[d]
    assert result.invariant == EXPECTED_INVARIANTS[d]


def test_scaled_invariants():
    assert [two_point_pairing(d).scaled for d in (1, 2, 3, 4)] == [
        Fraction(-27),
        Fraction(27),
        Fraction(54),
        Fraction(27),
    ]


def test_pair_and_punctual_parts_frozen():
    # The two halves of the degree-1 total at (w, z) = (1, 3); their sum is
    # the pairing and their difference discriminates the relative sign.
    pair_part = sum(
        pair_family_term(1, i, j, POINT_13)
        for i in range(3)
        for j in range(3)
        if i != j
    )
    punctual_part = sum(punctual_family_term(1, i, POINT_13) for i in range(3))
    assert pair_part == Fraction(-61, 2)
    assert punctual_part == Fraction(-101, 2)
    assert pair_part + punctual_part == -81


def test_relative_sign_of_the_two_parts():
    # Flipping the sign of the residual-pair half gives -20, not the correct
    # -81, so the two families demonstrably enter with the same sign.
    pair_part = sum(
        pair_family_term(1, i, j, POINT_13)
        for i in range(3)
        for j in range(3)
        if i != j
    )
    total = two_point_total(1, POINT_13)
    flipped = total - 2 * pair_part
    assert total == -81
    assert flipped == -20
    assert flipped != total


def test_punctual_terms_frozen():
    assert punctual_family_term(1, 1, POINT_13) == Fraction(-57, 4)
    assert punctual_family_term(1, 2, POINT_13) == Fraction(-145, 4)


def test_totals_agree_across_sampled_specializations():
    for d in (1, 2):
        points = sample_specializations(3, seed=5, forbidden=forbidden_weights(d))
        totals = {two_point_total(d, p) for p in points}
        assert len(totals) == 1


def test_constancy_across_seeds():
    for d in (1, 2, 3, 4):
        values = {two_point_pairing(d, num_points=3, seed=seed).value for seed in (0, 1)}
        assert values == {3 * EXPECTED_INVARIANTS[d]}


def test_one_point_is_not_a_constancy_check():
    single = two_point_pairing(2, num_points=1)
    assert single.value == Fraction(81, 2)
    assert len(single.points) == 1
    assert not single.verified_constant


def test_a_third_point_that_disagrees_is_named(monkeypatch):
    evaluated = []

    def third_differs(d, point):
        evaluated.append(point)
        return Fraction(7 if len(evaluated) == 3 else 5)

    monkeypatch.setattr(invariants, "two_point_total", third_differs)
    with pytest.raises(ConsistencyError) as raised:
        two_point_pairing(1, num_points=3, seed=4)
    assert len(evaluated) == 3
    third = evaluated[2]
    assert f"; 7 at w={third.w}, z={third.z}" in str(raised.value)


def test_degree_18_is_constant_at_two_points():
    # Observed with this engine, not a value from the paper: it fits
    # f(d) = 27 * (-1)^d * (1 - 3*[3 | d]).  A wrong series or log weight at
    # high t-degree or order makes the two points disagree or moves it.
    result = two_point_pairing(18, num_points=2, seed=0)
    assert result.verified_constant
    assert result.scaled == -54


def test_two_points_are_a_constancy_check():
    double = two_point_pairing(2, num_points=2)
    assert double.value == Fraction(81, 2)
    assert len(double.points) == 2
    assert double.verified_constant


def test_invariant_result_is_hashable():
    result = two_point_pairing(1, num_points=2)
    assert type(result.points) is tuple
    assert hash(result) == hash(two_point_pairing(1, num_points=2))


def test_two_point_pairing_validates_arguments():
    with pytest.raises(ValueError):
        two_point_pairing(0)
    with pytest.raises(ValueError):
        two_point_pairing(1, num_points=0)
    # 2.5 once evaluated three points.
    with pytest.raises(TypeError, match="must be an int"):
        two_point_pairing(1, num_points=2.5)


def test_pair_sum_closed_form_samples():
    points = sample_specializations(3, seed=9, forbidden=forbidden_weights(3))
    from hilb3.graphs import pair_family
    from hilb3.localization import graph_sum

    for d in (1, 2, 3):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            for point in points:
                assert graph_sum(pair_family(i, j), d, point) == pair_sum_closed(
                    d, i, j, point
                )


@pytest.mark.parametrize(
    "closed, args, message",
    [
        (pair_sum_closed, (1, 0, 0), "no pair curve for charts (0,0)"),
        (pair_sum_closed, (1, 2, 2), "no pair curve for charts (2,2)"),
        (pair_sum_closed, (1, 0, 3), "no pair curve for charts (0,3)"),
        (edge_euler_closed, (1, 1, 2), "no pair curve for charts (1,1)"),
        (family_term_closed, (1, 3), "chart must be 0, 1 or 2, got 3"),
    ],
    ids=["pair-0-0", "pair-2-2", "pair-0-3", "edge-1-1", "family-3"],
)
def test_closed_forms_refuse_charts_that_name_no_family(closed, args, message):
    # Each returned a number for a family that does not exist, or raised a
    # bare KeyError, before the charts were checked.
    with pytest.raises(ValueError, match=re.escape(message)):
        closed(*args, POINT_13)


CLOSED_DEGREES = "closed form known only for degrees 1 through 4"
RECURSED_DEGREES = "recursed form known only for degrees 2 through 4"


@pytest.mark.parametrize(
    "closed, args, message",
    [
        (invariants._punctual_01_closed, (5, 1, 3), CLOSED_DEGREES),
        (invariants._punctual_01_recursed, (1, 1, 3), RECURSED_DEGREES),
        (invariants._punctual_12_closed, (5, 1, 3), CLOSED_DEGREES),
        (invariants._mark_factor_closed, (0, 0, 0, POINT_13),
         "stratum pair must be (0,1), (0,2) or (1,2)"),
        (family_term_closed, (5, 0, POINT_13), CLOSED_DEGREES),
        (invariants.family_term_recursed, (1, 0, POINT_13), RECURSED_DEGREES),
        (verify_identities, (5,), "closed forms cover degrees 1 through 4 only"),
    ],
    ids=["punctual-01", "punctual-01-recursed", "punctual-12", "mark-factor", "family-term",
         "family-term-recursed", "verify"],
)
def test_closed_forms_refuse_degrees_and_strata_they_do_not_cover(closed, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        closed(*args)


def test_identity_suite_all_pass():
    checks = verify_identities(d_max=4, num_specs=5, seed=0)
    assert len(checks) == 27
    failing = [c.name for c in checks if not c.passed]
    assert failing == []


@pytest.mark.parametrize("num_specs", [0, -3])
def test_identity_suite_needs_a_specialization(num_specs):
    # Zero points would make every record pass after no comparison at all.
    with pytest.raises(ValueError, match="at least one specialization"):
        verify_identities(d_max=4, num_specs=num_specs)


def test_identity_suite_reports_a_wrong_display(monkeypatch):
    # With the degree-3 family cubic off by one, only that record fails, at
    # the first chart whose term does not vanish: chart 0's hyperplane
    # weight is 0, so its term is 0 on both sides.
    monkeypatch.setitem(invariants._FAMILY_CUBIC, 3, 22)
    checks = verify_identities(3, 2, seed=0)
    assert len(checks) == 20
    failing = [c for c in checks if not c.passed]
    assert [c.name for c in failing] == ["punctual family term, degree 3"]
    detail = failing[0].detail
    assert detail.startswith("i=1 at w=-41/3, z=-23/41: ")
    engine, display = detail.split(": ")[1].split(" != ")
    assert Fraction(engine) != Fraction(display)


def test_reproduce_reports_a_singular_gram_matrix(monkeypatch):
    def singular(rows):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(invariants, "invert_matrix", singular)
    checks = {c.name: c.passed for c in invariants.reproduce()}
    assert checks.pop("all complementary Gram matrices are nonsingular") is False
    assert all(checks.values())


def test_identity_suite_seed_independent():
    checks = verify_identities(d_max=2, num_specs=3, seed=42)
    assert all(c.passed for c in checks)


def test_family_term_closed_is_what_the_engine_sums():
    point = sample_specializations(1, seed=4, forbidden=forbidden_weights(2))[0]
    for i in range(3):
        assert punctual_family_term(2, i, point) == family_term_closed(2, i, point)


def _cubic_insertion(label, spec):
    """Fixed-point value of the twist difference times the squared base class."""
    base = evaluate_weight(taut_c1(label, 0), spec)
    twisted = evaluate_weight(taut_c1(label, 1), spec)
    return (twisted - base) * base**2


def _quadratic_insertion(label, spec):
    """Fixed-point value of the squared base tautological class."""
    return evaluate_weight(taut_c1(label, 0), spec) ** 2


@pytest.mark.parametrize(
    "spec",
    [POINT_13, Specialization(Fraction(-6, 35), Fraction(10, 21))],
    ids=["integers", "shared-denominators"],
)
def test_mark_factor_is_minus_the_product_of_the_insertion_differences(spec):
    # The insertion values evaluated one Fraction at a time are the oracle
    # for the integer route, at every ordered pair of the 21 labels.
    for first in fixed_points():
        for second in fixed_points():
            cubic = _cubic_insertion(first, spec) - _cubic_insertion(second, spec)
            quadratic = _quadratic_insertion(first, spec) - _quadratic_insertion(second, spec)
            value = _mark_factor(first, second, spec)
            assert type(value) is Fraction
            assert value == -cubic * quadratic, (str(first), str(second))


@pytest.mark.parametrize(
    "d, expected", [(7, Fraction(-27)), (8, Fraction(27)), (12, Fraction(-54))]
)
def test_observed_pattern_f_of_d_plus_3_is_minus_f_of_d(d, expected):
    # An observed pattern of the engine's values, not a result of the paper:
    # f(d) = d * invariant reads -27, 27, 54, 27, -27, -54, ... and so far
    # f(d + 3) = -f(d).  These pins hold it at f(7) = -f(4),
    # f(8) = -f(5) and f(12) = -f(9) = f(6), each checked constant across
    # two specializations.  At d = 12 the pass's sums reach about 170
    # digits, so this pin also holds them exact where they are large.
    assert two_point_pairing(d, num_points=2).scaled == expected
