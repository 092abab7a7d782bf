"""Symmetric-function model: pairings, dual bases and the count tables."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb3 import fock
from hilb3.fock import (
    LINE,
    POINT,
    SURFACE,
    FockVector,
    _case_iv,
    base_square,
    basis,
    contracted_class,
    cubic_class,
    dual_basis,
    format_monomial,
    fundamental_class,
    gram_matrix,
    incidence_divisor,
    invert_matrix,
    monomial,
    one_point,
    pairing,
    point_class,
    taut_divisor,
    three_point_table,
    two_point_table,
    vector,
    wdvv_consistency,
)

# Engine values of d times the degree-d invariant, used as table inputs.
SCALED = [Fraction(-27), Fraction(27), Fraction(54), Fraction(27)]


def _six(i):
    return basis(6)[i].items()[0][0]


def _eight(i):
    return basis(8)[i].items()[0][0]


def test_basis_dimensions():
    assert [len(basis(k)) for k in range(0, 13, 2)] == [1, 2, 5, 6, 5, 2, 1]


def test_basis_degrees_are_validated():
    with pytest.raises(ValueError):
        basis(3)
    with pytest.raises(ValueError):
        basis(14)


def test_monomial_rejects_wrong_total():
    with pytest.raises(ValueError):
        monomial((2, POINT), (2, POINT))


@pytest.mark.parametrize(
    "factor, message",
    [
        ((0, POINT), "operator size must be positive"),
        ((1, "curve"), "unknown surface class 'curve'"),
    ],
    ids=["size", "class"],
)
def test_monomial_rejects_a_bad_factor(factor, message):
    with pytest.raises(ValueError, match=message):
        monomial(factor, (2, POINT))


def test_monomial_formatting():
    mono = monomial((2, LINE), (1, POINT))
    assert format_monomial(mono) == "a_{-2}(ell)a_{-1}(pt)"
    cube = monomial((1, SURFACE), (1, SURFACE), (1, SURFACE))
    assert format_monomial(cube) == "a_{-1}(X)^3"


def test_vector_arithmetic():
    a = vector(monomial((3, POINT),))
    b = vector(monomial((2, POINT), (1, LINE)))
    combo = 2 * a - b
    assert combo.coefficient(monomial((3, POINT),)) == 2
    assert combo.coefficient(monomial((2, POINT), (1, LINE))) == -1
    assert combo - combo == FockVector({})
    assert not (a - a)


def test_vector_strings_print_exact_coefficients():
    a = vector(monomial((3, POINT),))
    b = vector(monomial((2, POINT), (1, LINE)))
    assert str(FockVector()) == "0"
    assert str(b - a) == "a_{-2}(pt)a_{-1}(ell) - a_{-3}(pt)"
    assert str(Fraction(1, 2) * a - 3 * b) == "-3 a_{-2}(pt)a_{-1}(ell) + 1/2 a_{-3}(pt)"
    assert repr(a - b) == "FockVector(-a_{-2}(pt)a_{-1}(ell) + a_{-3}(pt))"


def test_pairing_is_symmetric_and_sparse():
    left = monomial((2, LINE), (1, POINT))
    right = monomial((2, LINE), (1, SURFACE))
    assert pairing(left, right) == -2
    assert pairing(right, left) == -2
    # Partition shapes must match for a nonzero pairing.
    assert pairing(left, monomial((3, SURFACE),)) == 0


def test_point_pairs_with_fundamental_class():
    assert pairing(point_class(), fundamental_class()) == 1
    assert pairing(fundamental_class(), point_class()) == 1


def test_contracted_class_meets_untwisted_divisor():
    assert pairing(taut_divisor(0), contracted_class()) == 1
    assert pairing(taut_divisor(1), contracted_class()) == 1


def test_gram_matrices_nonsingular():
    for k in range(0, 13, 2):
        inverse = invert_matrix(gram_matrix(k))
        assert len(inverse) == len(basis(k))


def test_invert_matrix_rejects_singular():
    with pytest.raises(ValueError):
        invert_matrix([[1, 2], [2, 4]])


def test_invert_matrix_small_case():
    assert invert_matrix([[2, 0], [0, 4]]) == [
        [Fraction(1, 2), Fraction(0)],
        [Fraction(0), Fraction(1, 4)],
    ]


def test_dual_basis_delta_property():
    for k in range(0, 13, 2):
        duals = dual_basis(k)
        for i, dual in enumerate(duals):
            for j, direct in enumerate(basis(k)):
                assert pairing(dual, direct) == (1 if i == j else 0)


def test_dual_of_recorded_datum_is_minus_half_partner():
    partner = monomial((2, LINE), (1, SURFACE))
    assert dual_basis(4)[1] == Fraction(-1, 2) * vector(partner)


@pytest.mark.parametrize("d,expected", [(1, -6), (2, Fraction(-3, 2)), (3, Fraction(-2, 3)), (4, Fraction(-3, 8))])
def test_one_point_values(d, expected):
    datum = monomial((2, LINE), (1, POINT))
    assert one_point(datum, d) == expected


def test_one_point_vanishes_elsewhere():
    datum = monomial((2, LINE), (1, POINT))
    for member in basis(4):
        mono = member.items()[0][0]
        if mono != datum:
            assert one_point(mono, 3) == 0


def test_one_point_rejects_foreign_monomial():
    with pytest.raises(ValueError):
        one_point(monomial((3, SURFACE),), 1)
    with pytest.raises(ValueError):
        one_point(monomial((2, LINE), (1, POINT)), 0)


# Zero positions in the thirty-entry two-point table, indexed over the
# degree-6 and degree-8 bases, split by the mechanism that kills them.
VANISH_GEOMETRIC = [
    (0, 1), (1, 2), (1, 3), (2, 0), (2, 3), (2, 4), (3, 3), (3, 4),
    (4, 4), (5, 0), (5, 2), (5, 3), (5, 4),
]
VANISH_DEGENERATION = [
    (0, 0), (0, 3), (0, 4), (1, 0), (1, 4), (2, 1), (2, 2), (3, 1),
    (3, 2), (4, 0), (4, 3), (5, 1),
]
VANISH_OBSTRUCTION = [(1, 1), (4, 2)]


def test_two_point_zero_structure():
    zero_pairs = VANISH_GEOMETRIC + VANISH_DEGENERATION + VANISH_OBSTRUCTION
    assert len(zero_pairs) == 27
    for d in (1, 2, 3, 4):
        table = two_point_table(d, SCALED[d - 1])
        assert len(table) == 30
        for i, j in zero_pairs:
            assert table[(_six(i), _eight(j))] == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_two_point_nonzero_entries(d):
    table = two_point_table(d, SCALED[d - 1])
    assert table[(_six(0), _eight(2))] == Fraction(12, d)
    assert table[(_six(4), _eight(1))] == Fraction(12, d)
    assert table[(_six(3), _eight(0))] == SCALED[d - 1] / d


def test_two_point_fixture_indices_cover_the_table():
    listed = set(VANISH_GEOMETRIC + VANISH_DEGENERATION + VANISH_OBSTRUCTION)
    listed |= {(0, 2), (4, 1), (3, 0)}
    assert listed == set(itertools.product(range(6), range(5)))


def test_three_point_key_census():
    table = three_point_table(1, SCALED[:1])
    assert len(table) == 35
    eights = [_eight(i) for i in range(5)]
    # Keys are unordered triples, stored in basis order.
    expected_keys = set(itertools.combinations_with_replacement(eights, 3))
    assert set(table) == expected_keys


FROZEN_TOP_ENTRIES = {1: 243, 2: -486, 3: -1458, 4: -972}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_three_point_nonzero_entries(d):
    table = three_point_table(d, SCALED[:d])
    nonzero = {k: v for k, v in table.items() if v != 0}
    assert len(nonzero) == 4
    assert table[(_eight(0), _eight(0), _eight(0))] == FROZEN_TOP_ENTRIES[d]
    assert table[(_eight(0), _eight(0), _eight(1))] == -2 * SCALED[d - 1]
    assert table[(_eight(0), _eight(0), _eight(2))] == -2 * SCALED[d - 1]
    assert table[(_eight(1), _eight(1), _eight(2))] == -24


# Every entry of three_point_table(d, (2, 3, 5, 7)[:d]), by index triple
# into the degree-8 basis; the triples not listed are 0.
PRIME_INPUT_ENTRIES = {
    1: {(0, 0, 0): Fraction(-192), (0, 0, 1): -4, (0, 0, 2): -4, (1, 1, 2): -24},
    2: {(0, 0, 0): Fraction(-581, 3), (0, 0, 1): -6, (0, 0, 2): -6, (1, 1, 2): -24},
    3: {(0, 0, 0): Fraction(-203), (0, 0, 1): -10, (0, 0, 2): -10, (1, 1, 2): -24},
    4: {(0, 0, 0): Fraction(-592, 3), (0, 0, 1): -14, (0, 0, 2): -14, (1, 1, 2): -24},
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_three_point_table_pinned_on_prime_inputs(d):
    table = three_point_table(d, (2, 3, 5, 7)[:d])
    expected = PRIME_INPUT_ENTRIES[d]
    triples = list(itertools.combinations_with_replacement(range(5), 3))
    assert len(triples) == len(table) == 35
    for triple in triples:
        key = tuple(_eight(i) for i in triple)
        assert table[key] == expected.get(triple, 0), triple


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_composition_law_consistency(d):
    assert wdvv_consistency(d, SCALED[:d])


@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=11))
@settings(max_examples=50, deadline=None)
def test_composition_law_is_a_table_identity(f):
    # The top three-point entry is derived by rearranging the composition
    # law, so the consistency check holds for arbitrary inputs; it guards
    # the algebra of the rearrangement, not the engine's values.
    assert wdvv_consistency(len(f), f)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_composition_law_check_catches_a_wrong_top_entry(monkeypatch, d):
    case_iv = fock._case_iv
    monkeypatch.setattr(fock, "_case_iv", lambda d, f: case_iv(d, f) + 1)
    assert not wdvv_consistency(d, SCALED[:d])


@pytest.mark.parametrize("d, f", [(0, [-27]), (-1, [-27, 27])])
def test_composition_law_rejects_nonpositive_degree(d, f):
    # Both once read f[-1] and passed without comparing anything.
    with pytest.raises(ValueError, match="degree must be positive"):
        wdvv_consistency(d, f)
    with pytest.raises(ValueError, match="degree must be positive"):
        _case_iv(d, f)


@pytest.mark.parametrize("table", [three_point_table, wdvv_consistency])
def test_tables_need_an_f_value_for_every_degree(table):
    with pytest.raises(ValueError, match="need f values for every degree up to 3"):
        table(3, SCALED[:2])


def test_divisor_expansions_pair_correctly():
    # The contracted class is invisible to the incidence divisor and meets
    # the boundary half-diagonal negatively; the tautological combination
    # normalizes the pairing to one.
    assert pairing(incidence_divisor(), contracted_class()) == 0
    from hilb3.fock import half_diagonal

    assert pairing(half_diagonal(), contracted_class()) == -1


def test_bilinear_reduction_reproduces_engine_pairing():
    # Expanding the cubic insertion class and the squared divisor class in
    # the fixed bases and contracting against the two-point table must give
    # back the raw localization pairings.
    expected = {1: Fraction(-81), 2: Fraction(81, 2), 3: Fraction(54), 4: Fraction(81, 4)}
    a = cubic_class()
    b = base_square()
    for d in (1, 2, 3, 4):
        table = two_point_table(d, SCALED[d - 1])
        total = sum(
            a.coefficient(cm) * b.coefficient(bm) * value
            for (cm, bm), value in table.items()
        )
        assert total == expected[d]
