"""Creation-operator homology bases, intersection pairing and count tables.

Homology of the length-3 Hilbert scheme is presented by monomials in
creation operators a_{-n}(c), where c is a point, line or surface class of
the plane and the sizes n sum to 3.  This module fixes the graded bases,
the Poincaré pairing with its dual bases, and regenerates the one-, two-
and three-point count tables from a supplied sequence of engine values,
together with the composition-law check of the table algebra.

The table functions take the degree-scaled two-point values f(1..d) as
input rather than computing them, so everything here is pure algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from .scalars import Rational, format_rational, positive_degree

POINT = "point"
LINE = "line"
SURFACE = "surface"

_CLASS_RANK = {SURFACE: 0, LINE: 1, POINT: 2}
_CLASS_SHORT = {POINT: "pt", LINE: "ell", SURFACE: "X"}

# Intersection pairing of the plane's homology classes: nonzero only for
# complementary degrees.
_CLASS_PAIRING = {(POINT, SURFACE): 1, (SURFACE, POINT): 1, (LINE, LINE): 1}

# Numerical constants of the plane: the canonical divisor squared and its
# product with a line.
CANONICAL_SQUARE = Fraction(9)
CANONICAL_DOT_LINE = Fraction(-3)

Monomial = tuple[tuple[int, str], ...]


def monomial(*factors: tuple[int, str]) -> Monomial:
    """Canonical creation-operator monomial from (size, class) factors."""
    total = 0
    for size, cls in factors:
        if size < 1:
            raise ValueError("operator size must be positive")
        if cls not in _CLASS_RANK:
            raise ValueError(f"unknown surface class {cls!r}")
        total += size
    if total != 3:
        raise ValueError("operator sizes must sum to 3")
    return tuple(sorted(factors, key=lambda f: (-f[0], _CLASS_RANK[f[1]])))


def format_monomial(mono: Monomial) -> str:
    parts = []
    run_start = 0
    for pos in range(1, len(mono) + 1):
        if pos == len(mono) or mono[pos] != mono[run_start]:
            size, cls = mono[run_start]
            power = pos - run_start
            text = f"a_{{-{size}}}({_CLASS_SHORT[cls]})"
            parts.append(text if power == 1 else f"{text}^{power}")
            run_start = pos
    return "".join(parts)


class FockVector:
    """Exact rational combination of creation-operator monomials."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms: Iterable[tuple[Monomial, Rational]] = ()) -> None:
        merged: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            coeff = Fraction(coeff)
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        self._coeffs = {m: c for m, c in merged.items() if c != 0}

    def items(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._coeffs.items())

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._coeffs.get(mono, Fraction(0))

    def __add__(self, other: "FockVector") -> "FockVector":
        return FockVector(list(self._coeffs.items()) + list(other._coeffs.items()))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FockVector":
        scalar = Fraction(scalar)
        return FockVector((m, scalar * c) for m, c in self._coeffs.items())

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FockVector) and self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for mono, coeff in self.items():
            if coeff == 1:
                text = format_monomial(mono)
            elif coeff == -1:
                text = "-" + format_monomial(mono)
            else:
                text = f"{format_rational(coeff)} {format_monomial(mono)}"
            pieces.append(text)
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"FockVector({self})"


def vector(mono: Monomial, coeff: Rational = 1) -> FockVector:
    return FockVector([(mono, coeff)])


# Graded bases, listed bottom degree to top.  Degrees 0 and 12 hold the
# point class and the fundamental class; the middle degrees are the
# five-step ladder used by the count tables.

_BASIS_DATA: dict[int, tuple[FockVector, ...]] = {}


def _install_bases() -> None:
    a = monomial
    _BASIS_DATA[0] = (vector(a((1, POINT), (1, POINT), (1, POINT))),)
    _BASIS_DATA[2] = (
        vector(a((2, POINT), (1, POINT))),
        vector(a((1, LINE), (1, POINT), (1, POINT))),
    )
    _BASIS_DATA[4] = (
        vector(a((1, SURFACE), (1, POINT), (1, POINT))),
        vector(a((2, LINE), (1, POINT))),
        vector(a((1, LINE), (1, LINE), (1, POINT))),
        vector(a((2, POINT), (1, LINE))),
        vector(a((3, POINT),)),
    )
    _BASIS_DATA[6] = (
        vector(a((2, SURFACE), (1, POINT))),
        vector(a((2, POINT), (1, SURFACE))),
        vector(a((1, SURFACE), (1, LINE), (1, POINT))),
        vector(a((3, LINE),)),
        vector(a((2, LINE), (1, LINE))),
        vector(a((1, LINE), (1, LINE), (1, LINE))),
    )
    _BASIS_DATA[8] = (
        vector(a((3, SURFACE),)),
        vector(a((2, SURFACE), (1, LINE))),
        vector(a((2, LINE), (1, SURFACE))),
        vector(a((1, SURFACE), (1, LINE), (1, LINE))),
        vector(a((1, SURFACE), (1, SURFACE), (1, POINT))),
    )
    _BASIS_DATA[10] = (
        vector(a((2, SURFACE), (1, SURFACE))),
        vector(a((1, SURFACE), (1, SURFACE), (1, LINE)), Fraction(1, 2)),
    )
    _BASIS_DATA[12] = (vector(a((1, SURFACE), (1, SURFACE), (1, SURFACE)), Fraction(1, 6)),)


_install_bases()


def basis(degree: int) -> tuple[FockVector, ...]:
    """The fixed homology basis in one even degree, in catalog order."""
    if degree not in _BASIS_DATA:
        raise ValueError("degree must be an even integer between 0 and 12")
    return _BASIS_DATA[degree]


def point_class() -> FockVector:
    return basis(0)[0]


def fundamental_class() -> FockVector:
    return basis(12)[0]


def contracted_class() -> FockVector:
    """The primitive class of curves collapsed by the support map."""
    return basis(2)[0]


def _monomial_pairing(m1: Monomial, m2: Monomial) -> Fraction:
    if len(m1) != len(m2):
        return Fraction(0)
    k = len(m1)
    total = Fraction(0)
    for perm in permutations(range(k)):
        product = Fraction(1)
        for j, pj in enumerate(perm):
            size1, cls1 = m1[pj]
            size2, cls2 = m2[j]
            if size1 != size2 or (cls1, cls2) not in _CLASS_PAIRING:
                product = Fraction(0)
                break
            product *= size1 * _CLASS_PAIRING[(cls1, cls2)]
        total += product
    return Fraction(-1) ** (3 - k) * total


def pairing(left: FockVector | Monomial, right: FockVector | Monomial) -> Fraction:
    """Poincaré pairing, extended bilinearly.

    The sign (-1)^(3-k) on k-factor monomials is the one convention
    compatible with the dual-coefficient datum pinned in the tests.
    """
    if not isinstance(left, FockVector):
        left = vector(left)
    if not isinstance(right, FockVector):
        right = vector(right)
    total = Fraction(0)
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            total += c1 * c2 * _monomial_pairing(m1, m2)
    return total


def gram_matrix(degree: int) -> list[list[Fraction]]:
    """Pairing matrix between the complementary-degree basis and ``basis(degree)``."""
    rows = basis(12 - degree)
    cols = basis(degree)
    return [[pairing(r, c) for c in cols] for r in rows]


def invert_matrix(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse via Gauss-Jordan elimination; raises if singular."""
    n = len(rows)
    augmented = [
        [Fraction(value) for value in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if augmented[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        scale = augmented[col][col]
        augmented[col] = [value / scale for value in augmented[col]]
        for r in range(n):
            if r != col and augmented[r][col] != 0:
                factor = augmented[r][col]
                augmented[r] = [v - factor * p for v, p in zip(augmented[r], augmented[col])]
    return [row[n:] for row in augmented]


@lru_cache(maxsize=None)
def dual_basis(degree: int) -> tuple[FockVector, ...]:
    """Vectors in the complementary degree pairing to delta with ``basis(degree)``."""
    complement = basis(12 - degree)
    inverse = invert_matrix(gram_matrix(degree))
    duals = []
    for row in inverse:
        total = FockVector()
        for coeff, base_vector in zip(row, complement):
            total = total + coeff * base_vector
        duals.append(total)
    return tuple(duals)


def one_point(mono: Monomial, d: int) -> Fraction:
    """One-point count of the dual of a middle-degree basis monomial."""
    positive_degree(d)
    if mono not in _basis_monomials(4):
        raise ValueError("monomial is not a middle-degree basis element")
    if mono == monomial((2, LINE), (1, POINT)):
        return 2 * CANONICAL_DOT_LINE / d**2
    return Fraction(0)


def _basis_monomials(degree: int) -> tuple[Monomial, ...]:
    return tuple(v.items()[0][0] for v in basis(degree))


def two_point_table(d: int, f_d: Rational) -> dict[tuple[Monomial, Monomial], Fraction]:
    """All thirty two-point counts between the degree-6 and degree-8 bases.

    ``f_d`` is the degree-scaled engine value for this ``d``; exactly three
    entries are nonzero.
    """
    positive_degree(d)
    sixes = _basis_monomials(6)
    eights = _basis_monomials(8)
    table = {(c, b): Fraction(0) for c in sixes for b in eights}
    table[(sixes[0], eights[2])] = Fraction(12, d)
    table[(sixes[4], eights[1])] = Fraction(12, d)
    table[(sixes[3], eights[0])] = Fraction(f_d) / d
    return table


def _case_iv(d: int, f: Sequence[Rational]) -> Fraction:
    positive_degree(d)
    value = Fraction(-162) - 15 * Fraction(f[d - 1])
    value += 6 * sum(Fraction(f[d1 - 1]) for d1 in range(1, d))
    value += Fraction(1, 3) * sum(
        Fraction(f[d1 - 1]) * Fraction(f[d - d1 - 1]) for d1 in range(1, d)
    )
    return value


def three_point_table(
    d: int, f: Sequence[Rational]
) -> dict[tuple[Monomial, Monomial, Monomial], Fraction]:
    """All thirty-five unordered three-point counts over the degree-8 basis.

    ``f`` lists the degree-scaled engine values f(1) through f(d); four
    entries are nonzero.
    """
    positive_degree(d)
    if len(f) < d:
        raise ValueError(f"need f values for every degree up to {d}")
    eights = _basis_monomials(8)
    table = {}
    for i in range(5):
        for j in range(i, 5):
            for k in range(j, 5):
                case = _THREE_POINT_CASES.get((i, j, k))
                table[eights[i], eights[j], eights[k]] = case(d, f) if case else Fraction(0)
    return table


# The nonzero entries of the three-point table, by index triple into the
# degree-8 basis; every other triple vanishes.
_THREE_POINT_CASES = {
    (0, 0, 0): _case_iv,
    (0, 0, 1): lambda d, f: -2 * Fraction(f[d - 1]),
    (0, 0, 2): lambda d, f: -2 * Fraction(f[d - 1]),
    (1, 1, 2): lambda d, f: Fraction(-24),
}


def wdvv_consistency(d: int, f: Sequence[Rational]) -> bool:
    """Check the table's top three-point entry against the composition law.

    The top entry, :func:`_case_iv`, is that law solved for it, so the two
    sides agree for every sequence ``f``: this is a regression check of the
    table algebra, not a verification of the f values.  A degree below 1
    raises ``ValueError``, from :func:`_case_iv`.
    """
    if len(f) < d:
        raise ValueError(f"need f values for every degree up to {d}")
    w3 = _case_iv(d, f)
    fd = Fraction(f[d - 1])
    lower = [Fraction(f[d1 - 1]) for d1 in range(1, d)]
    lhs = w3 + CANONICAL_DOT_LINE * fd + 24 * CANONICAL_SQUARE
    lhs += 18 * CANONICAL_DOT_LINE + 2 * CANONICAL_DOT_LINE * sum(lower)
    rhs = 6 * CANONICAL_DOT_LINE * fd
    rhs += Fraction(1, 3) * sum(
        Fraction(f[d1 - 1]) * Fraction(f[d - d1 - 1]) for d1 in range(1, d)
    )
    return lhs == rhs


# Tautological divisor classes and the cup-product expansions the count
# tables rest on.  These expansions are fixed data, not computed products;
# a general cup-product engine is out of scope.


def incidence_divisor() -> FockVector:
    """Divisor of subschemes meeting a fixed line (top-degree basis, slot 2)."""
    return basis(10)[1]


def half_diagonal() -> FockVector:
    """The divisor half of the locus of non-reduced subschemes."""
    return vector(monomial((2, SURFACE), (1, SURFACE)), Fraction(1, 2))


def taut_divisor(twist: int) -> FockVector:
    """First Chern class of the rank-3 tautological bundle with a twist."""
    return twist * incidence_divisor() - half_diagonal()


def base_square() -> FockVector:
    """Square of the untwisted tautological divisor, in the degree-8 basis."""
    b = basis(8)
    return b[0] - b[4] - Fraction(1, 2) * b[3] + Fraction(3, 2) * b[2]


def cubic_class() -> FockVector:
    """Twist difference times the squared untwisted divisor, degree-6 basis."""
    c = basis(6)
    return (
        3 * c[3]
        - 3 * c[2]
        - Fraction(1, 2) * c[5]
        + 3 * c[1]
        + Fraction(3, 2) * c[4]
    )
