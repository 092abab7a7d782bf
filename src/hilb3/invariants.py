"""Two-point curve counts of the contracted classes, and identity checks.

The pairing of the two tautological insertions is assembled family by
family: for each ordered chart pair a residual-pair family weighted by the
difference of insertion values at its two marked points, and for each chart
a punctual family combining the three stratum pairs.  The total is a degree
zero rational function of the torus weights, so it is evaluated at several
random specializations and required to be constant.  :func:`reproduce`
re-derives every recorded number from these values and the count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fock import (
    LINE,
    POINT,
    SURFACE,
    base_square,
    contracted_class,
    cubic_class,
    dual_basis,
    fundamental_class,
    gram_matrix,
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
from .geometry import (CHART_PAIRS, CHARTS, STRATUM_PAIRS, FixedPoint, hyperplane_weight,
                       pair_weights, taut_c1, torus_weights)
from .graphs import Family, all_pair_families, all_punctual_families, pair_family, punctual_family
from .localization import forbidden_weights, graph_sum, in_batches
from .scalars import (
    Rational,
    Specialization,
    _parts,
    evaluate_weight,
    format_rational,
    positive_degree,
    sample_specializations,
)


# The highest degree whose invariant and closed forms are recorded.
RECORDED_TOP_DEGREE = 4


class ConsistencyError(ArithmeticError):
    """A quantity that must be specialization independent failed to be."""


def _mark_factor(first: FixedPoint, second: FixedPoint, spec: Specialization) -> Rational:
    """Insertion-difference weight of a family whose marks sit at ``first``, ``second``.

    With base class ``b`` and twisted class ``t`` at a label, the cubic insertion
    is ``(t - b)*b^2`` and the quadratic one ``b^2``; the weight is minus the
    product of their differences.  Each class is a ``_parts`` integer over the
    shared denominator ``wd*zd``, so the weight is one ``Fraction``.
    """
    (b1, den), (t1, _), (b2, _), (t2, _) = (
        _parts(taut_c1(label, twist), spec) for label in (first, second) for twist in (0, 1)
    )
    cubic = (t1 - b1) * b1 * b1 - (t2 - b2) * b2 * b2
    quadratic = b1 * b1 - b2 * b2
    return Fraction(-cubic * quadratic, den**5)


def punctual_mark_factor(i: int, j: int, k: int, spec: Specialization) -> Rational:
    """Insertion-difference weight for the punctual strata j, k in chart i."""
    return _mark_factor(FixedPoint.punctual(i, j), FixedPoint.punctual(i, k), spec)


def _punctual_terms(i: int, spec: Specialization) -> list[tuple[Rational, Family]]:
    """The (mark factor, family) terms of the punctual families of chart
    ``i``; a family whose mark factor vanishes is left out, so its graph sum
    is never read."""
    terms = []
    for j, k in STRATUM_PAIRS:
        factor = punctual_mark_factor(i, j, k, spec)
        if factor != 0:
            terms.append((factor, punctual_family(i, j, k)))
    return terms


def _two_point_terms(spec: Specialization) -> list[tuple[Rational, Family]]:
    """The (mark factor, family) terms that :func:`two_point_total` sums.

    :func:`two_point_pairing` runs the passes of exactly these families, so
    the chart-0 triangle, whose mark factors vanish, runs none.
    """
    terms = [(_mark_factor(*family.mark_labels, spec), family) for family in all_pair_families()]
    for i in CHARTS:
        terms += _punctual_terms(i, spec)
    return terms


def _weighted_sum(terms: list[tuple[Rational, Family]], d: int, spec: Specialization) -> Rational:
    return sum((factor * graph_sum(family, d, spec) for factor, family in terms), Fraction(0))


def punctual_family_term(d: int, i: int, spec: Specialization) -> Rational:
    """Weighted graph sums of the three punctual families supported in chart i."""
    return _weighted_sum(_punctual_terms(i, spec), d, spec)


def two_point_total(d: int, spec: Specialization) -> Rational:
    """The full localized two-point sum at one specialization."""
    return _weighted_sum(_two_point_terms(spec), d, spec)


def _draw(count: int, d: int, seed: int) -> list[Specialization]:
    """``count`` points off every wall of the degree-``d`` sums."""
    return sample_specializations(count, seed=seed, forbidden=forbidden_weights(d))


def _every_system(point: Specialization) -> list[tuple]:
    """All nine curve systems, at any point: the six pair curves and the
    three punctual triangles."""
    families = [*all_pair_families(), *(all_punctual_families(i)[0] for i in CHARTS)]
    return [family.curves for family in families]


@dataclass(frozen=True)
class InvariantResult:
    """A raw two-point pairing with the specializations it was evaluated at.

    ``value`` is the pairing itself; ``invariant`` is one third of it and
    ``scaled`` is ``d`` times that.  The value agreed at every point in
    ``points``, which have distinct ratios z/w; only with two or more of them
    was that a check (``verified_constant``).
    """

    d: int
    value: Rational
    points: tuple[Specialization, ...]

    @property
    def invariant(self) -> Rational:
        """The normalized two-point invariant: one third of the pairing."""
        return self.value / 3

    @property
    def scaled(self) -> Rational:
        """``d`` times the invariant; the quantity the count tables consume."""
        return self.d * self.invariant

    @property
    def verified_constant(self) -> bool:
        """Whether the value was compared, and agreed, at two or more points."""
        return len(self.points) >= 2


def two_point_pairing(d: int, num_points: int = 3, seed: int = 0) -> InvariantResult:
    """Two-point count in degree ``d``, evaluated at ``num_points`` specializations.

    Raises :class:`ConsistencyError` if the totals differ.  With one point
    nothing is compared, and the result's ``verified_constant`` is false.
    """
    positive_degree(d)
    if num_points < 1:
        raise ValueError("need at least one specialization")
    points = _draw(num_points, d, seed)
    walk = in_batches(points, lambda point: [f.curves for _, f in _two_point_terms(point)], d)
    totals = [two_point_total(d, point) for point in walk]
    if any(total != totals[0] for total in totals):
        values = "; ".join(
            f"{format_rational(total)} at w={point.w}, z={point.z}"
            for total, point in zip(totals, points)
        )
        raise ConsistencyError(
            f"two-point total varies across specializations in degree {d}: {values}"
        )
    return InvariantResult(d, totals[0], tuple(points))


# Closed-form evaluations used as independent cross-checks.  Each is a
# verbatim rational function of the chart-local weight values; the engine
# must reproduce them pointwise.


def _chart_values(i: int, spec: Specialization) -> tuple[Rational, ...]:
    """Chart ``i``'s hyperplane weight and its two local weights, at ``spec``."""
    return tuple(evaluate_weight(t, spec) for t in (hyperplane_weight(i), *torus_weights(i)))


def pair_sum_closed(d: int, i: int, j: int, spec: Specialization) -> Rational:
    """Closed form of the residual-pair family graph sum, any degree."""
    positive_degree(d)
    wi, zi, wj, zj = (evaluate_weight(t, spec) for t in pair_weights(i, j))
    return (wi + zi) / (d * wi * wj * (wi - zi) ** 2 * zi * zj)


def _punctual_01_closed(d: int, w: Rational, z: Rational) -> Rational:
    if d == 1:
        return (w + z) / (w * (w - 2 * z) ** 2 * (w - z) * z**2)
    if d == 2:
        return (2 * w**2 + 7 * w * z + 5 * z**2) / (
            2 * w * (w - 2 * z) ** 2 * (w - z) * (2 * w - z) * z**2
        )
    if d == 3:
        return (2 * (w + z) * (w + 4 * z)) / (
            3 * w * (w - 2 * z) ** 2 * (w - z) * (2 * w - z) * z**2
        )
    if d == 4:
        return (2 * w**2 + 7 * w * z + 5 * z**2) / (
            4 * w * (w - 2 * z) ** 2 * (w - z) * (2 * w - z) * z**2
        )
    raise ValueError("closed form known only for degrees 1 through 4")


def _punctual_01_recursed(d: int, w: Rational, z: Rational) -> Rational:
    """Alternative shapes of the stratum (0,1) forms: a multiple of the degree
    one form plus a correction term."""
    first = _punctual_01_closed(1, w, z)
    correction = (3 * (w + z)) / (w * (w - 2 * z) ** 2 * (w - z) * (2 * w - z) * z)
    if d == 2:
        return first / 2 + correction
    if d == 3:
        return first / 3 + correction
    if d == 4:
        return first / 4 + correction / 2
    raise ValueError("recursed form known only for degrees 2 through 4")


def _punctual_12_closed(d: int, w: Rational, z: Rational) -> Rational:
    # The sign here is opposite to the naive reading of the degree >= 2
    # forms: only this sign is consistent with the family-term displays and
    # with the degree totals (see also the explicit d = 2 path graph).
    if d == 1:
        return Fraction(0)
    base = -(w + z) / (w * (w - 2 * z) * (w - z) ** 2 * (2 * w - z) * z)
    if d in (2, 3):
        return base
    if d == 4:
        return base / 2
    raise ValueError("closed form known only for degrees 1 through 4")


def _mark_factor_closed(i: int, j: int, k: int, spec: Specialization) -> Rational:
    g, w, z = _chart_values(i, spec)
    if (j, k) == (0, 1):
        return -3 * g * (w**2 + 2 * w * z - 8 * z**2) ** 2
    if (j, k) == (0, 2):
        return -3 * g * (-8 * w**2 + 2 * w * z + z**2) ** 2
    if (j, k) == (1, 2):
        return -243 * g * (w**2 - z**2) ** 2
    raise ValueError("stratum pair must be (0,1), (0,2) or (1,2)")


# The chart-``i`` punctual family term in degree d has the cubic
# ``w^3 + c*(w^2 z + w z^2) + z^3`` with this c.
_FAMILY_CUBIC = {1: -6, 2: 12, 3: 21, 4: 12}


def family_term_closed(d: int, i: int, spec: Specialization) -> Rational:
    """Closed form of the chart-``i`` punctual family term, degrees 1 to 4."""
    if positive_degree(d) not in _FAMILY_CUBIC:
        raise ValueError("closed form known only for degrees 1 through 4")
    g, w, z = _chart_values(i, spec)
    cubic = w**3 + _FAMILY_CUBIC[d] * (w**2 * z + w * z**2) + z**3
    return (-3 * g * cubic) / (d * w**2 * z**2)


def family_term_recursed(d: int, i: int, spec: Specialization) -> Rational:
    """Alternative shapes of the family term for degrees 2 to 4."""
    g, w, z = _chart_values(i, spec)
    first = family_term_closed(1, i, spec)
    correction = 27 * g * (w + z) / (w * z)
    if d == 2:
        return first / 2 - correction
    if d == 3:
        return first / 3 - correction
    if d == 4:
        return first / 4 - correction / 2
    raise ValueError("recursed form known only for degrees 2 through 4")


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def _pair_sum(d: int, i: int, j: int, spec: Specialization) -> Rational:
    return graph_sum(pair_family(i, j), d, spec)


def _stratum_sum(d: int, i: int, j: int, k: int, spec: Specialization) -> Rational:
    return graph_sum(punctual_family(i, j, k), d, spec)


def _stratum_closed(d: int, i: int, j: int, k: int, spec: Specialization) -> Rational:
    """The displayed stratum (j, k) sum of chart i; (0,2) is (0,1) with the axes swapped."""
    _, w, z = _chart_values(i, spec)
    if (j, k) == (1, 2):
        return _punctual_12_closed(d, w, z)
    return _punctual_01_closed(d, w, z) if (j, k) == (0, 1) else _punctual_01_closed(d, z, w)


def _stratum_recursed(d: int, i: int, j: int, k: int, spec: Specialization) -> Rational:
    return _punctual_01_recursed(d, *_chart_values(i, spec)[1:])


def _charts(*strata: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i, *strata) for i in CHARTS)


# One row per identity: its name, first degree, indices, the context text
# that a failure formats with its index, engine side and closed side.  Each
# side is called as ``side(d, *index, point)``.
_IDENTITIES = (
    ("pair family sum", 1, CHART_PAIRS, "(i,j)=({},{})", _pair_sum, pair_sum_closed),
    ("punctual family sum, strata (0,1)", 1, _charts(0, 1), "i={}",
     _stratum_sum, _stratum_closed),
    ("punctual family sum, strata (0,1), alternative shape", 2, _charts(0, 1), "i={}",
     _stratum_sum, _stratum_recursed),
    ("punctual family sum, strata (0,2), is the (0,1) sum with axes swapped", 1, _charts(0, 2),
     "i={}", _stratum_sum, _stratum_closed),
    ("punctual family sum, strata (1,2)", 1, _charts(1, 2), "i={}",
     _stratum_sum, _stratum_closed),
    ("punctual family term", 1, _charts(), "i={}", punctual_family_term, family_term_closed),
    ("punctual family term, alternative shape", 2, _charts(), "i={}",
     punctual_family_term, family_term_recursed),
)

def verify_identities(
    d_max: int = RECORDED_TOP_DEGREE, num_specs: int = 5, seed: int = 0
) -> list[IdentityCheck]:
    """Compare every engine graph sum against its closed form, pointwise.

    Returns one record per identity; failures carry the first offending
    specialization.  All comparisons are exact.
    """
    if positive_degree(d_max) > RECORDED_TOP_DEGREE:
        raise ValueError(f"closed forms cover degrees 1 through {RECORDED_TOP_DEGREE} only")
    if num_specs < 1:
        raise ValueError("need at least one specialization")
    points = _draw(num_specs, d_max, seed)
    marks = tuple((i, j, k) for i in CHARTS for j, k in STRATUM_PAIRS)
    # Each record's name, the leading arguments of both sides and the rest of
    # its row.
    records = [("mark factors match their displays", (), marks, "i={} strata=({},{})",
                punctual_mark_factor, _mark_factor_closed)]
    records += [
        (f"{name}, degree {d}", (d,), indices, context, engine, closed)
        for d in range(1, d_max + 1)
        for name, first, indices, context, engine, closed in _IDENTITIES
        if d >= first
    ]
    # One degree-d_max pass per curve system and point serves every degree.
    # A record keeps its first mismatch, points outermost.
    failures: dict[str, str] = {}
    for pt in in_batches(points, _every_system, d_max):
        for name, head, indices, context, engine, closed in records:
            for index in indices:
                if name in failures:
                    break
                lhs, rhs = engine(*head, *index, pt), closed(*head, *index, pt)
                if lhs != rhs:
                    where = f"{context.format(*index)} at w={pt.w}, z={pt.z}"
                    failures[name] = f"{where}: {lhs} != {rhs}"
    return [IdentityCheck(name, name not in failures, failures.get(name, ""))
            for name, *_ in records]


_FROZEN_INVARIANTS = {
    1: Fraction(-27),
    2: Fraction(27, 2),
    3: Fraction(18),
    4: Fraction(27, 4),
}


def reproduce(seed: int = 0) -> list[IdentityCheck]:
    """Recompute every recorded number and check it against its record.

    Covers the degree one to four invariants, every closed-form identity,
    the dual-basis and pairing pins, the count tables regenerated from the
    engine's values and the composition-law check of the table algebra,
    which holds for any values.  Returns one record per check.
    """
    checks: list[IdentityCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(IdentityCheck(name, passed, detail))

    # verify's degree-4 passes, one per curve system at each of its points,
    # the first three of which are the pairings', serve every pairing; its
    # checks are reported after the pairings'.
    identities = verify_identities(seed=seed)
    # Top degree first, so a point that a lower degree shares with a higher
    # one reuses its pass.
    outcomes: dict[int, InvariantResult | ConsistencyError] = {}
    for d in sorted(_FROZEN_INVARIANTS, reverse=True):
        try:
            outcomes[d] = two_point_pairing(d, seed=seed)
        except ConsistencyError as exc:
            outcomes[d] = exc
    pairings: dict[int, InvariantResult] = {}
    for d, expected in _FROZEN_INVARIANTS.items():
        result = outcomes[d]
        if isinstance(result, ConsistencyError):
            add(f"degree {d} invariant computes", False, str(result))
            continue
        pairings[d] = result
        add(
            f"degree {d} invariant equals {format_rational(expected)}",
            result.invariant == expected,
            f"got {format_rational(result.invariant)}",
        )
        add(
            f"degree {d} raw pairing equals {format_rational(3 * expected)}",
            result.value == 3 * expected,
            f"got {format_rational(result.value)}",
        )

    checks.extend(identities)

    datum = monomial((2, LINE), (1, POINT))
    partner = monomial((2, LINE), (1, SURFACE))
    dual = dual_basis(4)[1]
    add(
        "dual basis coefficient -1/2 on the recorded datum",
        dual == Fraction(-1, 2) * vector(partner),
        str(dual),
    )
    add(
        "point class pairs to 1 with the fundamental class",
        pairing(point_class(), fundamental_class()) == 1,
    )
    gram_ok = True
    for k in range(0, 13, 2):
        try:
            invert_matrix(gram_matrix(k))
        except ValueError:
            gram_ok = False
    add("all complementary Gram matrices are nonsingular", gram_ok)
    add(
        "untwisted divisor pairs to 1 with the contracted class",
        pairing(taut_divisor(0), contracted_class()) == 1,
    )
    add("one-point value at degree 2 equals -3/2", one_point(datum, 2) == Fraction(-3, 2))

    if len(pairings) < len(_FROZEN_INVARIANTS):
        return checks
    degrees = range(1, RECORDED_TOP_DEGREE + 1)
    f_values = [pairings[d].scaled for d in degrees]
    recorded = [d * _FROZEN_INVARIANTS[d] for d in degrees]
    add(
        "scaled values are " + ", ".join(format_rational(v) for v in recorded),
        f_values == recorded,
        ", ".join(format_rational(v) for v in f_values),
    )
    for d in degrees:
        table = two_point_table(d, f_values[d - 1])
        nonzero = sorted(v for v in table.values() if v != 0)
        expected2 = sorted([Fraction(12, d), Fraction(12, d), f_values[d - 1] / d])
        add(
            f"two-point table degree {d} has nonzero entries 12/d, 12/d, f/d",
            nonzero == expected2,
            ", ".join(format_rational(v) for v in nonzero),
        )
        add(f"composition-law consistency at degree {d}", wdvv_consistency(d, f_values[:d]))
        expansion = Fraction(0)
        a = cubic_class()
        b = base_square()
        for (cm, bm), value in table.items():
            expansion += a.coefficient(cm) * b.coefficient(bm) * value
        raw = pairings[d].value
        add(
            f"bilinear table expansion reproduces the degree {d} pairing",
            expansion == raw,
            f"expansion {format_rational(expansion)} vs {format_rational(raw)}",
        )
    tables = {d: three_point_table(d, f_values[:d]) for d in degrees}
    top = tables[1][(monomial((3, SURFACE),),) * 3]
    add("top three-point entry at degree 1 equals 243", top == 243, format_rational(top))
    t3_counts = {d: sum(1 for v in table.values() if v != 0) for d, table in tables.items()}
    add(
        "three-point tables have exactly four nonzero triples",
        all(count == 4 for count in t3_counts.values()),
        str(t3_counts),
    )
    return checks
