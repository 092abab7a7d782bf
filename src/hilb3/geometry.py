"""Torus geometry of the Hilbert scheme of three points in the plane.

The two-dimensional torus acts on the plane with three fixed points, indexed
by charts 0, 1, 2.  One table gives the weights of the homogeneous
coordinates ``x_0, x_1, x_2`` in the global generators ``w, z``.  Chart
``i``'s local coordinates are ``x_j/x_i`` for the two other charts ``j``, so
its weights ``(w_i, z_i)`` are differences of entries of that table, and its
hyperplane weight is the entry of ``x_i``.  The induced action on the
Hilbert scheme of three points has 22 fixed points, one per 3-coloured
partition of 3, and 15 invariant curves that the Hilbert-Chow morphism
contracts; one point, three reduced points at the chart origins, lies on none.
Each fixed point is a monomial ideal in every chart it meets.  From the boxes
of those ideals this module derives the tangent characters Hom(I, O/I), the
first Chern classes of the two tautological bundles, and the curve catalog
with endpoint tangent weights and curve-class multiples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Literal

from .scalars import Specialization, VirtualCharacter, Weight

__all__ = [
    "CHARTS",
    "CHART_PAIRS",
    "STRATUM_PAIRS",
    "FixedPoint",
    "Curve",
    "torus_weights",
    "pair_weights",
    "hyperplane_weight",
    "chart_weight",
    "fixed_points",
    "ideals",
    "tangent_character",
    "tangent_euler",
    "taut_c1",
    "curve_catalog",
    "curves_through",
]

CHARTS = (0, 1, 2)
# The ordered pairs of distinct charts, row-major.
CHART_PAIRS = tuple((i, j) for i in CHARTS for j in CHARTS if i != j)
# The pairs of punctual strata that a contracted curve in one chart joins.
STRATUM_PAIRS = ((0, 1), (0, 2), (1, 2))

# Weights of the homogeneous coordinates x_0, x_1, x_2 in the global
# character generators, and from them each chart's (see torus_weights).
_COORDINATES = {0: Weight(0, 0), 1: Weight(1, 0), 2: Weight(0, 1)}
_TORUS_WEIGHTS = {i: tuple(_COORDINATES[j] - _COORDINATES[i] for c, j in CHART_PAIRS if c == i)
                  for i in CHARTS}


def _check_chart(chart: int) -> int:
    if chart not in CHARTS:
        raise ValueError(f"chart must be 0, 1 or 2, got {chart}")
    return chart


def torus_weights(chart: int) -> tuple[Weight, Weight]:
    """The weights (w_i, z_i) of chart i's coordinates x_j/x_i, the other charts j in order."""
    return _TORUS_WEIGHTS[_check_chart(chart)]


def pair_weights(i: int, j: int) -> tuple[Weight, Weight, Weight, Weight]:
    """The weights (w_i, z_i, w_j, z_j) of the two charts that a pair curve joins."""
    if (i, j) not in CHART_PAIRS:
        raise ValueError(f"no pair curve for charts ({i},{j})")
    return torus_weights(i) + torus_weights(j)


def hyperplane_weight(chart: int) -> Weight:
    """The hyperplane bundle's weight at chart i's fixed point: that of ``x_i``."""
    return _COORDINATES[_check_chart(chart)]


def chart_weight(chart: int, a: int | Fraction, b: int | Fraction) -> Weight:
    """The global weight of the local character ``a*w_i + b*z_i``."""
    wi, zi = torus_weights(chart)
    return wi.scaled(a) + zi.scaled(b)


@dataclass(frozen=True, order=True)
class FixedPoint:
    """A torus-fixed length-3 subscheme: a monomial ideal in each chart it meets.

    In the local coordinates ``x, y`` of weights ``(w_i, z_i)``, two shapes occur:

    * ``punctual``: the full length sits at chart ``chart``'s origin.
      ``stratum`` 0, 1 and 2 are the ideals (x^2, xy, y^2), (x, y^3) and
      (x^3, y).
    * ``pair``: a doubled point at chart ``chart``, (x, y^2) for ``local`` 1
      and (x^2, y) for ``local`` 2, plus the reduced point (x, y) at chart
      ``other``; :func:`ideals` gives these ideals by their boxes.

    Field order gives the lexicographic comparison used to normalize which
    marked point goes first: dataclass ordering compares
    ``(kind, chart, stratum, other, local)``.

    The hash of that tuple is computed once, at construction, since points
    key the enumeration's caches and shared vertex tuples.  It hashes a
    string, so it holds for one process only; a pickled point is rebuilt
    from its fields and hashed afresh.
    """

    kind: Literal["pair", "punctual"]
    chart: int
    stratum: int = -1
    other: int = -1
    local: int = -1
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.kind, self.chart, self.stratum, self.other, self.local))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return FixedPoint, (self.kind, self.chart, self.stratum, self.other, self.local)

    @staticmethod
    def punctual(chart: int, stratum: int) -> "FixedPoint":
        _check_chart(chart)
        if stratum not in (0, 1, 2):
            raise ValueError(f"stratum must be 0, 1 or 2, got {stratum}")
        return FixedPoint("punctual", chart, stratum=stratum)

    @staticmethod
    def pair(chart: int, other: int, local: int) -> "FixedPoint":
        if chart not in CHARTS or other not in CHARTS:
            raise ValueError(f"charts must be 0, 1 or 2, got {chart} and {other}")
        if chart == other:
            raise ValueError("pair points need two distinct charts")
        if local not in (1, 2):
            raise ValueError(f"local must be 1 or 2, got {local}")
        return FixedPoint("pair", chart, other=other, local=local)

    def __str__(self) -> str:
        if self.kind == "punctual":
            return f"triple[{self.chart};{self.stratum}]"
        return f"double[{self.chart};{self.local}]+point[{self.other}]"


@lru_cache(maxsize=None)
def fixed_points() -> tuple[FixedPoint, ...]:
    """The 21 torus-fixed points that label vertices: 9 punctual and 12 pair-type.
    The 22nd, three reduced points at the chart origins, is on no contracted curve."""
    points = [FixedPoint.punctual(i, k) for i in CHARTS for k in (0, 1, 2)]
    points += [FixedPoint.pair(i, j, s) for i, j in CHART_PAIRS for s in (1, 2)]
    return tuple(points)


# The boxes (p, q) of each ideal at ``chart``: the monomials x^p y^q outside it.
_BOXES = {
    ("punctual", 0): ((0, 0), (1, 0), (0, 1)),  # (x^2, xy, y^2)
    ("punctual", 1): ((0, 0), (0, 1), (0, 2)),  # (x, y^3)
    ("punctual", 2): ((0, 0), (1, 0), (2, 0)),  # (x^3, y)
    ("pair", 1): ((0, 0), (0, 1)),  # (x, y^2)
    ("pair", 2): ((0, 0), (1, 0)),  # (x^2, y)
}


def ideals(point: FixedPoint) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The point's ideal in each chart it meets, as ``(chart, boxes)`` pairs: the
    Young diagram of the partition that indexes it in that chart's Hilbert scheme."""
    if point.kind == "punctual":
        return ((point.chart, _BOXES["punctual", point.stratum]),)
    return ((point.chart, _BOXES["pair", point.local]), (point.other, ((0, 0),)))


def _local_weights(boxes: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Exponents ``(a, b)`` of the weights ``a*w_i + b*z_i`` of Hom(I, O/I).

    A box with arm ``a`` (the boxes after it along x) and leg ``l`` (the boxes
    after it along y) gives ``(a, -l-1)`` and ``(-a-1, l)`` (Ellingsrud-Stromme).
    """
    weights = []
    for p, q in boxes:
        arm = sum(1 for s, t in boxes if t == q and s > p)
        leg = sum(1 for s, t in boxes if s == p and t > q)
        weights += [(arm, -leg - 1), (-arm - 1, leg)]
    return weights


@lru_cache(maxsize=None)
def tangent_character(point: FixedPoint) -> VirtualCharacter:
    """Six-dimensional tangent representation at a fixed point."""
    return VirtualCharacter(
        (chart_weight(c, a, b), 1) for c, boxes in ideals(point) for a, b in _local_weights(boxes)
    )


def tangent_euler(point: FixedPoint, spec: Specialization) -> Fraction:
    """Product of the six tangent weights at the point."""
    return tangent_character(point).euler(spec)


@lru_cache(maxsize=None, typed=True)
def taut_c1(point: FixedPoint, twist: int) -> Weight:
    """First Chern class of a tautological bundle restricted to a fixed point.

    ``twist`` selects the bundle: 0 is the structure-sheaf pushforward, 1 the
    hyperplane-twisted one.  A box ``(a, b)`` in chart ``i`` has the weight
    ``a*w_i + b*z_i``, shifted by ``twist`` times the chart's hyperplane weight.
    """
    if not isinstance(twist, int) or isinstance(twist, bool):
        raise TypeError(f"twist must be an int, got {twist!r}")
    if twist not in (0, 1):
        raise ValueError(f"twist must be 0 or 1, got {twist}")
    total = Weight(0, 0)
    for chart, boxes in ideals(point):
        for a, b in boxes:
            total += chart_weight(chart, a, b) + hyperplane_weight(chart).scaled(twist)
    return total


@dataclass(frozen=True)
class Curve:
    """A contracted invariant rational curve with its localization data.

    ``endpoints`` are the two fixed points on the curve; ``tangents`` are the
    curve's tangent weights there (negatives of each other); ``beta`` is the
    multiple of the primitive contracted curve class the curve represents.
    """

    name: str
    kind: Literal["pair", "punctual"]
    chart: int
    endpoints: tuple[FixedPoint, FixedPoint]
    tangents: tuple[Weight, Weight]
    beta: int

    def tangent_at(self, point: FixedPoint) -> Weight:
        if point == self.endpoints[0]:
            return self.tangents[0]
        if point == self.endpoints[1]:
            return self.tangents[1]
        raise ValueError(f"{point} is not an endpoint of {self.name}")

    def __str__(self) -> str:
        return self.name


def _curve(first: FixedPoint, second: FixedPoint) -> Curve:
    """The contracted curve from ``first`` to ``second``, points of one support.

    Its tangent at ``first`` is the one weight of ``first``'s ideal, in a chart
    both points meet, whose negative is a weight of ``second``'s ideal there.
    Its class multiple is ``(c_1(first) - c_1(second)) / tangent``.
    """
    support = (first.kind, first.chart, first.other)
    tangents = {
        chart_weight(chart, a, b)
        for (chart, boxes), (_, others) in zip(ideals(first), ideals(second))
        for a, b in set(_local_weights(boxes)) & {(-s, -t) for s, t in _local_weights(others)}
    }
    if support != (second.kind, second.chart, second.other) or len(tangents) != 1:
        raise ValueError(f"no contracted curve joins {first} and {second}")
    (tangent,) = tangents
    diff = taut_c1(first, 0) - taut_c1(second, 0)
    beta = (diff.a if tangent.a else diff.b) // (tangent.a or tangent.b)
    if tangent.scaled(beta) != diff:
        raise ValueError(f"c_1 of {first} and {second} differ by no multiple of {tangent}")
    i = first.chart
    name = f"pair({i},{first.other})" if first.kind == "pair" else (
        f"punctual({i};{first.stratum},{second.stratum})")
    return Curve(name, first.kind, i, (first, second), (tangent, -tangent), beta)


@lru_cache(maxsize=None)
def curve_catalog() -> tuple[Curve, ...]:
    """All 15 contracted invariant curves: 6 pair-type, 9 punctual."""
    ends = [(FixedPoint.pair(i, j, 1), FixedPoint.pair(i, j, 2)) for i, j in CHART_PAIRS]
    ends += [(FixedPoint.punctual(i, j), FixedPoint.punctual(i, k))
             for i in CHARTS for j, k in STRATUM_PAIRS]
    return tuple(_curve(first, second) for first, second in ends)


@lru_cache(maxsize=None)
def curves_through(point: FixedPoint) -> tuple[Curve, ...]:
    return tuple(c for c in curve_catalog() if point in c.endpoints)


def pair_curve(i: int, j: int) -> Curve:
    """The curve joining the two pair-type points over charts (i, j)."""
    for curve in curve_catalog():
        if curve.kind == "pair" and curve.chart == i and curve.endpoints[0].other == j:
            return curve
    raise ValueError(f"no pair curve for charts ({i},{j})")


def punctual_curve(i: int, j: int, k: int) -> Curve:
    """The punctual curve in chart ``i`` joining strata ``j`` and ``k``."""
    for curve in curve_catalog():
        if curve.kind == "punctual" and curve.chart == i and (
                tuple(end.stratum for end in curve.endpoints) == (j, k)):
            return curve
    raise ValueError(f"no punctual curve for ({i};{j},{k})")
