"""Torus geometry of the Hilbert scheme of three points in the plane.

The two-dimensional torus acts on the plane with three fixed points, indexed
by charts 0, 1, 2.  Chart ``i`` has local coordinate weights ``(w_i, z_i)``
expressed below in the global generators ``w, z``.  The induced action on the
Hilbert scheme of three points has 21 fixed points and 15 invariant curves
that the Hilbert-Chow morphism contracts; this module records that data
exactly: tangent characters at fixed points, first Chern classes of the two
tautological bundles, and the curve catalog with endpoint tangent weights and
curve-class multiples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

from .scalars import Specialization, VirtualCharacter, Weight

__all__ = [
    "CHARTS",
    "FixedPoint",
    "Curve",
    "torus_weights",
    "hyperplane_weight",
    "chart_weight",
    "fixed_points",
    "tangent_character",
    "tangent_euler",
    "taut_c1",
    "curve_catalog",
    "curves_through",
]

CHARTS = (0, 1, 2)

# Local coordinate weights (w_i, z_i) of the three plane charts in the
# global character generators.
_CHART_W = {0: Weight(1, 0), 1: Weight(-1, 0), 2: Weight(0, -1)}
_CHART_Z = {0: Weight(0, 1), 1: Weight(-1, 1), 2: Weight(1, -1)}

# Weight of the hyperplane line bundle restricted to the chart's fixed point.
_HYPERPLANE = {0: Weight(0, 0), 1: Weight(1, 0), 2: Weight(0, 1)}


def torus_weights(chart: int) -> tuple[Weight, Weight]:
    """The pair (w_i, z_i) of local coordinate weights for a chart."""
    return _CHART_W[chart], _CHART_Z[chart]


def hyperplane_weight(chart: int) -> Weight:
    return _HYPERPLANE[chart]


def chart_weight(chart: int, a: int | Fraction, b: int | Fraction) -> Weight:
    """The global weight of the local character ``a*w_i + b*z_i``."""
    wi, zi = torus_weights(chart)
    return wi.scaled(Fraction(a)) + zi.scaled(Fraction(b))


@dataclass(frozen=True, order=True)
class FixedPoint:
    """A torus-fixed length-3 subscheme.

    Two shapes occur:

    * ``punctual``: the full length sits at one chart's origin.  ``stratum``
      0 is the square of the maximal ideal (the symmetric triple point);
      strata 1 and 2 are the two curvilinear triples of third contact order
      along the two axes.
    * ``pair``: a length-2 subscheme at chart ``chart`` plus a reduced point
      at chart ``other``.  ``local`` 1 and 2 pick the axis the doubled point
      points along.

    Field order gives the lexicographic comparison used to normalize which
    marked point goes first: dataclass ordering compares
    ``(kind, chart, stratum, other, local)``.
    """

    kind: Literal["pair", "punctual"]
    chart: int
    stratum: int = -1
    other: int = -1
    local: int = -1

    @staticmethod
    def punctual(chart: int, stratum: int) -> "FixedPoint":
        if stratum not in (0, 1, 2):
            raise ValueError(f"stratum must be 0, 1 or 2, got {stratum}")
        return FixedPoint("punctual", chart, stratum=stratum)

    @staticmethod
    def pair(chart: int, other: int, local: int) -> "FixedPoint":
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
    """All 21 torus-fixed points: 9 punctual and 12 pair-type."""
    points = [FixedPoint.punctual(i, k) for i in CHARTS for k in (0, 1, 2)]
    points += [
        FixedPoint.pair(i, j, s)
        for i in CHARTS
        for j in CHARTS
        if i != j
        for s in (1, 2)
    ]
    return tuple(points)


# Tangent characters as local exponent pairs (a, b), one entry per weight
# a*w_i + b*z_i in the distinguished chart.  Pair-type points carry four
# weights in the doubled point's chart and two in the reduced point's chart.
_TANGENT_PUNCTUAL = {
    0: ((-1, 0), (-1, 0), (0, -1), (0, -1), (-2, 1), (1, -2)),
    1: ((-1, 2), (-1, 1), (-1, 0), (0, -3), (0, -2), (0, -1)),
    2: ((-3, 0), (-2, 0), (-1, 0), (2, -1), (1, -1), (0, -1)),
}
_TANGENT_PAIR = {
    1: ((-1, 1), (-1, 0), (0, -2), (0, -1)),
    2: ((-2, 0), (-1, 0), (1, -1), (0, -1)),
}
_TANGENT_REDUCED = ((-1, 0), (0, -1))


@lru_cache(maxsize=None)
def tangent_character(point: FixedPoint) -> VirtualCharacter:
    """Six-dimensional tangent representation at a fixed point."""
    if point.kind == "punctual":
        pairs = _TANGENT_PUNCTUAL[point.stratum]
        weights = [chart_weight(point.chart, a, b) for a, b in pairs]
    else:
        weights = [chart_weight(point.chart, a, b) for a, b in _TANGENT_PAIR[point.local]]
        weights += [chart_weight(point.other, a, b) for a, b in _TANGENT_REDUCED]
    return VirtualCharacter((w, 1) for w in weights)


def tangent_euler(point: FixedPoint, spec: Specialization) -> Fraction:
    """Product of the six tangent weights at the point."""
    return tangent_character(point).euler(spec)


@lru_cache(maxsize=None)
def taut_c1(point: FixedPoint, twist: int) -> Weight:
    """First Chern class of a tautological bundle restricted to a fixed point.

    ``twist`` selects the bundle: 0 is the structure-sheaf pushforward, 1 the
    hyperplane-twisted one.
    """
    if twist not in (0, 1):
        raise ValueError(f"twist must be 0 or 1, got {twist}")
    i = point.chart
    wi, zi = torus_weights(i)
    if point.kind == "pair":
        base = zi if point.local == 1 else wi
        if twist == 0:
            return base
        gi, gj = hyperplane_weight(i), hyperplane_weight(point.other)
        return base + gi.scaled(2) + gj
    base = {0: wi + zi, 1: zi.scaled(3), 2: wi.scaled(3)}[point.stratum]
    if twist == 0:
        return base
    return base + hyperplane_weight(i).scaled(3)


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


def _pair_curve(i: int, j: int) -> Curve:
    # Doubled point at chart i sliding between its two axis directions,
    # reduced point parked at chart j.
    first = FixedPoint.pair(i, j, 1)
    second = FixedPoint.pair(i, j, 2)
    t_first = chart_weight(i, -1, 1)
    return Curve(
        name=f"pair({i},{j})",
        kind="pair",
        chart=i,
        endpoints=(first, second),
        tangents=(t_first, -t_first),
        beta=1,
    )


# Curve tangent weights at the first endpoint of each punctual curve, as
# local exponents in chart i.  The (1,2) curve triples the primitive class.
_PUNCTUAL_TANGENT_FIRST = {(0, 1): (1, -2), (0, 2): (-2, 1), (1, 2): (-1, 1)}
_PUNCTUAL_BETA = {(0, 1): 1, (0, 2): 1, (1, 2): 3}


def _punctual_curve(i: int, j: int, k: int) -> Curve:
    first = FixedPoint.punctual(i, j)
    second = FixedPoint.punctual(i, k)
    a, b = _PUNCTUAL_TANGENT_FIRST[(j, k)]
    t_first = chart_weight(i, a, b)
    return Curve(
        name=f"punctual({i};{j},{k})",
        kind="punctual",
        chart=i,
        endpoints=(first, second),
        tangents=(t_first, -t_first),
        beta=_PUNCTUAL_BETA[(j, k)],
    )


@lru_cache(maxsize=None)
def curve_catalog() -> tuple[Curve, ...]:
    """All 15 contracted invariant curves: 6 pair-type, 9 punctual."""
    curves = [_pair_curve(i, j) for i in CHARTS for j in CHARTS if i != j]
    curves += [
        _punctual_curve(i, j, k)
        for i in CHARTS
        for (j, k) in ((0, 1), (0, 2), (1, 2))
    ]
    return tuple(curves)


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
    name = f"punctual({i};{j},{k})"
    for curve in curve_catalog():
        if curve.name == name:
            return curve
    raise ValueError(f"no punctual curve for ({i};{j},{k})")
