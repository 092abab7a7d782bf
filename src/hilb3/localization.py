"""Fixed-curve covering characters, Euler factors and stable-graph sums.

Every quantity here is an exact rational function of the two torus weights,
evaluated at rational specializations.  The contribution of a stable graph
splits into edge factors (Euler classes of covering characters), vertex
factors (Euler classes of fixed-point tangent spaces) and flag factors
(cotangent weights feeding descendant integrals over genus-zero moduli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .geometry import (
    Curve,
    FixedPoint,
    chart_weight,
    curve_catalog,
    curves_through,
    fixed_points,
    tangent_character,
    tangent_euler,
)
from .graphs import Edge, Family, StableGraph, automorphism_order
from .scalars import (
    DegenerateSpecializationError,
    Rational,
    Specialization,
    VirtualCharacter,
    Weight,
    evaluate_weight,
)

# Bounds of the caches keyed by a Specialization.  ``hilb3 verify --dmax 4
# --specs 20`` fills 1200 graph sums, 180 passes and 1020 edge factors; each
# bound leaves room for several such runs in one process.
_GRAPH_SUM_CACHE_SIZE = 8192
_PASS_CACHE_SIZE = 2048
_EDGE_EULER_CACHE_SIZE = 8192

# Covering characters of the invariant curves.  Each entry lists the degree-1
# character (the part invariant under the covering group) and the repeating
# block that appears once per nontrivial character of Z/d, shifted by a
# fractional multiple of the base weight.  All exponent pairs (a, b) denote
# a*w_i + b*z_i in the curve's principal chart i.
#
# Trivial summands are kept out of the invariant lists; the shifted blocks
# may contain (0, 0) because the shift makes them nonzero.

_PUNCTUAL_DISPLAY = {
    (0, 1): {
        "fixed_pos": ((-1, 2), (1, -2), (-1, 1), (0, -1), (-1, 0), (0, -1)),
        "fixed_neg": ((-1, -1),),
        "group_pos": ((-1, 2), (0, 0), (-1, 1)),
        "group_neg": ((-2, 1), (-1, -1), (-1, 0)),
        "base": (1, -2),
    },
    (0, 2): {
        "fixed_pos": ((2, -1), (-2, 1), (1, -1), (-1, 0), (0, -1), (-1, 0)),
        "fixed_neg": ((-1, -1),),
        "group_pos": ((2, -1), (0, 0), (1, -1)),
        "group_neg": ((1, -2), (-1, -1), (0, -1)),
        "base": (-2, 1),
    },
    (1, 2): {
        "fixed_pos": ((-1, 0), (0, -1), (-1, 1), (1, -1), (-1, 2), (0, 1), (1, 0), (2, -1)),
        "fixed_neg": ((-1, -1), (-2, -1), (-1, -2)),
        "group_pos": ((0, 0), (-1, 2), (0, 1), (1, 0), (-1, 1)),
        "group_neg": ((-2, 0), (-1, -1), (-3, 0), (-2, -1), (-1, -2)),
        "base": (1, -1),
    },
}

_PAIR_DISPLAY = {
    "fixed_pos": ((-1, 1), (1, -1), (-1, 0), (0, -1)),
    "fixed_neg": ((-1, -1),),
    "group_pos": ((0, 0), (-1, 1)),
    "group_neg": ((-2, 0), (-1, -1)),
    "base": (1, -1),
}


def _display_terms(curve: Curve) -> tuple[tuple[tuple[Weight, int], ...], tuple[tuple[Weight, int], ...], Weight]:
    """Fixed terms, repeating-block terms and base weight for a curve."""
    i = curve.chart
    if curve.kind == "pair":
        data = _PAIR_DISPLAY
        j = curve.endpoints[0].other
        extra = tuple((chart_weight(j, *ab), 1) for ab in ((-1, 0), (0, -1)))
    else:
        key = (curve.endpoints[0].stratum, curve.endpoints[1].stratum)
        data = _PUNCTUAL_DISPLAY[key]
        extra = ()
    fixed = tuple((chart_weight(i, *ab), 1) for ab in data["fixed_pos"]) + extra
    fixed += tuple((chart_weight(i, *ab), -1) for ab in data["fixed_neg"])
    group = tuple((chart_weight(i, *ab), 1) for ab in data["group_pos"])
    group += tuple((chart_weight(i, *ab), -1) for ab in data["group_neg"])
    return fixed, group, chart_weight(i, *data["base"])


@lru_cache(maxsize=None)
def edge_character(curve: Curve, degree: int) -> VirtualCharacter:
    """Virtual character of the normal directions along a degree-``degree`` cover.

    The degree-``degree`` multiple cover of an invariant curve carries a
    residual Z/``degree`` action; its character decomposes into the invariant
    part plus one copy of the repeating block per nontrivial group character,
    each shifted by the corresponding fraction of the base weight.
    """
    if degree < 1:
        raise ValueError("cover degree must be positive")
    fixed, group, base = _display_terms(curve)
    terms = list(fixed)
    for m in range(1, degree):
        shift = base.scaled(Fraction(m, degree))
        terms.extend((weight + shift, sign) for weight, sign in group)
    return VirtualCharacter(terms)


@lru_cache(maxsize=_EDGE_EULER_CACHE_SIZE)
def edge_euler(curve: Curve, degree: int, point: Specialization) -> Rational:
    """Euler factor of an edge: product of the covering weights, none of them trivial."""
    return edge_character(curve, degree).euler(point)


def pochhammer(start: Rational, length: int) -> Rational:
    """Rising product ``start * (start + 1) * ... * (start + length - 1)``."""
    out = Fraction(1)
    for step in range(length):
        out *= start + step
    return out


def edge_euler_closed(i: int, j: int, degree: int, point: Specialization) -> Rational:
    """Closed form for the edge Euler factor of the curve joining charts i, j.

    Valid for the curves of residual pairs; provides an independent route to
    the same factor that :func:`edge_euler` computes term by term.
    """
    wi = evaluate_weight(chart_weight(i, 1, 0), point)
    zi = evaluate_weight(chart_weight(i, 0, 1), point)
    wj = evaluate_weight(chart_weight(j, 1, 0), point)
    zj = evaluate_weight(chart_weight(j, 0, 1), point)
    d = degree
    sign = -1 if d % 2 == 0 else 1
    numerator = sign * math.factorial(d - 1) ** 2 * wi * wj * zi * zj * (wi - zi) ** 2
    denominator = (wi + zi)
    denominator *= pochhammer(1 + Fraction(2 * d) * wi / (zi - wi), d - 1)
    denominator *= pochhammer(1 - d * (wi + zi) / Fraction(wi - zi), d - 1)
    if denominator == 0:
        raise DegenerateSpecializationError(
            f"closed-form edge factor degenerates at w={point.w}, z={point.z}"
        )
    return numerator / denominator


def psi_vertex_integral(weights: Sequence[Rational], total_points: int) -> Rational:
    """Integrate ``prod_F 1/(omega_F - psi_F)`` over ``total_points``-pointed
    genus-zero stable curves.

    ``weights`` lists the flag weights omega_F; marked points contribute to
    ``total_points`` but carry no weight factor.
    """
    if total_points < 3:
        raise ValueError("need at least three special points")
    if not 1 <= len(weights) <= total_points:
        raise ValueError("flag count must be between 1 and the point count")
    if any(value == 0 for value in weights):
        raise DegenerateSpecializationError("vanishing flag weight")
    inverses = [Fraction(1) / value for value in weights]
    return math.prod(inverses) * sum(inverses) ** (total_points - 3)


def graph_contribution(graph: StableGraph, point: Specialization) -> Rational:
    """Exact localization contribution of one stable graph."""
    value = Fraction(1, automorphism_order(graph))
    around: list[list[Edge]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        value /= edge_euler(edge.curve, edge.degree, point)
        around[edge.head].append(edge)
        around[edge.tail].append(edge)
    for vertex, label in enumerate(graph.vertices):
        omegas = []
        for edge in around[vertex]:
            tangent = evaluate_weight(edge.curve.tangent_at(label), point)
            if tangent == 0:
                raise DegenerateSpecializationError(
                    f"flag weight vanishes at w={point.w}, z={point.z}"
                )
            omegas.append(tangent / edge.degree)
        valence = len(omegas)
        special = valence + graph.mark_count(vertex)
        value *= tangent_euler(label, point) ** (valence - 1)
        if special >= 3:
            value *= psi_vertex_integral(omegas, special)
        elif valence == 2:
            smoothing = omegas[0] + omegas[1]
            if smoothing == 0:
                raise DegenerateSpecializationError(
                    f"node smoothing weight vanishes at w={point.w}, z={point.z}"
                )
            value /= smoothing
        elif special == 1:
            value *= omegas[0]
    return value


@dataclass(frozen=True)
class _Flag:
    """One end of a degree-``degree`` cover of a family curve.

    Flags are numbered; ``far`` is the number of the flag at the other end
    of the same edge.  ``weight`` is the flag weight omega, ``series`` the
    coefficients ``omega^-(s+1) / s!`` of ``(1/omega) e^(t/omega)``, ``edge``
    the edge's share ``1/(degree * edge_euler)`` of the graph weight and
    ``cost`` its beta-weighted degree.
    """

    index: int
    far: int
    cost: int
    weight: Rational
    edge: Rational
    series: tuple[Rational, ...]


def _flags(curves: tuple[Curve, ...], d: int, point: Specialization) -> dict[FixedPoint, list[_Flag]]:
    """The flags of every cover that fits in degree ``d``, grouped by label."""
    flags: dict[FixedPoint, list[_Flag]] = {}
    count = 0
    for curve in curves:
        for degree in range(1, d // curve.beta + 1):
            edge = 1 / (degree * edge_euler(curve, degree, point))
            for end, label in enumerate(curve.endpoints):
                tangent = evaluate_weight(curve.tangents[end], point)
                if tangent == 0:
                    raise DegenerateSpecializationError(
                        f"flag weight vanishes at w={point.w}, z={point.z}"
                    )
                inverse = degree / tangent
                series = [inverse]
                for s in range(1, d + 1):
                    series.append(series[-1] * inverse / s)
                flags.setdefault(label, []).append(_Flag(
                    count + end,
                    count + 1 - end,
                    curve.beta * degree,
                    tangent / degree,
                    edge,
                    tuple(series),
                ))
            count += 2
    return flags


def _add_product(out: list, left: list, right: list, shift: int, scale: Rational = 1) -> None:
    """Add ``scale * t^shift * left * right`` to ``out``, t-degrees below ``len(out)``."""
    for a, x in enumerate(left[:max(len(out) - shift, 0)]):
        if x:
            x *= scale
            for b, y in enumerate(right[:len(out) - shift - a]):
                out[shift + a + b] += x * y


def _child_row(kids: list[_Flag], values: list, length: int) -> list:
    """The t-degrees below ``length`` of ``sum_f value_f (1/omega_f) e^(t/omega_f)``."""
    return [sum((a * f.series[s] for f, a in zip(kids, values) if a), Fraction(0))
            for s in range(length)]


def _extract(row: list, parent: _Flag, e: int) -> Rational:
    """``[t^e]`` of ``row`` times the parent flag's ``(1/omega) e^(t/omega)``."""
    return sum(
        (row[s] * parent.series[e - s] for s in range(min(e + 1, len(row))) if row[s]),
        Fraction(0),
    )


def _recursion_pass(
    curves: tuple[Curve, ...], top: int, point: Specialization
) -> dict[tuple[FixedPoint, FixedPoint], tuple[Rational, ...]]:
    """The graph sums of a curve system for every mark placement and degree.

    A placement is a pair ``first < second`` of the system's labels; the
    value at a placement is the tuple of its graph sums in degrees
    ``1..top``.  The series without the second mark are computed once, and
    those with it once per label that is a second mark; see
    :func:`graph_sum` for the recursion.
    """
    flags = _flags(curves, top, point)
    labels = sorted(flags)
    placements = [(a, b) for n, a in enumerate(labels) for b in labels[n + 1:]]
    seconds = sorted({b for _, b in placements})
    firsts = {a for a, _ in placements}
    euler = {label: tangent_euler(label, point) for label in flags}
    # Subtree sums by order, without and with the second mark, indexed by
    # the number of the flag at their root on the edge to their parent.
    # At order 0 a subtree is a leaf: a bare one gives omega, one that
    # holds the second mark 1.
    count = sum(len(here) for here in flags.values())
    bare = [[0] * (top + 1) for _ in range(count)]
    marked = {s: [[0] * (top + 1) for _ in range(count)] for s in seconds}
    for label, here in flags.items():
        for f in here:
            bare[f.index][0] = f.weight
            if label in marked:
                marked[label][f.index][0] = Fraction(1)
    two_valent: dict[tuple[int, int], Rational] = {}
    # A root reads its rows up to order ``top``; any other vertex hangs from
    # a parent flag, which costs at least the cheapest flag at its label.
    tops = {
        label: top if label in firsts else top - min(f.cost for f in here)
        for label, here in flags.items()
    }
    # The rows at each label by order N, polynomials in t: ``t X_N``,
    # ``t Y_(s,N)`` and ``t^N Lambda_N``; all vanish at order 0.  A root
    # reads ``[t^-2] (Y_s Lambda)_N / E`` at every order.
    xs = {label: [[]] for label in flags}
    ys = {label: {s: [[]] for s in seconds} for label in flags}
    logs = {label: [[]] for label in flags}
    roots = {(label, s): [Fraction(0)] * (top + 1) for label in firsts for s in seconds}
    for order in range(1, top + 1):
        for label, here in flags.items():
            if order > tops[label]:
                continue
            kids = [f for f in here if f.cost <= order]
            plain_kids = [f.edge * bare[f.far][order - f.cost] for f in kids]
            held_kids = {
                s: [f.edge * marked[s][f.far][order - f.cost] for f in kids] for s in seconds
            }
            x, log = xs[label], logs[label]
            x.append(_child_row(kids, [euler[label] * a for a in plain_kids], top - order + 1))
            # Lambda_N = X_N + sum_k (k/N) Lambda_k X_(N-k), and below
            # t-degree -1, phi_N = sum_k ((N-k)/N) Lambda_k X_(N-k).
            log.append([0] * tops[label])
            phi = [0] * (order - 1)
            _add_product(log[order], [1], x[order], order - 1)
            for k in range(1, order):
                _add_product(log[order], log[k], x[order - k], order - k - 1, Fraction(k, order))
                _add_product(phi, log[k], x[order - k], order - k - 1, Fraction(order - k, order))
            held_logs = {}
            for s in seconds:
                y = ys[label][s]
                y.append(_child_row(kids, [euler[label] * b for b in held_kids[s]], top - order))
                held_logs[s] = [0] * (order - 1)
                for k in range(1, order):
                    _add_product(held_logs[s], log[k], y[order - k], order - k - 1)
                if label in firsts and order > 1:
                    roots[label, s][order] = held_logs[s][order - 2] / euler[label]
            for parent in here:
                if order + parent.cost > top:
                    continue
                nodes = []
                for f in kids:
                    pair = (parent.index, f.index)
                    if pair not in two_valent:
                        node = parent.weight + f.weight
                        if node == 0:
                            raise DegenerateSpecializationError(
                                f"node smoothing weight vanishes at w={point.w}, z={point.z}"
                            )
                        two_valent[pair] = euler[label] / node
                    nodes.append(two_valent[pair])
                plain = sum((a * n for a, n in zip(plain_kids, nodes) if a), Fraction(0))
                bare[parent.index][order] = plain + _extract(phi, parent, order - 2)
                for s in seconds:
                    held = sum((b * n for b, n in zip(held_kids[s], nodes) if b), Fraction(0))
                    held += _extract(held_logs[s], parent, order - 2)
                    if label == s:
                        held += _extract(log[order], parent, order - 1)
                    marked[s][parent.index][order] = held
    return {
        (first, second): tuple(
            sum((f.edge * marked[second][f.far][d - f.cost] for f in flags[first] if f.cost <= d),
                roots[first, second][d])
            for d in range(1, top + 1)
        )
        for first, second in placements
    }


@dataclass
class _Pass:
    """The highest recursion pass of one curve system at one point that succeeded."""

    top: int = 0
    totals: dict = field(default_factory=dict)


@lru_cache(maxsize=_PASS_CACHE_SIZE)
def _stored_pass(curves: tuple[Curve, ...], point: Specialization) -> _Pass:
    """The one mutable record per (curve system, point) that :func:`graph_sum` fills."""
    return _Pass()


@lru_cache(maxsize=_GRAPH_SUM_CACHE_SIZE)
def graph_sum(family: Family, d: int, point: Specialization) -> Rational:
    """Sum the contributions of every degree-``d`` stable graph in a family.

    The graphs are not enumerated.  Rooted at the first mark, a graph is a
    tree of subtrees, and the sum over them weighted by ``1/|Aut|`` is a
    recursion over power series in ``q`` (beta-weighted degree, truncated at
    ``d``) and ``t`` (psi degree), with a nilpotent ``epsilon`` marking the
    subtrees that hold the second mark:

    * the children of a vertex are a multiset of subtrees, summed with
      ``1/|Aut|`` by the exponential formula.  With ``E`` the label's
      tangent Euler factor, ``pi_p = (1/omega_p) e^(t/omega_p)`` the parent
      flag's series and ``X = E G0 / t``, ``Y_s = E G1_s / t`` the child
      series without and with the second mark on label ``s``, a vertex with
      ``r >= 2`` children integrates to ``[t^-2] pi_p X^r / (r(r-1))``.
      Summed over ``r`` that is ``[t^-2] pi_p phi(X)`` with
      ``phi' = Lambda = -log(1 - X)``; the marked part (``epsilon^2 = 0``)
      is ``[t^-2] pi_p Y_s Lambda``, plus ``[t^-1] pi_p Lambda`` when the
      second mark sits on the vertex, and at the root ``[t^-2] Y_s Lambda
      / E``;
    * order by order in ``q``, ``N Lambda_N = N X_N + sum_k k Lambda_k
      X_(N-k)`` and, below t-degree -1, ``N phi_N = sum_k (N-k) Lambda_k
      X_(N-k)``, so no row depends on ``r``;
    * a bare leaf gives ``omega``, a marked leaf ``1`` and a two-valent node
      ``E/(omega_p + omega_c)``.

    A row at order ``N`` keeps only the t-degrees that can still reach an
    extraction at an order up to the pass's degree.  The only forms inverted
    are flag weights, node smoothings, edge Euler factors and the root's
    tangent Euler factor ``E``, all in :func:`forbidden_weights`; each of
    them, and every tangent weight, raises
    :class:`DegenerateSpecializationError` when it vanishes.
    :func:`graph_contribution` over :func:`~hilb3.graphs.enumerate_graphs`
    gives the same value one graph at a time.

    One pass of the recursion serves every family on the same curves at the
    same point, and every degree up to the pass's own.  The series without
    the second mark do not depend on the marks; those with it depend only on
    the second mark's label, so a punctual triangle needs two of them for
    its three placements.  The forms a pass inverts depend only on the
    curves and its degree, and a pass of degree ``D`` inverts all those of a
    pass of degree ``d <= D``.  So the highest pass that succeeded at a
    point is kept and read for every degree up to it; a higher degree runs
    a new pass, and a pass that raises is not kept.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    stored = _stored_pass(family.curves, point)
    if stored.top < d:
        stored.totals, stored.top = _recursion_pass(family.curves, d, point), d
    # Swapping the marks maps the graphs one to one and keeps each weight.
    return stored.totals[tuple(sorted(family.mark_labels))][d - 1]


def _canonical_sign(weight: Weight) -> Weight:
    if weight.a < 0 or (weight.a == 0 and weight.b < 0):
        return -weight
    return weight


@lru_cache(maxsize=None)
def forbidden_weights(d_max: int) -> tuple[Weight, ...]:
    """Every linear form that may be inverted in a degree <= ``d_max`` sum.

    Specializations drawn against this list keep all edge, vertex, flag and
    node-smoothing denominators nonzero, as well as the factors of the
    closed-form edge products used for cross-checks.
    """
    found: set[Weight] = set()

    def note(weight: Weight) -> None:
        if not weight.is_zero():
            found.add(_canonical_sign(weight))

    for label in fixed_points():
        for weight, _ in tangent_character(label).items():
            note(weight)
    for curve in curve_catalog():
        for degree in range(1, d_max // curve.beta + 1):
            for weight, _ in edge_character(curve, degree).items():
                note(weight)
    for label in fixed_points():
        through = curves_through(label)
        for first in through:
            for second in through:
                t1 = first.tangent_at(label)
                t2 = second.tangent_at(label)
                for d1 in range(1, d_max // first.beta + 1):
                    for d2 in range(1, d_max // second.beta + 1):
                        note(t1.scaled(d2) + t2.scaled(d1))
    for i in range(3):
        wi = chart_weight(i, 1, 0)
        zi = chart_weight(i, 0, 1)
        for degree in range(1, d_max + 1):
            for k in range(degree - 1):
                note((zi - wi).scaled(k + 1) + wi.scaled(2 * degree))
                note((wi - zi).scaled(k + 1) - (wi + zi).scaled(degree))
    return tuple(sorted(found, key=lambda w: (w.a, w.b)))
