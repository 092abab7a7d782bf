"""Fixed-curve covering characters, Euler factors and stable-graph sums.

Every quantity here is an exact rational function of the two torus weights,
evaluated at rational specializations.  The contribution of a stable graph
splits into edge factors (Euler classes of covering characters), vertex
factors (Euler classes of fixed-point tangent spaces) and flag factors
(cotangent weights feeding descendant integrals over genus-zero moduli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .geometry import (
    Curve,
    FixedPoint,
    chart_weight,
    curve_catalog,
    curves_through,
    fixed_points,
    tangent_euler,
)
from .graphs import Edge, Family, StableGraph, automorphism_order
from .scalars import (
    DegenerateSpecializationError,
    Rational,
    Specialization,
    VirtualCharacter,
    Weight,
    _parts,
    _walls,
    evaluate_weight,
    invertible,
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
    return numerator / invertible(denominator, "closed-form edge denominator", point)


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
            omegas.append(invertible(tangent, "flag weight", point) / edge.degree)
        valence = len(omegas)
        special = valence + graph.mark_count(vertex)
        value *= tangent_euler(label, point) ** (valence - 1)
        if special >= 3:
            value *= psi_vertex_integral(omegas, special)
        elif valence == 2:
            value /= invertible(omegas[0] + omegas[1], "node smoothing weight", point)
        elif special == 1:
            value *= omegas[0]
    return value


@dataclass(frozen=True)
class _Flag:
    """One end of a degree-``degree`` cover of a family curve, at one point.

    Flags are numbered; ``far`` is the number of the flag at the other end
    of the same edge.  ``weight`` is the flag weight omega, ``series`` the
    coefficients ``omega^-(s+1) / s!`` of ``(1/omega) e^(t/omega)``, ``edge``
    the edge's share ``E/(degree * edge_euler)`` of the graph weight, with
    the label's tangent Euler factor ``E``, and ``cost`` its beta-weighted
    degree.  ``nodes`` are the factors ``1/(omega + omega_f)`` for the flags
    ``f`` at the same label, cheapest first, that fit with this one in the
    pass's degree.  :func:`_flags` inverts all these forms.
    """

    index: int
    far: int
    cost: int
    weight: Rational
    edge: Rational
    series: tuple[Rational, ...]
    nodes: tuple[Rational, ...] = ()


def _flags(
    curves: tuple[Curve, ...], top: int, point: Specialization
) -> tuple[dict[FixedPoint, list[_Flag]], dict[FixedPoint, Rational]]:
    """The flags of every cover that fits in degree ``top``, grouped by label
    and cheapest first, and each label's tangent Euler factor ``E``.

    These are all the values of a pass that depend on the point, so a pass
    raises here or nowhere.
    """
    labels = {label for curve in curves if curve.beta <= top for label in curve.endpoints}
    euler = {label: tangent_euler(label, point) for label in labels}
    flags: dict[FixedPoint, list[_Flag]] = {}
    count = 0
    for curve in curves:
        for degree in range(1, top // curve.beta + 1):
            factor = edge_euler(curve, degree, point)
            share = Fraction(factor.denominator, degree * factor.numerator)
            for end, label in enumerate(curve.endpoints):
                # omega = tangent/degree = num/den; each series entry
                # omega^-(s+1)/s! is reduced once, from integers.
                num, den = _parts(curve.tangents[end], point)
                den *= degree
                invertible(num, "flag weight", point)
                series = tuple(
                    Fraction(den ** (s + 1), num ** (s + 1) * math.factorial(s))
                    for s in range(top + 1)
                )
                flags.setdefault(label, []).append(_Flag(
                    count + end, count + 1 - end, curve.beta * degree, Fraction(num, den),
                    euler[label] * share, series,
                ))
            count += 2
    for here in flags.values():
        here.sort(key=lambda f: f.cost)
        here[:] = [replace(p, nodes=tuple(
            _node(p.weight, f.weight, point) for f in here if p.cost + f.cost <= top
        )) for p in here]
    return flags, euler


def _node(omega: Rational, other: Rational, point: Specialization) -> Rational:
    """The node factor ``1/(omega + other)``, reduced once."""
    num = omega.numerator * other.denominator + other.numerator * omega.denominator
    invertible(num, "node smoothing weight", point)
    return Fraction(omega.denominator * other.denominator, num)


def _dot(pairs: Iterable[tuple[Rational, Rational]]) -> Rational:
    """The exact sum of ``x * y`` over ``pairs``; the int ``0`` when it vanishes.

    The sum is formed from the operands' integer numerators and denominators
    over an lcm denominator, at most one gcd per term, and reduced once,
    into one ``Fraction``.  This is the pass's only multiply-accumulate.
    """
    num, den = 0, 1
    for x, y in pairs:
        n = x.numerator * y.numerator
        if n:
            d = x.denominator * y.denominator
            if d == den:
                num += n
            else:
                g = math.gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den *= d // g
    return Fraction(num, den) if num else 0


def _add_product(
    out: list, left: list, right: list, shift: int, scale: Rational | None = None
) -> None:
    """Add ``scale * t^shift * left * right`` to ``out``, t-degrees below ``len(out)``.

    Each entry of ``out`` takes the sum of its products in one :func:`_dot`,
    which ``scale``, when given, multiplies once.
    """
    for n in range(shift, len(out)):
        m = n - shift
        low = max(m + 1 - len(right), 0)
        total = _dot(zip(left[low:m + 1], right[m - low::-1]))
        if total:
            if scale is not None:
                total *= scale
            out[n] = out[n] + total if out[n] else total


def _child_row(kids: list[_Flag], values: list, length: int) -> list:
    """The t-degrees below ``length`` of ``sum_f value_f (1/omega_f) e^(t/omega_f)``."""
    live = [(a, f.series) for f, a in zip(kids, values) if a]
    return [_dot((a, series[s]) for a, series in live) for s in range(length)]


def _extract(row: list, parent: _Flag, e: int) -> list:
    """The pairs whose products sum to ``[t^e]`` of ``row`` times the parent
    flag's ``(1/omega) e^(t/omega)``."""
    return list(zip(row[:e + 1], parent.series[e::-1]))


def _recursion_pass(
    curves: tuple[Curve, ...], top: int, point: Specialization
) -> dict[tuple[FixedPoint, FixedPoint], tuple[Rational, ...]]:
    """The graph sums of a curve system for every mark placement and degree.

    A placement is a pair ``first < second`` of the system's labels; the
    value at a placement is the tuple of its graph sums in degrees
    ``1..top``.  The series run in channels: channel 0 holds the subtrees
    without the second mark, and channel ``c >= 1`` those holding it on
    label ``marks[c]``, one channel per label that is a second mark.  Every
    step serves all channels; see :func:`graph_sum` for the recursion.
    """
    flags, euler = _flags(curves, top, point)
    labels = sorted(flags)
    placements = [(a, b) for n, a in enumerate(labels) for b in labels[n + 1:]]
    marks = [None] + sorted({b for _, b in placements})
    firsts = {a for a, _ in placements}
    # Subtree sums by channel and order, indexed by the number of the flag
    # at their root on the edge to their parent.  At order 0 a subtree is a
    # leaf: one without the second mark gives omega, one that holds it 1.
    count = sum(len(here) for here in flags.values())
    sums = [[[0] * (top + 1) for _ in range(count)] for _ in marks]
    for label, here in flags.items():
        for f in here:
            sums[0][f.index][0] = f.weight
            if label in marks:
                sums[marks.index(label)][f.index][0] = 1
    # A root reads its rows up to order ``top``; any other vertex hangs from
    # a parent flag, which costs at least the cheapest flag at its label.
    tops = {
        label: top if label in firsts else top - here[0].cost
        for label, here in flags.items()
    }
    # The rows at each label by order N, polynomials in t: ``t Y_(c,N)`` in
    # each channel, with ``Y_0 = X``, and ``t^N Lambda_N``; all vanish at
    # order 0.  A root keeps ``E`` times its graph sum at every order: the
    # children's ``sum_f e_f M_f`` plus ``[t^-2] (Y_c Lambda)_N``.
    rows = {label: [[[]] for _ in marks] for label in flags}
    logs = {label: [[]] for label in flags}
    roots = {(label, s): [0] * (top + 1) for label in firsts for s in marks[1:]}
    for order in range(1, top + 1):
        for label, here in flags.items():
            if order > tops[label]:
                continue
            kids = [f for f in here if f.cost <= order]
            # A child subtree whose sum is zero adds nothing, so it is not multiplied.
            values = [
                [f.edge * m if (m := channel[f.far][order - f.cost]) else 0 for f in kids]
                for channel in sums
            ]
            row, log = rows[label], logs[label]
            for y, value in zip(row, values):
                y.append(_child_row(kids, value, top - order))
            # Lambda_N = X_N + sum_k (k/N) Lambda_k X_(N-k); its row t^N Lambda_N
            # starts as the row t X_N, raised by N - 1 t-degrees.
            x = row[0]
            log.append(([0] * (order - 1) + x[order] + [0])[:tops[label]])
            for k in range(1, order):
                _add_product(log[order], log[k], x[order - k], order - k - 1, Fraction(k, order))
            # Below t-degree -1, sum_k Lambda_k Y_(c,N-k) in every channel.
            # X_N has no term there, so channel 0, started from -Lambda_N,
            # leaves phi_N = sum_k ((N-k)/N) Lambda_k X_(N-k).
            below = [[-q for q in log[order][:order - 1]]]
            below += [[0] * (order - 1) for _ in marks[1:]]
            for out, y in zip(below, row):
                for k in range(1, order):
                    _add_product(out, log[k], y[order - k], order - k - 1)
            if label in firsts:
                for c, mark in enumerate(marks[1:], 1):
                    roots[label, mark][order] = _dot((v, 1) for v in values[c] + below[c][-1:])
            for parent in here:
                if order + parent.cost > top:
                    break
                for c, mark in enumerate(marks):
                    # The kids are a prefix of the parent's nodes.
                    pairs = list(zip(values[c], parent.nodes))
                    pairs += _extract(below[c], parent, order - 2)
                    if label == mark:
                        pairs += _extract(log[order], parent, order - 1)
                    sums[c][parent.index][order] = _dot(pairs)
    return {
        (first, second): tuple(value / euler[first] for value in roots[first, second][1:])
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
    ``d``) and ``t`` (psi degree), kept in channels.  Channel 0 sums the
    subtrees without the second mark, and channel ``c >= 1`` those that hold
    it on label ``marks[c]``, the coefficient of a nilpotent ``epsilon``:

    * the children of a vertex are a multiset of subtrees, summed with
      ``1/|Aut|`` by the exponential formula.  With ``E`` the label's
      tangent Euler factor, ``pi_p = (1/omega_p) e^(t/omega_p)`` the parent
      flag's series and ``Y_c = E G_c / t`` the child series of channel
      ``c``, ``X = Y_0``, a vertex with ``r >= 2`` children integrates to
      ``[t^-2] pi_p X^r / (r(r-1))``.  Summed over ``r`` that is ``[t^-2]
      pi_p phi(X)`` with ``phi' = Lambda = -log(1 - X)``; in a channel
      ``c >= 1`` (``epsilon^2 = 0``) it is ``[t^-2] pi_p Y_c Lambda``, plus
      ``[t^-1] pi_p Lambda`` when the vertex's label is ``marks[c]``, and at
      the root ``[t^-2] Y_c Lambda / E``;
    * order by order in ``q``, ``N Lambda_N = N X_N + sum_k k Lambda_k
      X_(N-k)``.  ``X_N`` has no term below t-degree -1, so there ``phi_N
      = sum_k Lambda_k X_(N-k) - Lambda_N``: every channel takes ``sum_k
      Lambda_k Y_(c,N-k)``, and channel 0 subtracts ``Lambda_N``.  No row
      depends on ``r``;
    * a leaf gives ``omega`` in channel 0, ``1`` in the channel of its own
      label and 0 in the others; a two-valent node gives
      ``E/(omega_p + omega_c)``.

    A row at order ``N`` keeps only the t-degrees that can still reach an
    extraction at an order up to the pass's degree.  The only forms inverted
    are flag weights, node smoothings, edge Euler factors and the root's
    tangent Euler factor ``E``, all in :func:`forbidden_weights`.
    :func:`_flags` inverts all of them before the order loop, which does
    series arithmetic only; each of them, and every tangent weight, goes
    through :func:`~hilb3.scalars.invertible` and raises
    :class:`DegenerateSpecializationError` when it vanishes.
    :func:`graph_contribution` over :func:`~hilb3.graphs.enumerate_graphs`
    gives the same value one graph at a time.

    One pass of the recursion serves every family on the same curves at the
    same point, and every degree up to the pass's own.  Channel 0 does not
    depend on the marks, and a channel ``c >= 1`` only on the second mark's
    label, so a punctual triangle needs two marked channels for its three
    placements.  The forms a pass inverts depend only on the curves and its
    degree, and a pass of degree ``D`` inverts all those of a pass of degree
    ``d <= D``.  So the highest pass that succeeded at a
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


@lru_cache(maxsize=None)
def forbidden_weights(d_max: int) -> tuple[Weight, ...]:
    """Every wall on which a form inverted in a degree <= ``d_max`` sum vanishes.

    The walls come from the edge characters' weights and the node smoothings
    ``d2*t1 + d1*t2``; a flag weight's wall is that of a curve's smoothing
    with itself.  Each wall ``a*w + b*z = 0`` is listed once, sorted, as the
    primitive integer form that :func:`~hilb3.scalars.sample_specializations`
    reduces every form to.  Two sources add no wall: the tangent characters,
    whose walls are those of the degree-1 edges at the same label, and the
    factors of :func:`edge_euler_closed`, each ``d`` times a pair curve's
    shifted edge weight.
    """
    if d_max < 1:
        raise ValueError(f"degree must be positive, got {d_max}")
    forms = [
        weight
        for curve in curve_catalog()
        for degree in range(1, d_max // curve.beta + 1)
        for weight, _ in edge_character(curve, degree).items()
    ]
    for label in fixed_points():
        ends = [
            (curve.tangent_at(label), degree)
            for curve in curves_through(label)
            for degree in range(1, d_max // curve.beta + 1)
        ]
        forms += [t1.scaled(d2) + t2.scaled(d1) for t1, d1 in ends for t2, d2 in ends]
    return tuple(Weight(a, b) for a, b in sorted(_walls(forms) - {(0, 0)}))
