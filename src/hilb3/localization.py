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
from typing import Callable, Iterable, Iterator, Sequence

from .geometry import (
    Curve,
    FixedPoint,
    curve_catalog,
    curves_through,
    fixed_points,
    tangent_character,
    tangent_euler,
)
from .graphs import Family
from .scalars import (
    Rational,
    Specialization,
    VirtualCharacter,
    Weight,
    _parts,
    _primitive,
    invertible,
    positive_degree,
)

# Bounds of the caches keyed by a Specialization.  ``hilb3 verify --dmax 4
# --specs 20`` fills 1200 graph sums, 180 stored passes and 1020 edge
# factors.  Every command reads its points through :func:`in_batches`, so
# the passes it is about to read are one batch's on each curve system, at
# most 9 * 32, and a stored pass is read before it can be evicted at any
# point count.
_GRAPH_SUM_CACHE_SIZE = 8192
_PASS_CACHE_SIZE = 2048
# The most points one recursion pass runs over.  A batch shares the pass's
# point-free work; at d = 4 and 8 the gain levels off between 16 and 32
# points.  It also bounds the batch's memory, about 1.6 MiB per point for a
# d = 20 punctual pass, and one batch on each of the nine curve systems fits
# in the pass cache.
_PASS_BATCH_SIZE = 32
_EDGE_EULER_CACHE_SIZE = 8192

# One point's value inside a recursion pass: a reduced pair (num, den) with
# den > 0.  Zero is the int 0, so a zero value is falsy.
Pair = tuple[int, int]


@lru_cache(maxsize=None)
def _splitting(curve: Curve) -> tuple[tuple[Weight, int], ...]:
    """The tangent bundle along ``curve`` as six line bundles ``O(a)``, each
    given by its weight ``alpha`` at the first end and its degree ``a``.

    Its weight at the second end is ``alpha - a*tau``, ``tau`` the curve's
    tangent weight at the first end; each ``alpha`` takes the first unpaired
    such weight.  Equivariant K-theory of the line is fixed by its two
    restrictions, so any such pairing has the same cohomology.
    """
    tau = curve.tangents[0]
    near, far = ([w for w, m in tangent_character(end).items() for _ in range(m)]
                 for end in curve.endpoints)
    bundles = []
    for alpha in near:
        for beta in far:
            diff = alpha - beta
            a = diff.a // tau.a if tau.a else diff.b // tau.b
            if tau.scaled(a) == diff:
                far.remove(beta)
                bundles.append((alpha, a))
                break
        else:
            raise ValueError(f"no line bundle on {curve} has weight {alpha} at its first end")
    return tuple(bundles)


@lru_cache(maxsize=None, typed=True)
def _covering(curve: Curve, degree: int) -> tuple[tuple[int, int, int], ...]:
    """The weights of ``H^0 - H^1`` of ``f^*T_X`` along a degree-``degree``
    cover ``f``, as rows ``(A, B, sign)``: the weight ``(A*w + B*z)/degree``,
    counted with ``sign``.

    ``H^1`` is the obstruction part.  Over the cover, whose tangent weight at
    the first end is ``tau/degree``, a bundle ``O(a)`` of :func:`_splitting`
    with weight ``alpha`` there becomes ``O(a*degree)``.  For ``a >= 0`` its
    ``H^0`` has the weights ``alpha + k*tau/degree`` with ``-a*degree <= k <=
    0``; for ``a < 0`` its ``H^1`` has them with ``0 < k < -a*degree``,
    counted with sign -1.  The one zero weight, the infinitesimal rotation of
    the cover, is left out.
    """
    positive_degree(degree)
    tau = curve.tangents[0]
    rows = []
    for alpha, a in _splitting(curve):
        steps, sign = (range(0, -a * degree - 1, -1), 1) if a >= 0 else (range(1, -a * degree), -1)
        rows += [(alpha.a * degree + k * tau.a, alpha.b * degree + k * tau.b, sign) for k in steps]
    rows.remove((0, 0, 1))
    return tuple(rows)


@lru_cache(maxsize=None, typed=True)
def edge_character(curve: Curve, degree: int) -> VirtualCharacter:
    """The rows of :func:`_covering` as a character of ``Weight`` objects."""
    return VirtualCharacter(
        (Weight(Fraction(a, degree), Fraction(b, degree)), sign)
        for a, b, sign in _covering(curve, degree)
    )


@lru_cache(maxsize=_EDGE_EULER_CACHE_SIZE, typed=True)
def edge_euler(curve: Curve, degree: int, point: Specialization) -> Rational:
    """Euler factor of an edge: product of the covering weights, none of them trivial.

    With ``w = wn/wd`` and ``z = zn/zd``, each row of :func:`_covering` is the
    integer ``A*wn*zd + B*zn*wd`` over ``degree*wd*zd``; one ``Fraction`` is built.
    """
    wn, wd, zn, zd = point.w.numerator, point.w.denominator, point.z.numerator, point.z.denominator
    scale = degree * wd * zd
    num = den = 1
    for a, b, sign in _covering(curve, degree):
        value = a * wn * zd + b * zn * wd
        if not value:  # the message is built only for a weight that vanishes
            invertible(value, f"weight {Weight(Fraction(a, degree), Fraction(b, degree))}", point)
        num, den = (num * value, den * scale) if sign > 0 else (num * scale, den * value)
    return Fraction(num, den)


@dataclass(slots=True)
class _Flag:
    """One end of a degree-``degree`` cover of a family curve.

    Flags are numbered; the flag sits at ``curve.endpoints[end]``, ``far``
    is the number of the flag at the other end of the same edge, ``cost``
    its beta-weighted degree and ``width`` the number of flags at the same
    label, cheapest first, that fit with this one in the pass's degree.
    These do not depend on the point.  :func:`_point_values` sets the rest
    as columns over a batch of points, each a tuple with one :data:`Pair`
    per point: ``weight`` is the flag weight omega, ``edge`` the edge's
    share ``E/(degree * edge_euler)`` of the graph weight, with the label's
    tangent Euler factor ``E``, ``series[s]`` the coefficient
    ``omega^-(s+1) / s!`` of ``(1/omega) e^(t/omega)`` and ``weighted[s]``
    the kid series ``edge * series[s]``, both for the t-degrees ``s < top -
    cost`` that the pass reads, and ``nodes[m]`` the factor ``edge_f /
    (omega + omega_f)`` for the ``m``-th flag ``f`` at the label, with the
    share ``edge_f`` of the flag ``f`` that hangs below the node.  Each
    value is built once, through :func:`_reduced`, from integer parts, at
    every point of the batch or, where a form it inverts vanishes at one of
    them, at none.
    """

    index: int
    far: int
    cost: int
    curve: Curve
    degree: int
    end: int
    width: int = 0
    weight: tuple = ()
    edge: tuple = ()
    series: list = field(default_factory=list)
    weighted: list = field(default_factory=list)
    nodes: tuple = ()


def _reduced(num: int, den: int) -> Pair:
    """``num/den`` as a :data:`Pair`; ``num`` and ``den`` are nonzero."""
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _layout(curves: tuple[Curve, ...], top: int) -> dict[FixedPoint, list[_Flag]]:
    """The flags of every cover that fits in degree ``top``, grouped by label
    and cheapest first, without their values."""
    flags: dict[FixedPoint, list[_Flag]] = {}
    count = 0
    for curve in curves:
        for degree in range(1, top // curve.beta + 1):
            for end, label in enumerate(curve.endpoints):
                flags.setdefault(label, []).append(
                    _Flag(count + end, count + 1 - end, curve.beta * degree, curve, degree, end)
                )
            count += 2
    for here in flags.values():
        here.sort(key=lambda f: f.cost)
        for p in here:
            p.width = sum(p.cost + f.cost <= top for f in here)
    return flags


def _point_values(
    top: int, flags: dict[FixedPoint, list[_Flag]], points: Sequence[Specialization]
) -> dict[FixedPoint, list[Pair]]:
    """Set every value of a pass that depends on the point, at each point of
    its batch: each flag's ``weight``, ``edge``, ``series``, ``weighted``
    and ``nodes`` (see :class:`_Flag`).  Returns each label's tangent Euler
    factor ``E`` at each point.

    Each value is built once, by :func:`_reduced` from integer parts: the
    flag weight from its tangent's, the edge share from ``E`` and the edge's
    :func:`edge_euler`, and each series, kid series and node entry from
    those pairs' parts and running integer powers.  These invert every form
    a pass inverts, so a pass over the batch raises here, for all of its
    points, or nowhere.
    """
    euler = {}
    for label, here in flags.items():
        values = [tangent_euler(label, point) for point in points]
        euler[label] = [(value.numerator, value.denominator) for value in values]
        for p in here:
            weights, edges, rows = [], [], []
            for point, (e_num, e_den) in zip(points, euler[label]):
                factor = edge_euler(p.curve, p.degree, point)
                num, den = _parts(p.curve.tangents[p.end], point)
                wn, wd = omega = _reduced(invertible(num, "flag weight", point), den * p.degree)
                edge = _reduced(e_num * factor.denominator, e_den * p.degree * factor.numerator)
                series, power_a, power_b, fact = [], 1, 1, 1
                for s in range(top - p.cost):
                    power_a, power_b, fact = power_a * wd, power_b * wn, fact * (s or 1)
                    series.append(_reduced(power_a, power_b * fact))
                weights.append(omega)
                edges.append(edge)
                rows.append(series)
            p.weight, p.edge, p.series = tuple(weights), tuple(edges), list(zip(*rows))
            p.weighted = [
                tuple(_reduced(en * a, ed * b) for (en, ed), (a, b) in zip(p.edge, column))
                for column in p.series
            ]
        for p in here:
            nodes = []
            for f in here[:p.width]:
                column = []
                for point, (wn, wd), (fn, fd), (en, ed) in zip(points, p.weight, f.weight, f.edge):
                    num = invertible(wn * fd + fn * wd, "node smoothing weight", point)
                    column.append(_reduced(en * wd * fd, ed * num))
                nodes.append(tuple(column))
            p.nodes = tuple(nodes)
    return euler


def _dot(groups: Iterable[tuple[int, Iterable[tuple]]], divisor: int = 1) -> tuple | int:
    """The exact sum of ``k * x * y / divisor`` at each point of a batch,
    over the pairs ``(x, y)`` of every group ``(k, pairs)``, ``k`` an int.

    Each operand, and the sum, is a tuple with one :data:`Pair` or int 0
    per point, or the int ``0`` when it vanishes at every point.  The term
    list is built once; at each point its sum is formed over an lcm
    denominator, at most one gcd per term, and reduced once.  This is the
    pass's only multiply-accumulate.
    """
    terms = [(k, xs, ys) for k, pairs in groups for xs, ys in pairs if xs and ys]
    if not terms:
        return 0
    sums = []
    for i in range(len(terms[0][1])):
        num, den = 0, 1
        for k, xs, ys in terms:
            x, y = xs[i], ys[i]
            if x and y:
                d = x[1] * y[1]
                if d == den:
                    num += k * x[0] * y[0]
                else:
                    g = math.gcd(den, d)
                    num = num * (d // g) + k * x[0] * y[0] * (den // g)
                    den *= d // g
        if num:
            den *= divisor
            g = math.gcd(num, den)
            sums.append((num // g, den // g))
        else:
            sums.append(0)
    return tuple(sums) if any(sums) else 0


def _coefficient(k: int, left: list, right: list, m: int) -> tuple[int, Iterable]:
    """The :func:`_dot` group of ``k`` times ``[t^m]`` of the product of the
    series ``left`` and ``right``; it is empty when ``m = -1``."""
    low = m + 1 - len(right) if m >= len(right) else 0
    return k, zip(left[low:m + 1], right[m - low::-1])


def _product_row(terms: list[tuple[int, list, list, int]], length: int, divisor: int = 1) -> list:
    """The t-degrees below ``length`` of ``sum k t^shift left right / divisor``
    over ``terms`` ``(k, left, right, shift)``, each one :func:`_dot` over all terms."""
    row = []
    for n in range(length):
        groups = []
        for k, left, right, shift in terms:
            if n >= shift:
                groups.append(_coefficient(k, left, right, n - shift))
        row.append(_dot(groups, divisor))
    return row


def _recursion_pass(
    curves: tuple[Curve, ...], top: int, points: Sequence[Specialization]
) -> dict[Specialization, dict]:
    """The graph sums of a curve system for every mark placement and degree,
    at each point of a batch.

    A placement is a pair ``first < second`` of the system's labels; the
    value at a placement is the tuple of its graph sums in degrees
    ``1..top``.  The series run in channels: channel 0 holds the subtrees
    without the second mark, and channel ``c >= 1`` those holding it on
    label ``marks[c]``, one channel per label that is a second mark.  Every
    step serves all channels and all points: the flags, rows and term lists
    are built once, and every value is a tuple with one entry per point.
    See :func:`graph_sum` for the recursion.

    Each point maps to its placements' graph sums.  The pass runs at every
    point of the batch or at none: where a form it inverts vanishes at any
    point, :func:`_point_values` raises
    :class:`~hilb3.scalars.DegenerateSpecializationError` for the batch.
    """
    flags = _layout(curves, top)
    euler = _point_values(top, flags, points)
    ones = ((1, 1),) * len(points)
    labels = sorted(flags)
    placements = [(a, b) for n, a in enumerate(labels) for b in labels[n + 1:]]
    marks = [None] + sorted({b for _, b in placements})
    firsts = {a for a, _ in placements}
    # Subtree sums by channel and order, indexed by the number of the flag
    # at their root on the edge to their parent.  At order 0 a subtree is a
    # leaf: one without the second mark gives omega, one that holds it 1.
    # Every value is a tuple over the points, or the int 0.
    count = sum(len(here) for here in flags.values())
    sums = [[[0] * (top + 1) for _ in range(count)] for _ in marks]
    for label, here in flags.items():
        for f in here:
            sums[0][f.index][0] = f.weight
            if label in marks:
                sums[marks.index(label)][f.index][0] = ones
    # A root reads its rows up to order ``top``; any other vertex hangs from
    # a parent flag, which costs at least the cheapest flag at its label.
    tops = {
        label: top if label in firsts else top - here[0].cost
        for label, here in flags.items()
    }
    # The rows at each label by order N, polynomials in t: ``t Y_(c,N)`` in
    # each channel, with ``Y_0 = X``, and ``t^N Lambda_N``; all vanish at
    # order 0.  A root keeps ``E`` times its graph sum at every order: the
    # children's ``sum_f M_f edge_f`` plus ``[t^-2] (Y_c Lambda)_N``.
    rows = {label: [[[]] for _ in marks] for label in flags}
    logs = {label: [[]] for label in flags}
    roots = {placement: [0] * (top + 1) for placement in placements}
    for order in range(1, top + 1):
        for label, here in flags.items():
            if order > tops[label]:
                continue
            kids = [f for f in here if f.cost <= order]
            # The sums of the subtrees below the kids, in each channel.
            subtrees = [[channel[f.far][order - f.cost] for f in kids] for channel in sums]
            row, log = rows[label], logs[label]
            # sum_f M_f edge_f (1/omega_f) e^(t/omega_f) over the kids f and
            # their subtree sums M_f: each kid series f.weighted times the
            # one-term series M_f, which keeps every slice one entry long.
            for y, m in zip(row, subtrees):
                y.append(_product_row(
                    [(1, f.weighted, [mf], 0) for f, mf in zip(kids, m) if mf],
                    top - order,
                ))
            # N Lambda_N = N X_N + sum_k k Lambda_k X_(N-k), as the row
            # t^N Lambda_N, in which the row t X_N is raised by N - 1 t-degrees.
            x = row[0]
            log.append(_product_row(
                [(k, log[k], x[order - k], order - k - 1) for k in range(1, order)]
                + [(order, [ones], x[order], order - 1)],
                tops[label], order,
            ))
            # Below t-degree -1, sum_k Lambda_k Y_(c,N-k) in every channel.
            # X_N has no term there, so channel 0, which also subtracts
            # Lambda_N, leaves phi_N = sum_k ((N-k)/N) Lambda_k X_(N-k).
            below = [
                _product_row(
                    [(1, log[k], y[order - k], order - k - 1) for k in range(1, order)]
                    + ([(-1, log[order], [ones], 0)] if c == 0 else []),
                    order - 1,
                )
                for c, y in enumerate(row)
            ]
            for c, mark in enumerate(marks[1:], 1):
                if (label, mark) in roots:
                    roots[label, mark][order] = _dot([
                        (1, zip(subtrees[c], [f.edge for f in kids])),
                        _coefficient(1, below[c], [ones], order - 2),
                    ])
            for parent in here:
                if order + parent.cost > top:
                    break
                for c, mark in enumerate(marks):
                    # The kids are a prefix of the parent's nodes.
                    groups = [(1, zip(subtrees[c], parent.nodes))]
                    groups.append(_coefficient(1, below[c], parent.series, order - 2))
                    if label == mark:
                        groups.append(_coefficient(1, log[order], parent.series, order - 1))
                    sums[c][parent.index][order] = _dot(groups)
    # One Fraction per point, placement and degree: the root's value over its E.
    return {
        point: {
            (first, second): tuple(
                Fraction(v[n][0] * euler[first][n][1], v[n][1] * euler[first][n][0])
                if v and v[n] else Fraction(0)
                for v in roots[first, second][1:]
            )
            for first, second in placements
        }
        for n, point in enumerate(points)
    }


@dataclass
class _Pass:
    """The highest recursion pass of one curve system at one point that succeeded."""

    top: int = 0
    totals: dict = field(default_factory=dict)


@lru_cache(maxsize=_PASS_CACHE_SIZE)
def _stored_pass(curves: tuple[Curve, ...], point: Specialization) -> _Pass:
    """The one mutable record per (curve system, point) that :func:`fill_passes` fills."""
    return _Pass()


def fill_passes(keys: Iterable[tuple[tuple[Curve, ...], Specialization]], top: int) -> None:
    """Store a degree-``top`` pass for each (curve system, point) of ``keys``
    whose stored pass has a lower degree, one :func:`_recursion_pass` per
    system over all of its points.

    A pass that raises stores nothing for its batch, and the error
    propagates; the passes of the systems filled before it stay stored.
    """
    batches: dict[tuple[Curve, ...], dict[Specialization, None]] = {}
    for curves, point in keys:
        if _stored_pass(curves, point).top < top:
            batches.setdefault(curves, {})[point] = None
    for curves, points in batches.items():
        for point, totals in _recursion_pass(curves, top, list(points)).items():
            stored = _stored_pass(curves, point)
            stored.totals, stored.top = totals, top


def in_batches(points: Sequence[Specialization], systems: Callable[[Specialization], Iterable],
               top: int) -> Iterator[Specialization]:
    """Yield ``points`` in order, each once the degree-``top`` passes of its
    curve systems ``systems(point)`` are stored.

    The points are taken at most ``_PASS_BATCH_SIZE`` at a time, and each
    slice's passes are filled just before its points are yielded, so a
    caller that reads a point's graph sums when it gets the point needs room
    in the pass cache for one slice's passes only.  A pass that fails raises
    for its whole slice, before any of the slice's points is yielded.  This
    is the seam a pool of workers would map.
    """
    for start in range(0, len(points), _PASS_BATCH_SIZE):
        batch = points[start:start + _PASS_BATCH_SIZE]
        fill_passes([(curves, point) for point in batch for curves in systems(point)], top)
        yield from batch


@lru_cache(maxsize=_GRAPH_SUM_CACHE_SIZE, typed=True)
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
    :func:`_point_values` inverts all of them before the order loop, which
    does series arithmetic only; each of them, and every tangent weight,
    goes through :func:`~hilb3.scalars.invertible` and raises
    :class:`~hilb3.scalars.DegenerateSpecializationError` when it vanishes,
    for the pass's whole batch.

    A pass runs over a batch of points.  Its flags, rows and term lists do
    not depend on the point and are built once; each value is a tuple with
    one exact reduced integer :data:`Pair` or int 0 per point, or the int 0
    where it vanishes at every point, never a ``Fraction``.  Two functions
    build every value of a pass: :func:`_reduced`, which makes each of the
    point's values in :func:`_point_values` once from integer parts, with
    each edge share folded into its flag's kid series and node factors, and
    :func:`_dot`, the per-point sums of products.  Beside them there are only
    the unit pairs ``ones`` and one ``Fraction`` per point, placement and
    degree, the root's value over its ``E``.  The test suite's oracle
    ``graph_contribution`` in ``tests/oracles.py``, summed over
    :func:`~hilb3.graphs.enumerate_graphs`, gives the same value one graph
    at a time.

    One pass of the recursion serves every family on the same curves at
    each point of its batch, and every degree up to the pass's own.
    Channel 0 does not depend on the marks, and a channel ``c >= 1`` only on
    the second mark's label, so a punctual triangle needs two marked
    channels for its three placements.  The forms a pass inverts depend only
    on the curves and its degree, and a pass of degree ``D`` inverts all
    those of a pass of degree ``d <= D``.  So the highest pass that
    succeeded at a point is kept and read for every degree up to it.
    Callers of many points read them through :func:`in_batches`, which
    stores their passes one batch of points at a time; on a miss this runs
    a new pass over one point through :func:`fill_passes`, so at a point
    on a wall of the pass it raises, and no pass is stored for that point:
    its record keeps the degree of its highest pass that succeeded, or 0.
    """
    positive_degree(d)
    fill_passes([(family.curves, point)], d)
    # Swapping the marks maps the graphs one to one and keeps each weight.
    return _stored_pass(family.curves, point).totals[tuple(sorted(family.mark_labels))][d - 1]


@lru_cache(maxsize=None, typed=True)
def forbidden_weights(d_max: int) -> tuple[Weight, ...]:
    """Every wall on which a form inverted in a degree <= ``d_max`` sum vanishes.

    The walls come from the rows of :func:`_covering` and the node smoothings
    ``d2*t1 + d1*t2``; a flag weight's wall is that of a curve's smoothing
    with itself.  Each wall ``a*w + b*z = 0`` is reduced from integers and
    listed once, sorted, as the primitive form that
    :func:`~hilb3.scalars.sample_specializations` reduces every form to.  Two
    sources add no wall: the tangent characters, whose walls are those of the
    degree-1 edges at the same label, and the factors of the closed-form
    edge Euler factor ``edge_euler_closed`` in ``tests/oracles.py``, each
    ``d`` times a pair curve's shifted edge weight.
    """
    positive_degree(d_max)
    walls = {
        _primitive(a, b)
        for curve in curve_catalog()
        for degree in range(1, d_max // curve.beta + 1)
        for a, b, _ in _covering(curve, degree)
    }
    for label in fixed_points():
        ends = [
            (curve.tangent_at(label), degree)
            for curve in curves_through(label)
            for degree in range(1, d_max // curve.beta + 1)
        ]
        walls.update(
            _primitive(t1.a * d2 + t2.a * d1, t1.b * d2 + t2.b * d1)
            for t1, d1 in ends for t2, d2 in ends
        )
    return tuple(Weight(a, b) for a, b in sorted(walls - {(0, 0)}))
