"""Fixed-point catalog, tangent characters and the invariant-curve graph."""

from fractions import Fraction

import pytest

from hilb3.geometry import (
    Curve,
    FixedPoint,
    chart_weight,
    curve_catalog,
    curves_through,
    fixed_points,
    hyperplane_weight,
    pair_curve,
    punctual_curve,
    tangent_character,
    tangent_euler,
    taut_c1,
    torus_weights,
)
from hilb3.scalars import Specialization, Weight, evaluate_weight

POINT_13 = Specialization(Fraction(1), Fraction(3))


def test_chart_weights_satisfy_cocycle_relations():
    # The three affine charts carry the standard torus weights; the chart-1
    # and chart-2 weights are determined by the chart-0 pair.
    w, z = torus_weights(0)
    assert (w, z) == (Weight(1, 0), Weight(0, 1))
    assert torus_weights(1) == (-w, -w + z)
    assert torus_weights(2) == (-z, -z + w)
    assert hyperplane_weight(0) == Weight(0, 0)
    assert hyperplane_weight(1) == w
    assert hyperplane_weight(2) == z


def test_chart_weight_is_linear_combination():
    w1, z1 = torus_weights(1)
    assert chart_weight(1, 2, -1) == w1.scaled(2) - z1


def test_fixed_point_census():
    points = fixed_points()
    assert len(points) == 21
    assert len(set(points)) == 21
    punctual = [p for p in points if p.kind == "punctual"]
    pairs = [p for p in points if p.kind == "pair"]
    assert len(punctual) == 9
    assert len(pairs) == 12


def test_tangent_characters_have_rank_six():
    for point in fixed_points():
        char = tangent_character(point)
        assert char.rank() == 6
        # A torus-fixed point of an isolated fixed locus has no trivial
        # tangent directions.
        assert char.moving_part() == char


@pytest.mark.parametrize("chart", [3, -1])
def test_punctual_point_rejects_a_chart_outside_the_plane(chart):
    with pytest.raises(ValueError, match="chart must be 0, 1 or 2"):
        FixedPoint.punctual(chart, 0)


@pytest.mark.parametrize("chart, other", [(0, 7), (3, 1), (-1, 0)])
def test_pair_point_rejects_charts_outside_the_plane(chart, other):
    with pytest.raises(ValueError, match="charts must be 0, 1 or 2"):
        FixedPoint.pair(chart, other, 1)


def test_frozen_tangent_eulers():
    # Hand-expanded products of the six tangent weights at (w, z) = (1, 3).
    assert tangent_euler(FixedPoint.punctual(0, 0), POINT_13) == -45
    assert tangent_euler(FixedPoint.pair(0, 1, 1), POINT_13) == 72


def test_curve_census():
    curves = curve_catalog()
    assert len(curves) == 15
    kinds = {}
    for curve in curves:
        kinds[curve.kind] = kinds.get(curve.kind, 0) + 1
    assert kinds == {"pair": 6, "punctual": 9}


def test_curve_classes():
    # Exactly one punctual curve per chart wraps the contracted class three
    # times; every other invariant curve is a single copy.
    multiples = sorted(curve.beta for curve in curve_catalog())
    assert multiples == [1] * 12 + [3] * 3
    assert punctual_curve(0, 1, 2).beta == 3
    assert punctual_curve(0, 0, 1).beta == 1
    assert pair_curve(0, 1).beta == 1


def test_curve_endpoints_are_catalog_points():
    catalog = set(fixed_points())
    for curve in curve_catalog():
        assert len(curve.endpoints) == 2
        assert set(curve.endpoints) <= catalog
        assert curve.endpoints[0] != curve.endpoints[1]


def test_curve_tangents_sit_inside_endpoint_tangent_spaces():
    # The tangent line of an invariant curve at an endpoint must occur among
    # the six torus weights of that endpoint.
    for curve in curve_catalog():
        for endpoint in curve.endpoints:
            weight = curve.tangent_at(endpoint)
            assert tangent_character(endpoint).multiplicity(weight) >= 1


def test_curve_tangents_at_opposite_ends_oppose():
    # Both endpoint tangents restrict from the same line bundle on the curve,
    # so their weights sum to zero after accounting for the covering degree
    # one; for these curves the two weights are exact negatives.
    for curve in curve_catalog():
        first = curve.tangent_at(curve.endpoints[0])
        second = curve.tangent_at(curve.endpoints[1])
        assert first == -second


def test_tangent_at_rejects_foreign_point():
    curve = pair_curve(0, 1)
    with pytest.raises(ValueError):
        curve.tangent_at(FixedPoint.punctual(2, 2))


def test_curves_through_degrees():
    # Each punctual point meets two punctual curves plus its pair curves;
    # the incidence counts must total twice the curve count.
    incidences = sum(len(curves_through(p)) for p in fixed_points())
    assert incidences == 2 * len(curve_catalog())


def test_taut_divisor_weights_frozen():
    # Untwisted tautological weights at (w, z) = (1, 3), by hand.
    cases = [
        (FixedPoint.punctual(0, 0), 0, 4),    # w + z
        (FixedPoint.punctual(1, 1), 0, 6),    # 3 * z_1 = 3(z - w)
        (FixedPoint.punctual(2, 2), 0, -9),   # 3 * w_2 = -3z
        (FixedPoint.pair(0, 1, 1), 0, 3),     # z_0
        (FixedPoint.pair(0, 1, 2), 0, 1),     # w_0
        (FixedPoint.punctual(1, 1), 1, 9),    # previous plus 3 * g_1 = 3w
    ]
    for point, twist, expected in cases:
        assert evaluate_weight(taut_c1(point, twist), POINT_13) == expected


def test_twist_shifts_by_hyperplane_weights():
    for point in fixed_points():
        shift = taut_c1(point, 1) - taut_c1(point, 0)
        if point.kind == "punctual":
            assert shift == hyperplane_weight(point.chart).scaled(3)
        else:
            expected = hyperplane_weight(point.chart).scaled(2) + hyperplane_weight(
                point.other
            )
            assert shift == expected
