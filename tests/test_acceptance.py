"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line through its assertion message and
exercises exactly one promised behavior, with exact rational comparisons
throughout.  Timing-sensitive criteria clear the engine caches first so the
measurement reflects a cold computation.
"""

import importlib
import pkgutil
import random
import time
from fractions import Fraction

import hilb3
from hilb3.fock import (
    dual_basis,
    fundamental_class,
    gram_matrix,
    invert_matrix,
    monomial,
    one_point,
    pairing,
    point_class,
    three_point_table,
    two_point_table,
    vector,
    wdvv_consistency,
    LINE,
    POINT,
    SURFACE,
)
from hilb3.graphs import (
    all_pair_families,
    all_punctual_families,
    automorphism_order,
    enumerate_graphs,
)
from hilb3.geometry import pair_curve
from hilb3.invariants import (
    two_point_pairing,
    two_point_total,
    verify_identities,
)
from hilb3.localization import edge_euler, forbidden_weights
from hilb3.scalars import Specialization, sample_specializations

from oracles import (
    _brute_force_classes,
    _psi_vertex_oracle,
    edge_euler_closed,
    pair_family_term,
    psi_vertex_integral,
)

EXPECTED_INVARIANTS = {
    1: Fraction(-27),
    2: Fraction(27, 2),
    3: Fraction(18),
    4: Fraction(27, 4),
}


def _engine_caches():
    """Every ``lru_cache`` in the ``hilb3`` modules, found by scanning them.

    Module-level functions and class attributes are both scanned, so a cache
    added later is cleared without listing it here.
    """
    found = {}
    for info in pkgutil.iter_modules(hilb3.__path__):
        module = importlib.import_module(f"hilb3.{info.name}")
        owner = module.__name__
        for name, value in vars(module).items():
            holders = [(name, value)]
            if isinstance(value, type) and value.__module__ == owner:
                holders += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            for label, obj in holders:
                if (
                    callable(getattr(obj, "cache_info", None))
                    and callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == owner
                ):
                    found[f"{owner}.{label}"] = obj
    return found


def _clear_engine_caches():
    caches = _engine_caches()
    for name in (
        "edge_euler",
        "graph_sum",
        "_stored_pass",
        "enumerate_graphs",
        "tangent_character",
        "taut_c1",
    ):
        assert any(found.endswith("." + name) for found in caches), name
    for cache in caches.values():
        cache.cache_clear()
    full = [name for name, cache in caches.items() if cache.cache_info().currsize]
    assert not full, f"caches still hold entries after clearing: {full}"


def test_criterion_1_invariants_and_pairings_within_budget():
    _clear_engine_caches()
    start = time.monotonic()
    results = {d: two_point_pairing(d) for d in (1, 2, 3, 4)}
    elapsed = time.monotonic() - start
    for d, expected in EXPECTED_INVARIANTS.items():
        assert results[d].value == 3 * expected, f"raw pairing mismatch in degree {d}"
        assert results[d].value / 3 == expected, f"invariant mismatch in degree {d}"
    assert elapsed < 10.0, f"degrees 1-4 took {elapsed:.2f}s, budget is 10s"


def test_criterion_2_closed_forms_pointwise():
    checks = verify_identities(d_max=4, num_specs=5, seed=0)
    assert len(checks) == 27
    failing = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failing, "closed-form identities failed: " + "; ".join(failing)


def test_criterion_3_relative_sign_is_pinned():
    point = Specialization(Fraction(1), Fraction(3))
    total = two_point_total(1, point)
    pair_part = sum(
        pair_family_term(1, i, j, point) for i in range(3) for j in range(3) if i != j
    )
    flipped = total - 2 * pair_part
    assert total == -81, "two-point total with the correct relative sign"
    assert flipped == -20, "sign flip must land on the documented wrong value"
    assert flipped != total


def test_criterion_4_specialization_and_seed_independence():
    for d in (1, 2, 3, 4):
        for seed in (0, 1):
            result = two_point_pairing(d, num_points=3, seed=seed)
            assert result.value == 3 * EXPECTED_INVARIANTS[d], (
                f"degree {d}, seed {seed} disagrees"
            )
            assert len(result.points) == 3


def test_criterion_5a_vertex_integral_matches_expansion_oracle():
    rng = random.Random(2026)
    trials = 0
    while trials < 100:
        flags = rng.randint(1, 5)
        n = rng.randint(max(3, flags), 8)
        weights = []
        while len(weights) < flags:
            value = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            if value != 0:
                weights.append(value)
        assert psi_vertex_integral(weights, n) == _psi_vertex_oracle(weights, n)
        trials += 1


def test_criterion_5b_edge_euler_dual_route():
    points = sample_specializations(5, seed=17, forbidden=forbidden_weights(4))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for d in (1, 2, 3, 4):
                for point in points:
                    assert edge_euler(pair_curve(i, j), d, point) == edge_euler_closed(
                        i, j, d, point
                    ), f"(i,j)=({i},{j}), degree {d}"


def test_criterion_5c_enumeration_matches_brute_force_oracle():
    families = list(all_pair_families())
    for chart in (0, 1, 2):
        families.extend(all_punctual_families(chart))
    assert len(families) == 15
    for family in families:
        for d in (1, 2, 3):
            oracle = _brute_force_classes(family, d)
            graphs = enumerate_graphs(family, d)
            assert len(graphs) == len(oracle), f"{family.name} degree {d} count"
            assert sorted(automorphism_order(g) for g in graphs) == sorted(
                oracle.values()
            ), f"{family.name} degree {d} symmetry orders"


def test_criterion_6_fock_pins():
    partner = monomial((2, LINE), (1, SURFACE))
    assert dual_basis(4)[1] == Fraction(-1, 2) * vector(partner)
    for k in range(0, 13, 2):
        invert_matrix(gram_matrix(k))
    assert pairing(point_class(), fundamental_class()) == 1


def test_criterion_7_tables_regenerate_from_engine_values():
    f_values = [two_point_pairing(d).scaled for d in (1, 2, 3, 4)]
    assert f_values == [Fraction(-27), Fraction(27), Fraction(54), Fraction(27)]
    datum = monomial((2, LINE), (1, POINT))
    for d in (1, 2, 3, 4):
        assert one_point(datum, d) == Fraction(-6) / d**2
        table = two_point_table(d, f_values[d - 1])
        nonzero = sorted(v for v in table.values() if v != 0)
        assert nonzero == sorted(
            [Fraction(12, d), Fraction(12, d), f_values[d - 1] / d]
        ), f"two-point nonzero entries in degree {d}"
        triples = three_point_table(d, f_values[:d])
        assert sum(1 for v in triples.values() if v != 0) == 4
        assert wdvv_consistency(d, f_values[:d]), f"composition law in degree {d}"
    top = three_point_table(1, f_values[:1])
    cube = monomial((3, SURFACE),)
    assert top[(cube, cube, cube)] == 243


def test_criterion_8_degree_five_within_budget():
    _clear_engine_caches()
    start = time.monotonic()
    result = two_point_pairing(5, num_points=3, seed=0)
    elapsed = time.monotonic() - start
    assert len({two_point_total(5, p) for p in result.points}) == 1
    assert elapsed < 300.0, f"degree 5 took {elapsed:.2f}s, budget is 300s"
