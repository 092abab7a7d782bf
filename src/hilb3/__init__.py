"""Exact-arithmetic curve counts on the Hilbert scheme of three points.

The package computes genus-zero counts of rational curves in the
contracted classes of the Hilbert scheme of three points in the
projective plane.  Everything runs over exact rationals: a two-torus
acts on the plane, the count localizes to a finite sum over stable
graphs built from torus-fixed points and invariant curves, and the
resulting two-point pairing is divided out against the middle
cohomology to recover the invariant itself.  A separate layer expands
the one-, two- and three-point count tables through an exact
symmetric-function model of the cohomology.  Its composition-law check
compares the top three-point entry with the law it was solved from, so
it tests that algebra and holds for any input values.
"""

from .scalars import (
    DegenerateSpecializationError,
    Rational,
    Specialization,
    VirtualCharacter,
    Weight,
    format_rational,
    sample_specializations,
)
from .geometry import Curve, FixedPoint, curve_catalog, fixed_points, tangent_character
from .graphs import Family, StableGraph, enumerate_graphs, pair_family, punctual_family
from .localization import edge_character, edge_euler, forbidden_weights, graph_sum
from .invariants import (
    ConsistencyError,
    IdentityCheck,
    InvariantResult,
    reproduce,
    two_point_pairing,
    verify_identities,
)
from .fock import (
    FockVector,
    basis,
    dual_basis,
    one_point,
    pairing,
    three_point_table,
    two_point_table,
    wdvv_consistency,
)

__version__ = "1.0.0"

__all__ = [
    "ConsistencyError",
    "Curve",
    "DegenerateSpecializationError",
    "Family",
    "FixedPoint",
    "FockVector",
    "IdentityCheck",
    "InvariantResult",
    "Rational",
    "Specialization",
    "StableGraph",
    "VirtualCharacter",
    "Weight",
    "basis",
    "curve_catalog",
    "dual_basis",
    "edge_character",
    "edge_euler",
    "enumerate_graphs",
    "fixed_points",
    "forbidden_weights",
    "format_rational",
    "graph_sum",
    "one_point",
    "pair_family",
    "pairing",
    "punctual_family",
    "reproduce",
    "sample_specializations",
    "tangent_character",
    "three_point_table",
    "two_point_pairing",
    "two_point_table",
    "verify_identities",
    "wdvv_consistency",
]
