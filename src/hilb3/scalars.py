"""Exact rational scalars, torus weights and specialization sampling.

Every rational value in this package is a ``fractions.Fraction``, except
inside a recursion pass of :mod:`hilb3.localization`, which runs over a
batch of points and holds each value, at each point, as a reduced integer
pair ``(num, den)``; no floats appear anywhere.  A weight is
an integer (or rational) linear form ``a*w + b*z`` in the two generators of
the torus character lattice, and the specialization it is evaluated at fixes
the number type.  Identities between rational functions are never
manipulated symbolically: both sides are evaluated at sampled nondegenerate
rational points and compared exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Weight",
    "VirtualCharacter",
    "Specialization",
    "DegenerateSpecializationError",
    "invertible",
    "evaluate_weight",
    "format_rational",
    "positive_degree",
    "sample_specializations",
]


class DegenerateSpecializationError(ArithmeticError):
    """A weight that must stay invertible evaluated to zero.

    Raised during evaluation when a supposedly moving weight vanishes at the
    chosen point, which means the point escaped the forbidden-value screen.
    """


def invertible(value: int | Fraction, what: str, point: "Specialization") -> int | Fraction:
    """``value``, or the integer numerator of a value, about to be inverted,
    or an error naming ``what`` if it is zero."""
    if value == 0:
        raise DegenerateSpecializationError(f"{what} vanishes at w={point.w}, z={point.z}")
    return value


@dataclass(frozen=True)
class Weight:
    """Additive torus character ``a*w + b*z`` with exact rational coefficients.

    The coefficients are kept as given, ``int`` or ``Fraction``; evaluating at
    a :class:`Specialization` makes the value a ``Fraction``.  A ``float`` or
    ``bool`` coefficient raises ``TypeError``, as such a coordinate does.
    """

    a: int | Fraction
    b: int | Fraction

    def __post_init__(self) -> None:
        if isinstance(self.a, (float, bool)) or isinstance(self.b, (float, bool)):
            raise TypeError(
                "coefficients must be exact numbers, not float or bool, "
                f"got a={self.a!r}, b={self.b!r}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def scaled(self, factor: Fraction | int) -> "Weight":
        return Weight(self.a * factor, self.b * factor)

    def __str__(self) -> str:
        return f"{self.a}*w + {self.b}*z"


@dataclass(frozen=True)
class Specialization:
    """A rational evaluation point (w, z) for torus weights.

    The coordinates are made ``Fraction``s here, so every evaluated weight is
    one.  A ``float`` coordinate raises ``TypeError``: its binary expansion
    would pass for the rational the caller meant.  So does a ``bool``, which
    would pass for 0 or 1.

    Equality compares ``(w, z)``; the hash of that pair is computed once, at
    construction, since every cache keyed by a point hashes it on each
    lookup.
    """

    w: Fraction
    z: Fraction
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.w, (float, bool)) or isinstance(self.z, (float, bool)):
            raise TypeError(
                "coordinates must be exact numbers, not float or bool, "
                f"got w={self.w!r}, z={self.z!r}"
            )
        object.__setattr__(self, "w", Fraction(self.w))
        object.__setattr__(self, "z", Fraction(self.z))
        object.__setattr__(self, "_hash", hash((self.w, self.z)))

    def __hash__(self) -> int:
        return self._hash

    def as_strings(self) -> tuple[str, str]:
        return format_rational(self.w), format_rational(self.z)


def _parts(weight: Weight, point: Specialization) -> tuple[int, int]:
    """Integer numerator and positive denominator of ``a*w + b*z``, not reduced."""
    a, b, w, z = weight.a, weight.b, point.w, point.z
    ad, bd, wd, zd = a.denominator, b.denominator, w.denominator, z.denominator
    numerator = a.numerator * w.numerator * bd * zd + b.numerator * z.numerator * ad * wd
    return numerator, ad * bd * wd * zd


def evaluate_weight(weight: Weight, point: Specialization) -> Fraction:
    """Evaluate ``a*w + b*z`` at the given point.

    The value is formed from the integer numerators and denominators of the
    coefficients and coordinates, and reduced once, into one ``Fraction``.
    """
    return Fraction(*_parts(weight, point))


class VirtualCharacter:
    """Formal integer combination of weights (a virtual torus representation).

    Stored as a mapping from :class:`Weight` to a signed multiplicity.
    Zero-weight summands are the trivial (non-moving) directions, and
    :meth:`euler` rejects them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Weight, int]] = ()) -> None:
        merged: dict[Weight, int] = {}
        for weight, mult in terms:
            new = merged.get(weight, 0) + mult
            if new:
                merged[weight] = new
            elif weight in merged:
                del merged[weight]
        self._terms = merged

    def items(self) -> list[tuple[Weight, int]]:
        return sorted(self._terms.items(), key=lambda kv: (kv[0].a, kv[0].b, kv[1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self._terms == other._terms

    def euler(self, point: Specialization) -> Fraction:
        """Product of evaluated weights with their signed multiplicities.

        Requires every weight to be nonzero at the point; a vanishing one
        means the point is degenerate for this character, and raises before
        anything is inverted.  Each weight's integer numerator and denominator
        go, raised to its multiplicity, into one integer numerator and one
        denominator, which are reduced once, at the end.
        """
        numerator = denominator = 1
        for weight, mult in self._terms.items():
            num, den = _parts(weight, point)
            if not num:  # the message is built only for a weight that vanishes
                invertible(num, f"weight {weight}", point)
            if mult < 0:
                num, den, mult = den, num, -mult
            numerator *= num**mult
            denominator *= den**mult
        return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Serialize exactly: ``p/q`` for non-integers, plain ``p`` otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def positive_degree(d: int) -> int:
    """``d``, if it is a curve degree: an ``int``, not a ``bool``, and at least 1.

    Any other type raises ``TypeError``: ``2.5`` would make a count a float
    and ``True`` would pass for 1.  The caches of the entry points that call
    this are typed, so ``True`` never hits the entry stored for 1.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"degree must be an int, got {d!r}")
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return d


def _primes_up_to(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for n in range(2, int(bound ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = b"\x00" * len(sieve[n * n :: n])
    return tuple(i for i, flag in enumerate(sieve) if flag)


_POOL = _primes_up_to(100)

# Resampling is cheap, but a malformed forbidden list (one that excludes
# everything) must fail loudly instead of spinning.
_MAX_RESAMPLES = 10_000


def _primitive(a: int, b: int) -> tuple[int, int]:
    """``(a, b)`` divided by its gcd and signed so its first nonzero entry is positive."""
    g = math.gcd(a, b)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return (a // g, b // g) if g else (0, 0)


def _walls(forbidden: Sequence[Weight]) -> frozenset[tuple[int, int]]:
    """Each form ``a*w + b*z``, denominators cleared, as a primitive integer pair."""
    return frozenset(
        _primitive(form.a.numerator * form.b.denominator, form.b.numerator * form.a.denominator)
        for form in forbidden
    )


def _admissible(w: Fraction, z: Fraction, walls: frozenset[tuple[int, int]]) -> bool:
    """Whether ``(w, z)`` is off both axes, the diagonal and every wall.

    Off the axes, ``a*w + b*z`` vanishes exactly when ``(a, b)`` is
    proportional to ``(z, -w)``, so one integer lookup tests every wall.  The
    zero form, ``(0, 0)``, vanishes everywhere.
    """
    if w == 0 or z == 0 or w == z or (0, 0) in walls:
        return False
    return _primitive(z.numerator * w.denominator, -w.numerator * z.denominator) not in walls


def sample_specializations(
    count: int,
    seed: int = 0,
    forbidden: Sequence[Weight] = (),
) -> list[Specialization]:
    """Draw ``count`` distinct nondegenerate points, deterministically in ``seed``.

    Numerators and denominators come from the primes up to 100 (signs vary),
    so coordinates stay small and exact arithmetic stays fast.  Points where
    any forbidden weight vanishes are rejected and redrawn, up to a fixed
    resample budget.  The forms are reduced to integer pairs once per call, so
    a draw costs one lookup however many forms there are.  A count that is
    not an ``int`` raises ``TypeError``: ``1.5`` would draw two points.  So
    does a ``bool``: ``True`` would draw one.
    """
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError(f"point count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"point count must not be negative, got {count}")
    rng = random.Random(seed)
    walls = _walls(forbidden)
    points: list[Specialization] = []
    seen: set[tuple[Fraction, Fraction]] = set()
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > _MAX_RESAMPLES:
            raise DegenerateSpecializationError(
                f"could not find {count} admissible points in {_MAX_RESAMPLES} draws"
            )
        w = Fraction(rng.choice(_POOL) * rng.choice((1, -1)), rng.choice(_POOL))
        z = Fraction(rng.choice(_POOL) * rng.choice((1, -1)), rng.choice(_POOL))
        if (w, z) in seen or not _admissible(w, z, walls):
            continue
        seen.add((w, z))
        points.append(Specialization(w, z))
    return points
