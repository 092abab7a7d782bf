"""Exact rational scalars, torus weights and specialization sampling.

Every value in this package is a ``fractions.Fraction``; no floats appear
anywhere.  A weight is an integer (or rational) linear form ``a*w + b*z`` in
the two generators of the torus character lattice, and the specialization it
is evaluated at fixes the number type.  Identities between rational functions
are never manipulated symbolically: both sides are evaluated at sampled
nondegenerate rational points and compared exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Weight",
    "VirtualCharacter",
    "Specialization",
    "DegenerateSpecializationError",
    "evaluate_weight",
    "format_rational",
    "parse_rational",
    "sample_specializations",
]


class DegenerateSpecializationError(ArithmeticError):
    """A weight that must stay invertible evaluated to zero.

    Raised during evaluation when a supposedly moving weight vanishes at the
    chosen point, which means the point escaped the forbidden-value screen.
    """


@dataclass(frozen=True)
class Weight:
    """Additive torus character ``a*w + b*z`` with exact rational coefficients.

    The coefficients are kept as given, ``int`` or ``Fraction``; evaluating at
    a :class:`Specialization` makes the value a ``Fraction``.
    """

    a: int | Fraction
    b: int | Fraction

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def scaled(self, factor: Fraction | int) -> "Weight":
        return Weight(self.a * factor, self.b * factor)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a}*w + {self.b}*z"


ZERO_WEIGHT = Weight(0, 0)


@dataclass(frozen=True)
class Specialization:
    """A rational evaluation point (w, z) for torus weights.

    The coordinates are made ``Fraction``s here, so every evaluated weight is
    one.
    """

    w: Fraction
    z: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", Fraction(self.w))
        object.__setattr__(self, "z", Fraction(self.z))

    def as_strings(self) -> tuple[str, str]:
        return format_rational(self.w), format_rational(self.z)


def evaluate_weight(weight: Weight, point: Specialization) -> Fraction:
    """Evaluate ``a*w + b*z`` at the given point."""
    return weight.a * point.w + weight.b * point.z


class VirtualCharacter:
    """Formal integer combination of weights (a virtual torus representation).

    Stored as a mapping from :class:`Weight` to a signed multiplicity.
    Zero-weight summands are the trivial (non-moving) directions;
    :meth:`moving_part` drops them, and :meth:`euler` rejects them.
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

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return VirtualCharacter(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        negated = [(w, -m) for w, m in other._terms.items()]
        return VirtualCharacter(list(self._terms.items()) + negated)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self._terms == other._terms

    def __len__(self) -> int:
        return sum(abs(m) for m in self._terms.values())

    def multiplicity(self, weight: Weight) -> int:
        return self._terms.get(weight, 0)

    def rank(self) -> int:
        """Virtual rank (signed count of weights, trivial ones included)."""
        return sum(self._terms.values())

    def moving_part(self) -> "VirtualCharacter":
        return VirtualCharacter(
            (w, m) for w, m in self._terms.items() if not w.is_zero()
        )

    def euler(self, point: Specialization) -> Fraction:
        """Product of evaluated weights with their signed multiplicities.

        Requires every weight to be nonzero at the point; a vanishing one
        means the point is degenerate for this character.
        """
        result = Fraction(1)
        for weight, mult in self._terms.items():
            value = evaluate_weight(weight, point)
            if value == 0:
                raise DegenerateSpecializationError(
                    f"weight {weight} vanishes at w={point.w}, z={point.z}"
                )
            result *= value ** mult
        return result


def format_rational(value: Fraction) -> str:
    """Serialize exactly: ``p/q`` for non-integers, plain ``p`` otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


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
    a draw costs one lookup however many forms there are.
    """
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
