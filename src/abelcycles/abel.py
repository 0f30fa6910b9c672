"""Periodic Abel equations with the invariant curves x = 0 and a1(t)x = 1.

The raw form is x' = x(C1 + C2 x + C3 x^2). Requiring a1(t)x - 1 = 0 to be
invariant factors the field as

    x' = (a1 x - 1)(a2 x - b2) x - (a1'/a1) x,

with C3 = a1 a2, C2 = -(a1 b2 + a2), C1 = b2 - a1'/a1. This module holds the
two equation models, the factorization with its exact invariance residual,
region classification by the sign of a1, and the bounded chart of the
two-component region.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poly import SignOnSet, as_fraction
from .trig import (
    Period,
    TrigPoly,
    TrigRational,
    definite_sign_report,
)


def _as_trig_rational(f) -> TrigRational:
    if isinstance(f, TrigRational):
        return f
    if isinstance(f, TrigPoly):
        return TrigRational.from_poly(f)
    return TrigRational.constant(as_fraction(f))


def _joint_period(*fs: TrigRational) -> Period:
    for f in fs:
        if f.period() is not Period.PI:
            return Period.TWO_PI
    return Period.PI


@dataclass(frozen=True)
class AbelEquation:
    """x' = x (C1 + C2 x + C3 x^2); x = 0 is a solution by construction."""

    c1: TrigRational
    c2: TrigRational
    c3: TrigRational

    @staticmethod
    def from_coefficients(c1, c2, c3) -> "AbelEquation":
        return AbelEquation(
            _as_trig_rational(c1), _as_trig_rational(c2), _as_trig_rational(c3)
        )

    @property
    def period(self) -> Period:
        return _joint_period(self.c1, self.c2, self.c3)

    def to_json(self) -> dict:
        return {
            "C1": self.c1.to_json(),
            "C2": self.c2.to_json(),
            "C3": self.c3.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "AbelEquation":
        return AbelEquation(
            TrigRational.from_json(data["C1"]),
            TrigRational.from_json(data["C2"]),
            TrigRational.from_json(data["C3"]),
        )


class InvarianceError(ValueError):
    """The candidate curve a1(t)x - 1 = 0 is not invariant; carries the exact
    trig-rational residual C1 - b2 + a1'/a1."""

    def __init__(self, residual: TrigRational):
        self.residual = residual
        super().__init__(
            "curve is not invariant: the consistency identity for the linear "
            "coefficient fails with a nonzero residual"
        )


@dataclass(frozen=True)
class FactoredAbel:
    """x' = (a1 x - 1)(a2 x - b2) x - (a1'/a1) x."""

    a1: TrigPoly
    a2: TrigRational
    b2: TrigRational

    def __post_init__(self):
        if self.a1.is_zero:
            raise ValueError("a1 must not be identically zero")

    @staticmethod
    def from_parts(a1: TrigPoly, a2, b2) -> "FactoredAbel":
        return FactoredAbel(a1, _as_trig_rational(a2), _as_trig_rational(b2))

    def log_deriv_a1(self) -> TrigRational:
        """a1'/a1."""
        return TrigRational(self.a1.derivative(), self.a1)

    @property
    def c3(self) -> TrigRational:
        return _as_trig_rational(self.a1) * self.a2

    @property
    def c2(self) -> TrigRational:
        return -(_as_trig_rational(self.a1) * self.b2 + self.a2)

    @property
    def c1(self) -> TrigRational:
        return self.b2 - self.log_deriv_a1()

    def to_abel(self) -> AbelEquation:
        return AbelEquation(self.c1, self.c2, self.c3)

    @property
    def period(self) -> Period:
        if self.a1.detect_period() is not Period.PI:
            return Period.TWO_PI
        return _joint_period(self.a2, self.b2)

    def to_json(self) -> dict:
        return {
            "a1": self.a1.to_json(),
            "a2": self.a2.to_json(),
            "b2": self.b2.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "FactoredAbel":
        return FactoredAbel(
            TrigPoly.from_json(data["a1"]),
            TrigRational.from_json(data["a2"]),
            TrigRational.from_json(data["b2"]),
        )


def factor_through_invariant(eq: AbelEquation, a1: TrigPoly) -> FactoredAbel:
    """Factor the cubic field through the candidate curve a1(t)x - 1 = 0.

    Matching coefficients gives a2 = C3/a1 and b2 = -(C2 + a2)/a1; the curve
    is invariant iff the remaining identity C1 = b2 - a1'/a1 holds exactly.
    """
    if a1.is_zero:
        raise ValueError("a1 must not be identically zero")
    a1r = _as_trig_rational(a1)
    a2 = eq.c3 / a1r
    b2 = -(eq.c2 + a2) / a1r
    residual = (eq.c1 - b2 + TrigRational(a1.derivative(), a1)).reduced()
    if not residual.is_zero:
        raise InvarianceError(residual)
    return FactoredAbel(a1, a2.reduced(), b2.reduced())


class RegionKind(Enum):
    A1_POSITIVE = "A1Positive"
    A1_SIGN_CHANGING = "A1SignChanging"
    A1_NEGATIVE = "A1Negative"


@dataclass(frozen=True)
class RegionV:
    """The bounded region between/around the curves x = 0 and a1 x = 1."""

    kind: RegionKind
    description: str


_REGION_TEXT = {
    RegionKind.A1_POSITIVE: "0 < x < 1/a1(t) for every t",
    RegionKind.A1_SIGN_CHANGING: (
        "x > 0, additionally x < 1/a1(t) for t with a1(t) > 0"
    ),
    RegionKind.A1_NEGATIVE: "x > 0 or x < 1/a1(t) (two components)",
}


def classify_region(f: FactoredAbel) -> RegionV:
    """Region shape from the circle-wide sign of a1.

    Zeros of a1 send 1/a1 to infinity, so the non-strict sign classes count
    as sign-changing for region purposes.
    """
    sign = definite_sign_report(f.a1).sign
    if sign is SignOnSet.IDENTICALLY_ZERO:
        raise ValueError("a1 must not be identically zero")
    if sign is SignOnSet.STRICTLY_POSITIVE:
        kind = RegionKind.A1_POSITIVE
    elif sign is SignOnSet.STRICTLY_NEGATIVE:
        kind = RegionKind.A1_NEGATIVE
    else:
        kind = RegionKind.A1_SIGN_CHANGING
    return RegionV(kind, _REGION_TEXT[kind])


def negative_component_transform(f: FactoredAbel) -> FactoredAbel:
    """Bounded chart for the two-component region when a1 < 0 everywhere.

    y = a1(t) x turns the equation into y' = (1/a1) y (y-1)(a2 y - a1 b2),
    i.e. the factored form with a1 = 1, a2 -> a2/a1, b2 unchanged; the region
    becomes {y < 0 or y > 1}.
    """
    if definite_sign_report(f.a1).sign is not SignOnSet.STRICTLY_NEGATIVE:
        raise ValueError("transform requires a1 strictly negative on the period")
    a1r = _as_trig_rational(f.a1)
    return FactoredAbel(
        TrigPoly.constant(1), (f.a2 / a1r).reduced(), f.b2.reduced()
    )


def riccati_bound_applies(f: FactoredAbel) -> bool:
    """a2 identically zero degenerates the equation to a Riccati equation,
    which has at most one non-null limit cycle; callers route around the
    cubic machinery in that case."""
    return f.a2.is_zero

