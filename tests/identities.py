"""Algebra that only the identity tests use, kept out of the library.

The exact engine decides its criteria on trig rationals and Sturm chains with
rescaled members. The tests check, on the nose, the identities behind those
criteria: the cubic right-hand side as a polynomial in x, the cofactors of
the invariant curves x = 0 and a1 x = 1, the stability quadratic with the
constant tail of its Sturm chain, the normalization map with its inverse, and
the unscaled Sturm chain whose tail these closed forms are compared with.
Exact values are taken at rational circle points. Witnesses are re-checked
by the exact sign of each function's sign proxy at the witness sample, and
resultants are checked against the determinant of the Sylvester matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from abelcycles.abel import AbelEquation, FactoredAbel
from abelcycles.criteria import Witness
from abelcycles.poly import RationalPoly, SignOnSet, as_fraction
from abelcycles.trig import (
    TrigLike,
    TrigPoly,
    TrigRational,
    definite_sign_report,
)


def circle_point(u: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point (cos t, sin t) for u = tan(t/2)."""
    d = 1 + u * u
    return (1 - u * u) / d, 2 * u / d


def as_trig_rational(f) -> TrigRational:
    if isinstance(f, TrigRational):
        return f
    if isinstance(f, TrigPoly):
        return TrigRational.from_poly(f)
    return TrigRational.constant(as_fraction(f))


@dataclass(frozen=True)
class XPoly:
    """Polynomial in x with trig-rational coefficients, low to high degree."""

    coeffs: tuple[TrigRational, ...]

    @staticmethod
    def from_coeffs(raw: Iterable) -> "XPoly":
        cs = [as_trig_rational(c) for c in raw]
        while cs and cs[-1].is_zero:
            cs.pop()
        return XPoly(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coeff(self, k: int) -> TrigRational:
        return self.coeffs[k] if k < len(self.coeffs) else TrigRational.zero()

    def __add__(self, other: "XPoly") -> "XPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return XPoly.from_coeffs(self.coeff(k) + other.coeff(k) for k in range(n))

    def __neg__(self) -> "XPoly":
        return XPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __mul__(self, other: "XPoly") -> "XPoly":
        out = [TrigRational.zero()] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return XPoly.from_coeffs(out)

    def partial_x(self) -> "XPoly":
        return XPoly.from_coeffs(c.scale(k) for k, c in enumerate(self.coeffs) if k > 0)

    def partial_t(self) -> "XPoly":
        return XPoly.from_coeffs(c.derivative() for c in self.coeffs)


def rhs(eq: Union[AbelEquation, FactoredAbel]) -> XPoly:
    """The right-hand side x (C1 + C2 x + C3 x^2) as a polynomial in x."""
    if isinstance(eq, FactoredAbel):
        eq = eq.to_abel()
    return XPoly.from_coeffs([TrigRational.zero(), eq.c1, eq.c2, eq.c3])


def cofactors(f: FactoredAbel) -> tuple[XPoly, XPoly]:
    """(cofactor of x = 0, cofactor of a1 x - 1 = 0)."""
    a1r = as_trig_rational(f.a1)
    p1 = XPoly.from_coeffs(
        [f.b2 - f.log_deriv_a1(), -(a1r * f.b2 + f.a2), a1r * f.a2]
    )
    p2 = XPoly.from_coeffs([TrigRational.zero(), -(a1r * f.b2), a1r * f.a2])
    return p1, p2


@dataclass(frozen=True)
class CombinationParams:
    """Multipliers (alpha, beta, eta) for the cofactor combination
    p_x + alpha p1 + beta p2 + (1 + alpha + eta) a1'/a1."""

    alpha: Fraction
    beta: Fraction
    eta: Fraction

    @staticmethod
    def of(alpha, beta, eta) -> "CombinationParams":
        return CombinationParams(as_fraction(alpha), as_fraction(beta), as_fraction(eta))


def stability_quadratic(f: FactoredAbel, params: CombinationParams) -> XPoly:
    """The quadratic in x whose definite sign on the region bounds the cycle
    count at one per connected component:

        (3+A+B) a1 a2 x^2 - ((2+A) a2 + (2+A+B) a1 b2) x
        + (1+A) b2 + E a1'/a1

    for (A, B, E) = params. Equals p_x + A p1 + B p2 + (1+A+E) a1'/a1.
    """
    al, be, eta = params.alpha, params.beta, params.eta
    a1r = as_trig_rational(f.a1)
    lead = (a1r * f.a2).scale(3 + al + be)
    mid = -(f.a2.scale(2 + al) + (a1r * f.b2).scale(2 + al + be))
    low = f.b2.scale(1 + al) + f.log_deriv_a1().scale(eta)
    return XPoly.from_coeffs([low, mid, lead])


def stability_sturm_tail(f: FactoredAbel, params: CombinationParams) -> TrigRational:
    """Closed form of the constant tail of the Sturm chain of the stability
    quadratic in x (convention: tail = B^2/(4A) - C for A x^2 + B x + C).
    Valid wherever a1, a2 are nonzero; needs alpha + beta + 3 != 0."""
    al, be, eta = params.alpha, params.beta, params.eta
    if al + be + 3 == 0:
        raise ValueError("degenerate leading coefficient: alpha + beta + 3 = 0")
    if f.a2.is_zero:
        raise ValueError("a2 identically zero has no quadratic tail")
    a1r = as_trig_rational(f.a1)
    term1 = (f.a2 / a1r).scale((2 + al) ** 2 / (4 * (3 + al + be)))
    term2 = (a1r * f.b2 * f.b2 / f.a2).scale((2 + al + be) ** 2 / (4 * (3 + al + be)))
    term3 = f.b2.scale(-(2 + al**2 + al * (4 + be)) / (2 * (3 + al + be)))
    term4 = f.log_deriv_a1().scale(-eta)
    return term1 + term2 + term3 + term4


@dataclass(frozen=True)
class NormalizedAbel:
    """Scaled form x' = (a1n x - b1n)(a2n x - b2n) x + (b1n' - a1n' x) x / b1n
    obtained from FactoredAbel by a nowhere-zero multiplier b1n."""

    a1n: TrigPoly
    b1n: TrigPoly
    a2n: TrigRational
    b2n: TrigRational


def normalize(f: FactoredAbel, b1n: TrigPoly) -> NormalizedAbel:
    """Rescale by a nowhere-vanishing b1n:

        a1n = a1 b1n,  a2n = a2 / b1n,  b2n = (b2 - a1n'/a1n) / b1n.

    This is the unique map making the scaled form expand to the same cubic
    coefficients as the input equation (re-bracketing, not a change of
    variables); see the coefficient identity test.
    """
    sign = definite_sign_report(b1n).sign
    if sign not in (SignOnSet.STRICTLY_POSITIVE, SignOnSet.STRICTLY_NEGATIVE):
        raise ValueError("the multiplier b1n must be nowhere zero on the period")
    b1r = as_trig_rational(b1n)
    a1n = f.a1 * b1n
    a2n = (f.a2 / b1r).reduced()
    log_a1n = TrigRational(a1n.derivative(), a1n)
    b2n = ((f.b2 - log_a1n) / b1r).reduced()
    return NormalizedAbel(a1n, b1n, a2n, b2n)


def denormalize(n: NormalizedAbel) -> AbelEquation:
    """Invert the normalization map back to raw coefficients:
    a1 = a1n/b1n, a2 = a2n b1n, b2 = b2n b1n + a1n'/a1n."""
    b1r = as_trig_rational(n.b1n)
    a1 = as_trig_rational(n.a1n) / b1r
    a2 = n.a2n * b1r
    log_a1n = TrigRational(n.a1n.derivative(), n.a1n)
    b2 = n.b2n * b1r + log_a1n
    log_a1 = log_a1n - TrigRational(n.b1n.derivative(), n.b1n)
    c3 = a1 * a2
    c2 = -(a1 * b2 + a2)
    c1 = b2 - log_a1
    return AbelEquation(c1.reduced(), c2.reduced(), c3.reduced())


def sturm_sequence(p: RationalPoly) -> list[RationalPoly]:
    """Canonical Sturm chain: s0=p, s1=p', s_{i+1} = -rem(s_{i-1}, s_i).

    Returned without any rescaling so that algebraic identities on the tail
    hold on the nose (the last element of a quadratic chain is B^2/(4A) - C).
    """
    if p.is_zero:
        return [p]
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    if chain[-1].is_zero:
        chain.pop()
    return chain


def chart_sign(f: TrigLike, chart: str, coord) -> int:
    """Exact sign of f at a chart sample (see CircleChart.angle), read from
    its sign proxy; 0 at zeros and poles."""
    p = f.sign_proxy() if isinstance(f, TrigRational) else f
    if chart == "point":
        v = p.eval_at(*coord)
        return (v > 0) - (v < 0)
    if chart == "half":
        return p.half_angle_chart()[0].sign(coord)
    if chart not in ("tan", "tan2"):
        raise ValueError(f"unknown chart {chart!r}")
    q, d = p.tan_chart()
    v = q.sign(coord)
    return -v if chart == "tan2" and d % 2 == 1 else v


def witness_sign(f: TrigLike, w: Witness) -> int:
    """Exact sign of f at the witness sample; 0 at zeros and poles."""
    return chart_sign(f, w.chart, w.sample())


def sylvester_resultant(p: RationalPoly, q: RationalPoly) -> Fraction:
    """Res(p, q) as the determinant of the Sylvester matrix, by Gaussian
    elimination over Q; p and q must be nonzero."""
    n, m = p.degree, q.degree
    size = n + m
    rows = []
    for k in range(m):
        rows.append([Fraction(0)] * k + list(reversed(p.coeffs)) + [Fraction(0)] * (m - 1 - k))
    for k in range(n):
        rows.append([Fraction(0)] * k + list(reversed(q.coeffs)) + [Fraction(0)] * (n - 1 - k))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            ratio = rows[r][col] / rows[col][col]
            if ratio:
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[col])]
    return det
