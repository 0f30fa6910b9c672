"""Exact trigonometric polynomials and rational functions on the circle.

A TrigPoly is a finite sum  sum c_{ij} cos^i(t) sin^j(t)  kept in the
canonical form with sin-powers reduced to 0 or 1 via sin^2 = 1 - cos^2, which
makes equality and the zero test decidable by coefficient comparison.

Sign questions over a full period are settled exactly in one of two charts:

* tangent chart, x = tan(t): for a parity-pure f (all i+j of equal parity)
  f(t) = cos(t)^d P(x) on (-pi/2, pi/2) with P rational, plus the point
  t = pi/2 and a sign flip (-1)^d on the shifted half period;
* half-angle chart, u = tan(t/2): any f equals N(u)/(1+u^2)^k on the circle
  minus the single point t = pi, with N rational.

Both charts reduce circle questions to RationalPoly sign decisions. A
rational function is read through its sign proxy, a TrigPoly with its sign
(`TrigRational.sign_proxy`). A CircleChart picks the chart for the proxies
of several functions at once and carries the circle points it misses
exactly; each TrigPoly builds its two chart polynomials and its sign report
once, on first use, and keeps them (shared by equal values in a run scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .poly import (
    MAX_DEGREE,
    CellDecomposition,
    RationalPoly,
    SignOnSet,
    _memo,
    as_fraction,
    count_distinct_roots,
    frac_str,
    join_sign_sets,
    real_line_cells,
    sign_report_on_real_line,
)


class Period(Enum):
    PI = "pi"
    TWO_PI = "2pi"

    @property
    def value_float(self) -> float:
        return math.pi if self is Period.PI else 2 * math.pi


class NonHomogeneousError(ValueError):
    """Input cannot be written as homogeneous of the requested trig degree."""


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


@dataclass(frozen=True)
class TrigPoly:
    """Canonical trig polynomial: terms map (cos_power, sin_power) -> Fraction
    with sin_power in {0, 1}."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_terms(raw: Iterable[tuple[int, int, object]]) -> "TrigPoly":
        acc: dict[tuple[int, int], Fraction] = {}
        for i, j, c in raw:
            c = as_fraction(c)
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise ValueError("negative trig powers are not allowed")
            m, j0 = divmod(j, 2)
            # sin^(2m) = (1 - cos^2)^m
            for l in range(m + 1):
                key = (i + 2 * l, j0)
                acc[key] = acc.get(key, Fraction(0)) + c * _binom(m, l) * (-1) ** l
        return TrigPoly(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(())

    @staticmethod
    def constant(c) -> "TrigPoly":
        return TrigPoly.from_terms([(0, 0, c)])

    @staticmethod
    def coswave(power: int = 1, coeff=1) -> "TrigPoly":
        return TrigPoly.from_terms([(power, 0, coeff)])

    @staticmethod
    def sinwave(power: int = 1, coeff=1) -> "TrigPoly":
        return TrigPoly.from_terms([(0, power, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        acc = self.term_dict()
        for key, c in other.terms:
            acc[key] = acc.get(key, Fraction(0)) + c
        return TrigPoly(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        raw = []
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                raw.append((i1 + i2, j1 + j2, c1 * c2))
        return TrigPoly.from_terms(raw)

    def scale(self, k) -> "TrigPoly":
        k = as_fraction(k)
        if k == 0:
            return TrigPoly.zero()
        return TrigPoly(tuple((key, c * k) for key, c in self.terms))

    def derivative(self) -> "TrigPoly":
        """d/dt, using (cos^i)' = -i cos^(i-1) sin and (cos^i sin)' re-reduced."""
        raw = []
        for (i, j), c in self.terms:
            if j == 0:
                if i > 0:
                    raw.append((i - 1, 1, -i * c))
            else:
                # (cos^i sin)' = -i cos^(i-1) (1 - cos^2) + cos^(i+1)
                if i > 0:
                    raw.append((i - 1, 0, -i * c))
                raw.append((i + 1, 0, (i + 1) * c))
        return TrigPoly.from_terms(raw)

    def eval_at(self, c: Fraction, s: Fraction) -> Fraction:
        """Exact value at a point (cos t, sin t) = (c, s) on the circle."""
        total = Fraction(0)
        for (i, j), coeff in self.terms:
            total += coeff * c**i * s**j
        return total

    def evaluate_float(self, theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        total = 0.0
        for (i, j), coeff in self.terms:
            total += float(coeff) * c**i * s**j
        return total

    @property
    def max_degree(self) -> int:
        """Largest i+j over canonical terms (-1 for the zero polynomial)."""
        return max((i + j for (i, j), _ in self.terms), default=-1)

    def parity(self) -> Optional[int]:
        """0 or 1 if every canonical term has i+j of that parity, else None."""
        if self.is_zero:
            return 0
        parities = {(i + j) % 2 for (i, j), _ in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def detect_period(self) -> Period:
        """PI iff f(t + pi) = f(t); exact because the canonical form is unique."""
        return Period.PI if self.parity() == 0 else Period.TWO_PI

    def tan_substitute(self, d: int) -> RationalPoly:
        """The polynomial P with f(t) = cos(t)^d P(tan t) on (-pi/2, pi/2).

        Requires f to be homogeneous of trig degree d, i.e. each canonical
        term must satisfy i + j <= d with d - i - j even; the term is then
        padded by (cos^2 + sin^2)^((d-i-j)/2), and c t^j (1 + t^2)^((d-i-j)/2)
        is expanded by binomials over the common denominator of the c.
        """
        den = math.lcm(*(c.denominator for _, c in self.terms))
        out = [0] * (d + 1)
        for (i, j), c in self.terms:
            gap = d - i - j
            if gap < 0 or gap % 2:
                raise NonHomogeneousError(
                    f"term cos^{i} sin^{j} does not fit trig degree {d}"
                )
            w = c.numerator * (den // c.denominator)
            for l in range(gap // 2 + 1):
                out[j + 2 * l] += w * _binom(gap // 2, l)
        return RationalPoly.from_ints(out, den)

    def tan_chart(self) -> tuple[RationalPoly, int]:
        """tan_substitute at the smallest valid degree; requires pure parity."""
        if self.parity() is None:
            raise NonHomogeneousError("mixed parity; no single tangent chart")
        d = max(self.max_degree, 0)
        return self.tan_substitute(d), d

    def half_angle_chart(self) -> tuple[RationalPoly, int]:
        """(N, k) with f(t) = N(u) / (1+u^2)^k for u = tan(t/2).

        A term c cos^i sin^j gives c (1 - u^2)^i (2u)^j (1 + u^2)^(k-i-j),
        expanded by binomials over the common denominator of the c."""
        k = max(self.max_degree, 0)
        den = math.lcm(*(c.denominator for _, c in self.terms))
        out = [0] * (2 * k + 1)
        for (i, j), c in self.terms:
            w = c.numerator * (den // c.denominator) << j
            e = k - i - j
            for a in range(i + 1):
                wa = (-1) ** a * _binom(i, a) * w
                for b in range(e + 1):
                    out[j + 2 * (a + b)] += wa * _binom(e, b)
        return RationalPoly.from_ints(out, den), k

    @staticmethod
    def from_half_angle(n: RationalPoly, k: int) -> "TrigPoly":
        """Inverse of half_angle_chart; needs deg N <= 2k.

        Uses u = sin t / (1 + cos t) and 1 + u^2 = 2 / (1 + cos t):
        u^m / (1+u^2)^k = 2^-k sin^m (1+cos)^(k-m)            for m <= k,
                        = 2^-k sin^(2k-m) (1-cos)^(m-k)        for m > k.
        """
        if n.degree > 2 * k:
            raise ValueError("numerator degree exceeds 2k; not a trig polynomial")
        raw: list[tuple[int, int, Fraction]] = []
        scale = Fraction(1, 2**k)
        for m, a in enumerate(n.coeffs):
            if a == 0:
                continue
            if m <= k:
                e, sgn, spow = k - m, 1, m
            else:
                e, sgn, spow = m - k, -1, 2 * k - m
            for l in range(e + 1):
                raw.append((l, spow, a * scale * _binom(e, l) * sgn**l))
        return TrigPoly.from_terms(raw)

    @cached_property
    def _tan(self) -> tuple[RationalPoly, bool]:
        # tan_chart, and whether the sign flips on the shifted half period
        p, d = self.tan_chart()
        return p, d % 2 == 1

    @cached_property
    def _half(self) -> RationalPoly:
        return self.half_angle_chart()[0]

    @cached_property
    def _sign_report(self) -> "SignReport":
        return _memo(self, lambda: _classify_signs(self))

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "j": j, "c": frac_str(c)}
            for (i, j), c in self.terms
        ]

    @staticmethod
    def from_json(data: Sequence[dict]) -> "TrigPoly":
        """Parse input terms; a term above MAX_DEGREE is rejected here, while
        products built later stay uncapped."""
        terms = [(d["i"], d["j"], d["c"]) for d in data]
        for i, j, _ in terms:
            if i + j > MAX_DEGREE:
                raise ValueError(f"trig degree {i + j} exceeds cap {MAX_DEGREE}")
        return TrigPoly.from_terms(terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Trig(0)"
        parts = []
        for (i, j), c in self.terms:
            bit = str(c)
            if i:
                bit += f"*c^{i}" if i > 1 else "*c"
            if j:
                bit += "*s"
            parts.append(bit)
        return "Trig(" + " + ".join(parts) + ")"


class PoleError(ZeroDivisionError):
    """Evaluation at a zero of the denominator."""


@dataclass(frozen=True)
class TrigRational:
    """Quotient of two trig polynomials; den is never identically zero."""

    num: TrigPoly
    den: TrigPoly

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("trig rational with zero denominator")

    @staticmethod
    def from_poly(p: TrigPoly) -> "TrigRational":
        return TrigRational(p, TrigPoly.constant(1))

    @staticmethod
    def constant(c) -> "TrigRational":
        return TrigRational.from_poly(TrigPoly.constant(c))

    @staticmethod
    def zero() -> "TrigRational":
        return TrigRational.from_poly(TrigPoly.zero())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "TrigRational") -> "TrigRational":
        return TrigRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "TrigRational":
        return TrigRational(-self.num, self.den)

    def __sub__(self, other: "TrigRational") -> "TrigRational":
        return self + (-other)

    def __mul__(self, other: "TrigRational") -> "TrigRational":
        return TrigRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "TrigRational") -> "TrigRational":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero trig rational")
        return TrigRational(self.num * other.den, self.den * other.num)

    def scale(self, k) -> "TrigRational":
        return TrigRational(self.num.scale(k), self.den)

    def derivative(self) -> "TrigRational":
        return TrigRational(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def equals(self, other: "TrigRational") -> bool:
        return (self.num * other.den - other.num * self.den).is_zero

    def eval_at(self, c: Fraction, s: Fraction) -> Fraction:
        d = self.den.eval_at(c, s)
        if d == 0:
            raise PoleError("denominator vanishes at the requested circle point")
        return self.num.eval_at(c, s) / d

    def evaluate_float(self, theta: float) -> float:
        d = self.den.evaluate_float(theta)
        if d == 0.0:
            raise PoleError(f"denominator vanishes at theta={theta}")
        return self.num.evaluate_float(theta) / d

    def half_angle_pair(self) -> tuple[RationalPoly, RationalPoly]:
        """Coprime (P, Q) with self = P(u)/Q(u) for u = tan(t/2), t != pi.

        Q is integer-primitive with positive leading coefficient, so the pair
        depends only on the function: self and self.reduced() share it.
        """
        return self._pair

    @cached_property
    def _pair(self) -> tuple[RationalPoly, RationalPoly]:
        nn, kn = self.num.half_angle_chart()
        nd, kd = self.den.half_angle_chart()
        one_plus = RationalPoly.from_coeffs([1, 0, 1])
        p = nn * one_plus ** max(0, kd - kn)
        q = nd * one_plus ** max(0, kn - kd)
        g = p.gcd(q)
        if g.degree > 0:
            p = p.exact_div(g)
            q = q.exact_div(g)
        # normalize so the denominator is integer-primitive with positive lead
        k = _sgn(q.ints[-1]) / q.content
        return p.scale(k), q.scale(k)

    def reduced(self) -> "TrigRational":
        """Cancel all common factors exactly via the half-angle chart.

        The chart turns the quotient into a rational function of u where
        gcd cancellation is available; the reduced pair is mapped back with a
        shared (1+u^2) normalization so the ratio is unchanged. The result is
        computed once and kept; it is its own reduced form.
        """
        return self if self.__dict__.get("_is_reduced") else self._reduced

    @cached_property
    def _reduced(self) -> "TrigRational":
        return _memo((self.num, self.den), self._reduce)

    def _reduce(self) -> "TrigRational":
        if self.num.is_zero:
            r = TrigRational.zero()
        else:
            p, q = self._pair
            k = max((p.degree + 1) // 2, (q.degree + 1) // 2)
            r = TrigRational(
                TrigPoly.from_half_angle(p, k), TrigPoly.from_half_angle(q, k)
            )
            r.__dict__["_pair"] = (p, q)
        # a flag: a reference from r to itself would be a cycle
        r.__dict__["_is_reduced"] = True
        return r

    def sign_proxy(self) -> TrigPoly:
        """num*den of the reduced form: same sign as self wherever defined,
        zero exactly at zeros and poles of self. The reduced form builds it
        once and keeps it, and with it the proxy's charts and sign report."""
        return self.reduced()._proxy

    @cached_property
    def _proxy(self) -> TrigPoly:
        # read only on a reduced form, through sign_proxy
        return self.num * self.den

    def period(self) -> Period:
        pn, pd = self.num.parity(), self.den.parity()
        if pn is not None and pd is not None and pn == pd:
            return Period.PI
        if self.num.is_zero:
            return Period.PI
        return Period.TWO_PI

    def pole_free(self) -> bool:
        """True when the reduced denominator never vanishes on the circle:
        Q has no real root, and the reduced form is finite at t = pi."""
        q = _pole_part(self)
        if q.degree > 0 and count_distinct_roots(q) > 0:
            return False
        return self.reduced().den.eval_at(Fraction(-1), Fraction(0)) != 0

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data) -> "TrigRational":
        if isinstance(data, list):
            return TrigRational.from_poly(TrigPoly.from_json(data))
        return TrigRational(
            TrigPoly.from_json(data["num"]), TrigPoly.from_json(data["den"])
        )

    def __repr__(self) -> str:
        return f"TrigRational({self.num!r} / {self.den!r})"


TrigLike = Union[TrigPoly, TrigRational]


def _proxy(f: TrigLike) -> TrigPoly:
    """The TrigPoly whose sign is read for f: f itself, or its sign proxy."""
    return f.sign_proxy() if isinstance(f, TrigRational) else f


def _pole_part(f: TrigRational) -> RationalPoly:
    """Q of the half-angle pair without its factors 1 + u^2, which have no
    real root; the real roots left are the poles of f off t = pi."""
    _, q = f.half_angle_pair()
    one_plus = RationalPoly.from_coeffs([1, 0, 1])
    while q.degree > 1:
        quo, rem = q.divmod(one_plus)
        if not rem.is_zero:
            break
        q = quo
    return q


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


_TAN_MISSED = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)))  # pi/2, 3pi/2
_HALF_MISSED = ((Fraction(-1), Fraction(0)),)  # pi


class CircleChart:
    """Joint sign chart of several functions over the circle.

    When every function is parity-pure the chart is the tangent one: piece
    'tan' on (-pi/2, pi/2), plus piece 'tan2' on the shifted half period when
    some function flips sign there, and the missed points pi/2 and 3pi/2.
    Otherwise it is the half-angle chart: piece 'half' and the missed point
    pi. Each function is read through its sign proxy: `pieces` holds (name,
    chart polynomials) with one per function, and `points` holds ((cos, sin),
    proxy values) for the missed points.
    """

    def __init__(self, functions: Sequence[TrigLike]):
        proxies = [_proxy(f) for f in functions]
        if all(p.parity() is not None for p in proxies):
            tan = [p._tan for p in proxies]
            self.pieces = [("tan", tuple(p for p, _ in tan))]
            if any(flip for _, flip in tan):
                self.pieces.append(
                    ("tan2", tuple(p.scale(-1) if flip else p for p, flip in tan))
                )
            missed = _TAN_MISSED
        else:
            self.pieces = [("half", tuple(p._half for p in proxies))]
            missed = _HALF_MISSED
        self.points = [
            ((c, s), tuple(p.eval_at(c, s) for p in proxies)) for c, s in missed
        ]

    @cached_property
    def cells(self) -> Optional[CellDecomposition]:
        """Real-line cells cut by the roots of the proxies, or None when some
        proxy vanishes identically. 'tan2' proxies have the same roots as
        'tan' ones, so every piece shares these cells."""
        proxies = self.pieces[0][1]
        if any(p.is_zero for p in proxies):
            return None
        return real_line_cells(proxies)

    @staticmethod
    def angle(chart: str, coord) -> float:
        """Float angle of a chart sample. coord is tan t for 'tan' and 'tan2'
        (the shifted half period), tan(t/2) for 'half' (the angle stays in
        (-pi, pi]), and the exact (cos, sin) for 'point'."""
        if chart == "point":
            c, s = coord
            return math.atan2(float(s), float(c)) % (2 * math.pi)
        if chart == "half":
            return 2.0 * math.atan(float(coord))
        theta = math.atan(float(coord))
        if chart == "tan2":
            theta += math.pi
        return theta % (2 * math.pi)


@dataclass(frozen=True)
class SignReport:
    """Sign classification over one full period with attaining samples.

    Samples are (chart, coordinate) pairs as taken by CircleChart.angle; a
    'point' sample carries its exact (cos, sin).
    """

    sign: SignOnSet
    positive_at: Optional[tuple] = None
    negative_at: Optional[tuple] = None


def _point_sign_set(value: Fraction) -> SignOnSet:
    if value > 0:
        return SignOnSet.STRICTLY_POSITIVE
    if value < 0:
        return SignOnSet.STRICTLY_NEGATIVE
    return SignOnSet.IDENTICALLY_ZERO


def _flip_sign_set(s: SignOnSet) -> SignOnSet:
    return {
        SignOnSet.STRICTLY_POSITIVE: SignOnSet.STRICTLY_NEGATIVE,
        SignOnSet.NON_NEGATIVE: SignOnSet.NON_POSITIVE,
        SignOnSet.STRICTLY_NEGATIVE: SignOnSet.STRICTLY_POSITIVE,
        SignOnSet.NON_POSITIVE: SignOnSet.NON_NEGATIVE,
        SignOnSet.IDENTICALLY_ZERO: SignOnSet.IDENTICALLY_ZERO,
        SignOnSet.MIXED: SignOnSet.MIXED,
    }[s]


def definite_sign_report(f: TrigLike) -> SignReport:
    """Exact sign classification of f over [0, 2pi] with witnesses, made on
    first use and kept on the TrigPoly that is read.

    A TrigRational is classified through its sign proxy, num*den of the
    reduced form: identical wherever the function is defined, with poles
    contributing their two-sided sign behavior (an odd-order pole forces
    Mixed).
    """
    return _proxy(f)._sign_report


def _classify_signs(f: TrigPoly) -> SignReport:
    if f.is_zero:
        return SignReport(SignOnSet.IDENTICALLY_ZERO)
    chart = CircleChart((f,))
    name, (p,) = chart.pieces[0]
    s_open, pos, neg = sign_report_on_real_line(p)
    signs = [s_open]
    samples = [(1, name, pos), (-1, name, neg)]
    if len(chart.pieces) == 2:  # 'tan2': the same samples, sign flipped
        signs.append(_flip_sign_set(s_open))
        samples += [(-1, "tan2", pos), (1, "tan2", neg)]
    for circle, (v,) in chart.points:
        signs.append(_point_sign_set(v))
        samples.append((_sgn(v), "point", circle))
    pos_at, neg_at = (
        next(((c, x) for s, c, x in samples if s == want and x is not None), None)
        for want in (1, -1)
    )
    return SignReport(join_sign_sets(*signs), pos_at, neg_at)


def rotate_half(f: TrigPoly) -> TrigPoly:
    """f(theta + pi): each cos^i sin^j term picks up (-1)^(i+j)."""
    return TrigPoly(
        tuple(((i, j), c * (-1) ** (i + j)) for (i, j), c in f.terms)
    )


def vanishing_order_at_pi(f: TrigPoly) -> int:
    """Order of the zero of f at theta = pi (0 when f(pi) != 0).

    theta = pi maps to u = 0 after rotating by half a period, where
    u = tan(theta/2) is an analytic chart, so the order equals the
    valuation of the rotated half-angle numerator.
    """
    if f.is_zero:
        raise ValueError("the zero function has no finite vanishing order")
    n, _ = rotate_half(f).half_angle_chart()
    order = 0
    while n.ints[order] == 0:
        order += 1
    return order


def has_odd_order_pole(f: TrigRational) -> bool:
    """True when the reduced form has a pole of odd order somewhere on the
    circle; such a pole forces a sign change, so no definite-sign analysis
    can absorb it."""
    q = _pole_part(f)
    if q.degree > 0:
        for factor, mult in q.squarefree_decomposition():
            if mult % 2 == 1 and factor.degree > 0 and count_distinct_roots(factor) > 0:
                return True
    # the half-angle chart misses theta = pi
    r = f.reduced()
    if r.den.eval_at(Fraction(-1), Fraction(0)) == 0:
        vd = vanishing_order_at_pi(r.den)
        vn = vanishing_order_at_pi(r.num) if not r.num.is_zero else vd
        if vd > vn and (vd - vn) % 2 == 1:
            return True
    return False


def cancel_pole_combination(b2: TrigRational, a1: TrigPoly, eta) -> TrigRational:
    """b2 + eta * a1'/a1 in reduced form; cancellation is exact, so choices of
    eta that remove the poles at zeros of a1 really produce a pole-free result."""
    if a1.is_zero:
        raise ZeroDivisionError("a1 must not be identically zero")
    eta = as_fraction(eta)
    log_deriv = TrigRational(a1.derivative().scale(eta), a1)
    return (b2 + log_deriv).reduced()
