"""Exact univariate polynomials over the rationals and Sturm-based sign decisions.

Everything in this module is float-free: a polynomial is a positive rational
content times an integer-primitive coefficient tuple, root counting goes
through Sturm chains, and sign questions over the real line are answered by
isolating roots and sampling each cell at a rational point. Arithmetic and
sign reads run over the integers: sums and products combine the integer
tuples, a sign at a/b is that of the homogeneous form at (a, b), and Sturm
chains and gcds are built from integer pseudo-remainders.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union


class EndpointRootError(ValueError):
    """Raised when a root-counting endpoint is itself a root; caller must perturb."""


class SignOnSet(Enum):
    STRICTLY_POSITIVE = "StrictlyPositive"
    NON_NEGATIVE = "NonNegative"
    STRICTLY_NEGATIVE = "StrictlyNegative"
    NON_POSITIVE = "NonPositive"
    IDENTICALLY_ZERO = "IdenticallyZero"
    MIXED = "Mixed"

    @property
    def is_nonnegative(self) -> bool:
        return self in (
            SignOnSet.STRICTLY_POSITIVE,
            SignOnSet.NON_NEGATIVE,
            SignOnSet.IDENTICALLY_ZERO,
        )

    @property
    def is_nonpositive(self) -> bool:
        return self in (
            SignOnSet.STRICTLY_NEGATIVE,
            SignOnSet.NON_POSITIVE,
            SignOnSet.IDENTICALLY_ZERO,
        )

    @property
    def is_strict(self) -> bool:
        return self in (SignOnSet.STRICTLY_POSITIVE, SignOnSet.STRICTLY_NEGATIVE)


def sign_set_from_flags(has_pos: bool, has_zero: bool, has_neg: bool) -> SignOnSet:
    if has_pos and has_neg:
        return SignOnSet.MIXED
    if has_pos:
        return SignOnSet.NON_NEGATIVE if has_zero else SignOnSet.STRICTLY_POSITIVE
    if has_neg:
        return SignOnSet.NON_POSITIVE if has_zero else SignOnSet.STRICTLY_NEGATIVE
    return SignOnSet.IDENTICALLY_ZERO


def sign_set_flags(s: SignOnSet) -> tuple[bool, bool, bool]:
    return {
        SignOnSet.STRICTLY_POSITIVE: (True, False, False),
        SignOnSet.NON_NEGATIVE: (True, True, False),
        SignOnSet.STRICTLY_NEGATIVE: (False, False, True),
        SignOnSet.NON_POSITIVE: (False, True, True),
        SignOnSet.IDENTICALLY_ZERO: (False, True, False),
        SignOnSet.MIXED: (True, True, True),
    }[s]


def join_sign_sets(*sets: SignOnSet) -> SignOnSet:
    has_pos = has_zero = has_neg = False
    for s in sets:
        p, z, n = sign_set_flags(s)
        has_pos |= p
        has_zero |= z
        has_neg |= n
    return sign_set_from_flags(has_pos, has_zero, has_neg)


class _Infinity:
    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "+oo" if self.sign > 0 else "-oo"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

ExtendedPoint = Union[Fraction, _Infinity]

# largest total degree of a term in a parsed input, bivariate or trig
MAX_DEGREE = 16


_RUN_CACHE: ContextVar[Optional[dict]] = ContextVar("exact_cache", default=None)


@contextmanager
def exact_cache():
    """A run scope: equal values share their isolations, reductions and sign reports."""
    token = _RUN_CACHE.set({})
    try:
        yield
    finally:
        _RUN_CACHE.reset(token)


def _memo(key, make):
    """make(), computed once per key within the active run scope."""
    cache = _RUN_CACHE.get()
    if cache is None:
        return make()
    value = cache.get(key)  # no memoized value is None
    if value is None:
        value = cache[key] = make()
    return value


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def frac_str(x: Fraction) -> str:
    """The text 'p/q' of a rational, the format that as_fraction parses."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial over Q, stored once as content * ints.

    ints holds integer coefficients, lowest degree first, with gcd 1 and no
    trailing zero, and content is a positive Fraction; so the sign of ints
    is that of the polynomial, and equal polynomials have equal fields and
    equal hashes. The zero polynomial is () with content 1."""

    content: Fraction
    ints: tuple[int, ...]

    @staticmethod
    def from_ints(vs: Sequence[int], den: int = 1, num: int = 1) -> "RationalPoly":
        """The polynomial with coefficients num * vs[i] / den, num, den > 0."""
        vs = list(vs)
        while vs and vs[-1] == 0:
            vs.pop()
        if not vs:
            return _ZERO
        g = math.gcd(*vs)
        if g > 1:
            vs = [v // g for v in vs]
        return RationalPoly(Fraction(num * g, den), tuple(vs))

    @staticmethod
    def from_coeffs(cs: Iterable) -> "RationalPoly":
        coeffs = [as_fraction(c) for c in cs]
        den = math.lcm(*(c.denominator for c in coeffs))
        return RationalPoly.from_ints(
            [c.numerator * (den // c.denominator) for c in coeffs], den
        )

    @staticmethod
    def zero() -> "RationalPoly":
        return _ZERO

    @staticmethod
    def constant(c) -> "RationalPoly":
        return RationalPoly.from_coeffs([c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.content * v for v in self.ints)

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.ints) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        # content gcd(a, c) / lcm(b, d), so both multipliers are integers
        (a, b), (c, d) = self.content.as_integer_ratio(), other.content.as_integer_ratio()
        g, den = math.gcd(a, c), math.lcm(b, d)
        m, n = a // g * (den // b), c // g * (den // d)
        out = [0] * max(len(self.ints), len(other.ints))
        for i, v in enumerate(self.ints):
            out[i] = m * v
        for i, v in enumerate(other.ints):
            out[i] += n * v
        return RationalPoly.from_ints(out, den, g)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(self.content, tuple(-v for v in self.ints))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero or other.is_zero:
            return _ZERO
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, a in enumerate(self.ints):
            if a == 0:
                continue
            for j, b in enumerate(other.ints):
                out[i + j] += a * b
        # a product of primitive polynomials is primitive (Gauss's lemma)
        (a, b), (c, d) = self.content.as_integer_ratio(), other.content.as_integer_ratio()
        return RationalPoly(Fraction(a * c, b * d), tuple(out))

    def scale(self, k) -> "RationalPoly":
        n, d = as_fraction(k).as_integer_ratio()
        if n == 0 or self.is_zero:
            return _ZERO
        a, b = self.content.as_integer_ratio()
        ints = self.ints if n > 0 else tuple(-v for v in self.ints)
        return RationalPoly(Fraction(a * abs(n), b * d), ints)

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative power")
        result = RationalPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, div = list(self.coeffs), other.coeffs
        quot = [Fraction(0)] * max(0, len(rem) - len(div) + 1)
        for k in reversed(range(len(quot))):
            f = quot[k] = rem[k + len(div) - 1] / div[-1]
            for i, c in enumerate(div):
                rem[k + i] -= f * c
        return RationalPoly.from_coeffs(quot), RationalPoly.from_coeffs(rem)

    def exact_div(self, other: "RationalPoly") -> "RationalPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def derivative(self) -> "RationalPoly":
        a, b = self.content.as_integer_ratio()
        return RationalPoly.from_ints([i * v for i, v in enumerate(self.ints)][1:], b, a)

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.ints):
            acc = acc * x + c
        return self.content * acc

    def sign(self, x) -> int:
        """Exact sign of self at a rational x (an int or a Fraction).

        With x = a/b and b > 0 this is the sign of b^deg * self(a/b) /
        content, taken by homogeneous Horner over the integers."""
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.ints):
            acc = acc * a + c * scale
            scale *= b
        return (acc > 0) - (acc < 0)

    def primitive(self) -> "RationalPoly":
        """Integer-primitive positive multiple of self (content divided out)."""
        return RationalPoly(_ONE, self.ints)

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            return self
        return self.primitive().scale(Fraction(1, self.ints[-1]))

    def gcd(self, other: "RationalPoly") -> "RationalPoly":
        """Monic gcd, by the primitive remainder sequence over the integers."""
        a, b = self.ints, other.ints
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return RationalPoly(_ONE, a).monic()

    def squarefree_part(self) -> "RationalPoly":
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.exact_div(g).primitive()

    def squarefree_decomposition(self) -> list[tuple["RationalPoly", int]]:
        """Monic squarefree factors with multiplicities: self = c * prod f_i^i."""
        if self.degree <= 0:
            return []
        g = self.gcd(self.derivative())
        w = self.exact_div(g)
        out: list[tuple[RationalPoly, int]] = []
        mult = 1
        while w.degree > 0:
            y = w.gcd(g)
            f = w.exact_div(y)
            if f.degree > 0:
                out.append((f.monic(), mult))
            w = y
            if g.degree > 0:
                g = g.exact_div(y)
            mult += 1
        return out

    def odd_multiplicity_part(self) -> "RationalPoly":
        """Monic product of the squarefree factors whose multiplicity is odd."""
        out = RationalPoly.constant(1)
        for f, mult in self.squarefree_decomposition():
            if mult % 2 == 1:
                out = out * f
        return out

    def cauchy_bound(self) -> Fraction:
        """Every real root lies strictly inside [-B, B]."""
        if self.degree <= 0:
            return Fraction(1)
        lead = abs(self.ints[-1])
        return Fraction(lead + max(abs(v) for v in self.ints[:-1]), lead)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def _primitive(vs: Sequence[int]) -> tuple[int, ...]:
    """vs divided by its content."""
    g = math.gcd(*vs)
    return tuple(v // g for v in vs) if g > 1 else tuple(vs)


_ONE = Fraction(1)
_ZERO = RationalPoly(_ONE, ())


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive integer multiple of rem(a, b) over Q, b nonzero.

    Each step cancels the leading term of r by |lc(b)| * r - sgn(lc(b)) *
    lc(r) * x^k * b, both factors first divided by gcd(lc(r), lc(b)); the
    multiplier of r stays positive, so no sign flips."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    sb, mb = (1, lb) if lb > 0 else (-1, -lb)
    while len(r) > n:
        lr = r.pop()
        if lr == 0:
            continue
        g = math.gcd(lr, mb)
        s, t = mb // g, sb * lr // g
        k = len(r) - n
        if s != 1:
            r = [s * v for v in r]
        for i in range(n):
            r[k + i] -= t * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def sign_at(p: RationalPoly, point: ExtendedPoint) -> int:
    """Sign of p at a rational point or at +-infinity via leading behavior."""
    if p.is_zero:
        return 0
    if isinstance(point, _Infinity):
        s = 1 if p.ints[-1] > 0 else -1
        return -s if point.sign < 0 and p.degree % 2 == 1 else s
    return p.sign(point)


def _scaled_sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    """Sturm chain (s0 = p, s1 = p', s_{i+1} = -rem(s_{i-1}, s_i)) with each
    member rescaled to a positive integer-primitive multiple; sign patterns,
    and hence variation counts, are unchanged. The remainders are taken over
    the integers (see _pseudo_remainder)."""
    if p.is_zero:
        return [p]
    chain = [p.ints, _primitive([i * c for i, c in enumerate(p.ints)][1:])]
    if not chain[1]:
        return [p.primitive()]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-v for v in r]))
    return [RationalPoly(_ONE, c) for c in chain]


def sign_variations(chain: Sequence[RationalPoly], at: ExtendedPoint) -> int:
    if isinstance(at, _Infinity):
        signs = [sign_at(q, at) for q in chain]
    else:
        signs = [q.sign(at) for q in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_distinct_roots(
    p: RationalPoly, lo: ExtendedPoint = NEG_INF, hi: ExtendedPoint = POS_INF
) -> int:
    """Number of distinct real roots of p in (lo, hi); endpoints must not be roots."""
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    for pt in (lo, hi):
        if not isinstance(pt, _Infinity) and p.sign(pt) == 0:
            raise EndpointRootError(f"endpoint {pt} is a root; perturb the interval")
    chain = _scaled_sturm_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def _nonroot_split(q: RationalPoly, lo: Fraction, hi: Fraction) -> Fraction:
    width = hi - lo
    for num, den in ((1, 2), (3, 7), (5, 11), (7, 13), (9, 17), (11, 23)):
        cand = lo + width * Fraction(num, den)
        if q.sign(cand) != 0:
            return cand
    # q has finitely many roots, so some shifted midpoint must work
    k = 29
    while True:
        cand = lo + width * Fraction(1, k)
        if q.sign(cand) != 0:
            return cand
        k += 2


def isolate_real_roots(p: RationalPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one distinct real root."""
    # the scope keeps a tuple, so a caller's list is its own
    return list(_memo(p, lambda: tuple(_isolate_real_roots(p))))


def _isolate_real_roots(p: RationalPoly) -> list[tuple[Fraction, Fraction]]:
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    q = p.squarefree_part()
    if q.degree <= 0:
        return []
    chain = _scaled_sturm_chain(q)
    bound = q.cauchy_bound()
    big = Fraction(math.ceil(bound) + 1)

    def count(lo: Fraction, hi: Fraction) -> int:
        return sign_variations(chain, lo) - sign_variations(chain, hi)

    # each work item carries the variation counts at its ends, so every
    # split point is evaluated once
    done: list[tuple[Fraction, Fraction]] = []
    work = [(-big, sign_variations(chain, -big), big, sign_variations(chain, big))]
    while work:
        lo, vlo, hi, vhi = work.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            done.append((lo, hi))
            continue
        mid = _nonroot_split(q, lo, hi)
        vmid = sign_variations(chain, mid)
        work.append((lo, vlo, mid, vmid))
        work.append((mid, vmid, hi, vhi))
    done.sort()
    # bisection can leave adjacent intervals sharing an endpoint; shrink the
    # left one (keeping the half that holds its root) until they are disjoint
    for i in range(1, len(done)):
        while done[i - 1][1] >= done[i][0]:
            plo, phi = done[i - 1]
            mid = _nonroot_split(q, plo, phi)
            done[i - 1] = (plo, mid) if count(plo, mid) == 1 else (mid, phi)
    return done


def refine_interval(
    p: RationalPoly, interval: tuple[Fraction, Fraction], width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree p below the requested width."""
    q = p.squarefree_part()
    lo, hi = interval
    slo = q.sign(lo)
    while hi - lo > width:
        mid = _nonroot_split(q, lo, hi)
        smid = q.sign(mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class CellDecomposition:
    """Root intervals of a product polynomial plus one rational sample per cell."""

    intervals: list[tuple[Fraction, Fraction]]
    samples: list[Fraction]
    outer_bound: Fraction


def real_line_cells(polys: Sequence[RationalPoly]) -> CellDecomposition:
    """Cells of R cut by all roots of the given nonzero polynomials.

    samples[i] lies strictly between root i-1 and root i (with samples[0]
    below every root and samples[-1] above every root).
    """
    product = RationalPoly.constant(1)
    for q in polys:
        if q.is_zero:
            raise ValueError("cell decomposition needs nonzero polynomials")
        if q.degree > 0:
            product = product * q.squarefree_part()
    if product.degree <= 0:
        return CellDecomposition([], [Fraction(0)], Fraction(1))
    intervals = isolate_real_roots(product)
    bound = Fraction(math.ceil(product.cauchy_bound()) + 1)
    samples = [-bound]
    for (a, b), (c, d) in zip(intervals, intervals[1:]):
        samples.append(b + (c - b) / 2)
    samples.append(bound)
    return CellDecomposition(intervals, samples, bound)


_PREMISE_OK = {"<0": lambda s: s < 0, ">0": lambda s: s > 0}
_CONCLUSION_OK = {"<=0": lambda s: s <= 0, ">=0": lambda s: s >= 0}


def sign_implication(
    a: RationalPoly,
    cond_a: str,
    b: RationalPoly,
    cond_b: str,
    cells: Optional[CellDecomposition] = None,
) -> tuple[bool, Optional[Fraction]]:
    """Decide whether A(t) cond_a implies B(t) cond_b for every real t.

    cond_a is a strict sign ('<0' or '>0'), cond_b a non-strict one
    ('<=0' or '>=0'). Returns (holds, witness); the witness is a rational
    point violating the implication. Decision: at roots of A the premise is
    false and at roots of B the non-strict conclusion holds, so it is enough
    to check one rational sample inside each open cell cut by roots of A*B.
    `cells`, when given, must be those cells (from polynomials with the same
    real roots), so a caller can reuse one isolation for several sign flips.
    """
    if cond_a not in _PREMISE_OK or cond_b not in _CONCLUSION_OK:
        raise ValueError(f"unsupported condition pair {cond_a!r}, {cond_b!r}")
    if a.is_zero:
        return True, None
    if b.is_zero:
        return True, None
    prem = _PREMISE_OK[cond_a]
    concl = _CONCLUSION_OK[cond_b]
    if cells is None:
        cells = real_line_cells([a, b])
    for s in cells.samples:
        if prem(a.sign(s)) and not concl(b.sign(s)):
            return False, s
    return True, None


def find_strict_interval(
    constraints: Sequence[tuple[RationalPoly, int]],
    cells: Optional[CellDecomposition] = None,
) -> Optional[tuple[Fraction, Fraction]]:
    """A closed rational interval of positive length where every polynomial
    keeps the requested strict sign (+1 or -1), or None.

    The interval is a root-free gap of the product polynomial, so a single
    exact sample certifies the strict signs on all of it. `cells` may be
    passed in as for sign_implication.
    """
    polys = [p for p, _ in constraints]
    if any(p.is_zero for p in polys):
        return None
    if cells is None:
        cells = real_line_cells(polys)
    n = len(cells.samples)
    for idx, s in enumerate(cells.samples):
        if all(p.sign(s) == want for p, want in constraints):
            if not cells.intervals:
                return (s - 1, s + 1)
            if idx == 0:
                return (s - 2, s - 1)
            if idx == n - 1:
                return (s + 1, s + 2)
            left = cells.intervals[idx - 1][1]
            right = cells.intervals[idx][0]
            return (left, right)
    return None


def sign_report_on_real_line(
    p: RationalPoly,
) -> tuple[SignOnSet, Optional[Fraction], Optional[Fraction]]:
    """Sign classification plus rational sample points attaining >0 and <0."""
    if p.is_zero:
        return SignOnSet.IDENTICALLY_ZERO, None, None
    cells = real_line_cells([p]) if p.degree > 0 else None
    samples = cells.samples if cells else [Fraction(0)]
    pos_at = neg_at = None
    for s in samples:
        v = p.sign(s)
        if v > 0 and pos_at is None:
            pos_at = s
        if v < 0 and neg_at is None:
            neg_at = s
    has_zero = bool(cells.intervals) if cells else False
    return (
        sign_set_from_flags(pos_at is not None, has_zero, neg_at is not None),
        pos_at,
        neg_at,
    )
