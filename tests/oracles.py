"""Independent oracles used to validate the exact machinery.

These deliberately avoid the package's own Sturm code paths: root counting is
dense float sampling plus bisection, implications are dense sampling with a
robustness margin. The chart references multiply the chart polynomials out
term by term, by polynomial powers, instead of by binomial expansion. The
numerical checks follow a trajectory started on an invariant curve, and
integrate the stability integral of the a1 curve by the midpoint rule. Float
values of exact polynomials are taken here too, for pointwise comparisons.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from abelcycles.abel import FactoredAbel
from abelcycles.oracle import POLE_GUARD, CubicField, IntegratorConfig, _integrate_batch
from abelcycles.planar import BivariatePoly
from abelcycles.poly import RationalPoly
from abelcycles.trig import TrigPoly


def poly_float(p: RationalPoly, x: float) -> float:
    """Float value of p at x, by Horner's rule."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def bivariate_float(p: BivariatePoly, x: float, y: float) -> float:
    """Float value of p at (x, y)."""
    return sum(float(c) * x**i * y**j for (i, j), c in p.terms)


def _float_coeffs(p: RationalPoly) -> np.ndarray:
    q = p.primitive()
    return np.array([float(c) for c in q.coeffs], dtype=float)


def _eval_grid(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(xs)
    for c in coeffs[::-1]:
        acc = acc * xs + c
    return acc


def brute_force_distinct_roots(
    p: RationalPoly,
    lo: float | None = None,
    hi: float | None = None,
    n_samples: int = 100_000,
    merge_tol: float = 1e-7,
) -> int:
    """Count distinct real roots of p in (lo, hi) by sampling plus bisection.

    With lo/hi omitted, samples a Cauchy-bound interval, which contains every
    real root, so the result is the count over the whole line.
    """
    if p.degree <= 0:
        return 0
    bound = float(p.cauchy_bound()) + 1.0
    scan_lo = -bound if lo is None else max(lo, -bound)
    scan_hi = bound if hi is None else min(hi, bound)
    if scan_lo >= scan_hi:
        return 0
    coeffs = _float_coeffs(p)
    xs = np.linspace(scan_lo, scan_hi, n_samples)
    vals = _eval_grid(coeffs, xs)

    roots: list[float] = []
    zero_mask = vals == 0.0
    for x in xs[zero_mask]:
        roots.append(float(x))
    signs = np.sign(vals)
    nz = signs != 0
    idx = np.where(nz[:-1] & nz[1:] & (signs[:-1] != signs[1:]))[0]
    for i in idx:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(vals[i])
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = _eval_grid(coeffs, np.array([m]))[0]
            if fm == 0.0:
                a = b = m
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > merge_tol:
            merged.append(r)
    if lo is None and hi is None:
        return len(merged)
    eps = 1e-9
    lo_eff = scan_lo if lo is None else lo
    hi_eff = scan_hi if hi is None else hi
    return sum(1 for r in merged if lo_eff + eps < r < hi_eff - eps)


def robust_implication_violation(
    a: RationalPoly,
    cond_a: str,
    b: RationalPoly,
    cond_b: str,
    n_samples: int = 100_000,
    margin: float = 1e-9,
) -> float | None:
    """Search for a float t where A(t) satisfies cond_a and B(t) robustly
    violates cond_b; returns the point or None."""
    bound = max(float(a.cauchy_bound()), float(b.cauchy_bound())) + 1.0
    xs = np.linspace(-bound, bound, n_samples)
    av = _eval_grid(_float_coeffs(a), xs)
    bv = _eval_grid(_float_coeffs(b), xs)
    scale_a = np.max(np.abs(av)) or 1.0
    scale_b = np.max(np.abs(bv)) or 1.0
    prem = av < -margin * scale_a if cond_a == "<0" else av > margin * scale_a
    viol = bv > margin * scale_b if cond_b == "<=0" else bv < -margin * scale_b
    hits = np.where(prem & viol)[0]
    if len(hits) == 0:
        return None
    return float(xs[hits[0]])


def trig_grid_extrema(f, n_samples: int = 4096) -> tuple[float, float]:
    """(min, max) of a trig poly or rational over a dense period grid.

    Rational inputs are sampled through their sign proxy so poles do not
    produce infinities; the extrema then only carry sign information.
    """
    if hasattr(f, "sign_proxy"):
        f = f.sign_proxy()
    thetas = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    vals = np.array([f.evaluate_float(t) for t in thetas])
    return float(vals.min()), float(vals.max())


def half_angle_chart_reference(f: TrigPoly) -> tuple[RationalPoly, int]:
    """(N, k) with f(t) = N(u) / (1+u^2)^k, as sum of
    c (1 - u^2)^i (2u)^j (1 + u^2)^(k-i-j) over the terms of f."""
    k = max(f.max_degree, 0)
    out = RationalPoly.zero()
    cos_u = RationalPoly.from_coeffs([1, 0, -1])
    sin_u = RationalPoly.from_coeffs([0, 2])
    one_plus = RationalPoly.from_coeffs([1, 0, 1])
    for (i, j), c in f.terms:
        out = out + (cos_u**i * sin_u**j * one_plus ** (k - i - j)).scale(c)
    return out, k


def tan_substitute_reference(f: TrigPoly, d: int) -> RationalPoly:
    """P with f(t) = cos(t)^d P(tan t), as sum of c t^j (1 + t^2)^((d-i-j)/2)
    over the terms of f; every term must fit degree d."""
    out = RationalPoly.zero()
    one_plus_t2 = RationalPoly.from_coeffs([1, 0, 1])
    for (i, j), c in f.terms:
        mono = RationalPoly.from_coeffs([0] * j + [c])
        out = out + mono * one_plus_t2 ** ((d - i - j) // 2)
    return out


def verify_invariance(
    f: FactoredAbel,
    curve: str,
    cfg: IntegratorConfig = IntegratorConfig(),
    theta_range: Optional[tuple[float, float]] = None,
    checkpoints: int = 64,
) -> float:
    """Maximum deviation of the named invariant curve along a trajectory
    started on it: |u(t)| for curve 'zero', |a1(t) u(t) - 1| for curve 'a1'.

    For 'a1' the range must keep a1 bounded away from zero; the sweep stops
    (returning the maximum so far) if the trajectory escapes.
    """
    if curve not in ("zero", "a1"):
        raise ValueError("curve must be 'zero' or 'a1'")
    period = f.period.value_float
    t_lo, t_hi = theta_range if theta_range is not None else (0.0, period)
    if curve == "zero":
        x0 = 0.0
    else:
        a1_start = f.a1.evaluate_float(t_lo)
        if abs(a1_start) < 10 * POLE_GUARD:
            raise ValueError("a1 vanishes at the start of the requested range")
        x0 = 1.0 / a1_start
    field = CubicField(f)
    ts = [t_lo + (t_hi - t_lo) * k / checkpoints for k in range(checkpoints + 1)]
    worst = 0.0
    x = np.array([x0])
    for ta, tb in zip(ts, ts[1:]):
        x, _, esc, _ = _integrate_batch(field, ta, tb, x, cfg)
        if esc[0]:
            break
        if curve == "zero":
            dev = abs(float(x[0]))
        else:
            dev = abs(f.a1.evaluate_float(tb) * float(x[0]) - 1.0)
        worst = max(worst, dev)
    return worst


def family_flow(alpha: int, beta: int, tau: float, y0: float) -> Optional[float]:
    """u(tau, y0) for y' = y (y - 1)(alpha y - beta), tau > 0, or None when
    the orbit reaches infinity first. With y* = beta/alpha, partial fractions
    give the first integral H(y) = ln|y|/beta + ln|y - 1|/(alpha - beta)
    + ln|alpha y - beta|/(alpha y* (y* - 1)), with H' = 1/y', so
    H(u) = H(y0) + tau. H is finite at infinity, and u is found by bisection
    in mpmath at 40 digits between y0 and the next root or infinity ahead."""
    import mpmath

    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        star = b / a

        def H(y):
            return (mpmath.log(abs(y)) / b + mpmath.log(abs(y - 1)) / (a - b)
                    + mpmath.log(abs(a * y - b)) / (a * star * (star - 1)))

        y = mpmath.mpf(y0)
        ahead = 1 if y * (y - 1) * (a * y - b) > 0 else -1
        target = H(y) + mpmath.mpf(tau)
        roots = [r for r in (mpmath.mpf(0), mpmath.mpf(1), star) if (r - y) * ahead > 0]
        if roots:
            end = min(roots, key=lambda r: abs(r - y))
        else:
            end = ahead * mpmath.mpf(10) ** 30  # H there is H(infinity) to 1e-29
            if H(end) <= target:
                return None
        lo, hi = y, end
        for _ in range(400):
            mid = (lo + hi) / 2
            if H(mid) < target:
                lo = mid
            else:
                hi = mid
            if abs(hi - lo) <= mpmath.mpf(10) ** -30 * (1 + abs(mid)):
                break
        return (lo + hi) / 2


def stability_integral(f: FactoredAbel, eta: float = 0.0, panels: int = 4096) -> float:
    """Numeric value of exp(integral of a1 b2 - a2 + eta a1'/a1) - 1 over one
    period; in the two-component region its sign matches the measured
    stability of the cycle riding the a1 curve."""
    period = f.period.value_float
    a1_prime = f.a1.derivative()

    def value(theta: float) -> float:
        a1v = f.a1.evaluate_float(theta)
        b2n = f.b2.num.evaluate_float(theta)
        b2d = f.b2.den.evaluate_float(theta)
        a2n = f.a2.num.evaluate_float(theta)
        a2d = f.a2.den.evaluate_float(theta)
        da1 = a1_prime.evaluate_float(theta)
        return a1v * b2n / b2d - a2n / a2d + eta * da1 / a1v

    total = 0.0
    h = period / panels
    for k in range(panels):
        total += value((k + 0.5) * h) * h
    return math.exp(total) - 1.0
