"""Independent oracles used to validate the exact machinery.

These deliberately avoid the package's own Sturm code paths: root counting is
dense float sampling plus bisection, implications are dense sampling with a
robustness margin. The chart references multiply the chart polynomials out
term by term, by polynomial powers, instead of by binomial expansion.
"""

from __future__ import annotations

import numpy as np

from abelcycles.poly import RationalPoly
from abelcycles.trig import TrigPoly


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
