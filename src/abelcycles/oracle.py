"""Numerical displacement-map oracle for periodic Abel equations.

The exact criteria certify bounds; this module independently measures them.
It integrates x' = x (C1 + C2 x + C3 x^2) with DOP853, the adaptive
12-stage Runge-Kutta pair of order 8 with 5th- and 3rd-order error
estimates (Dormand-Prince coefficients, as in Hairer's dop853.f),
co-integrating the variational equation so the derivative of the
displacement map comes from the flow itself rather than finite differences.
Sweeps are vectorized over the initial conditions with a shared adaptive
step and per-sample escape flags; x and z travel as one stacked (2, n)
state, so each stage of a step is one array operation. A sample is flagged
escaped as soon as a comparison bound proves that it blows up before the
end of the span, so it stops costing steps. Only the tolerances rtol and
atol are settable (IntegratorConfig); the largest step, the pole guard, the
x window, the smallest step and the step budget are module constants.

A sign change of the displacement between grid neighbours is refined by
safeguarded Newton on the variational d', in one-sample solves on a scalar
kernel that repeats the batch kernel bit for bit. Once Newton's predicted
error is below an eighth of the final width, one solve either side of the
predicted root closes the bracket.

Region handling mirrors the exact classifier: the bounded fiber (0, 1/a1(0))
when a1 starts positive, a flagged heuristic cutoff when the fiber is
unbounded, and the y = a1 x chart for the two-component region of strictly
negative a1 (components y < 0 and y > 1 in bounded coordinates).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .abel import (
    AbelEquation,
    FactoredAbel,
    RegionKind,
    classify_region,
    negative_component_transform,
)
from .oracle_config import DEFAULT_GRID, IntegratorConfig
from .trig import TrigRational

Equation = Union[AbelEquation, FactoredAbel]

UNBOUNDED_FIBER_CUTOFF = 1.0e3  # heuristic: no a priori amplitude bound
NONHYPERBOLIC_MARGIN = 1.0e-6
BISECTION_WIDTH = 1.0e-10

# integrator limits: the largest step as a fraction of the span, the margin
# within which a coefficient denominator counts as a pole, the window
# |x| <= X_MAX, the smallest step, and the steps allowed per solve
MAX_STEP_FRACTION = 0.05
POLE_GUARD = 1.0e-6
X_MAX = 1.0e6
MIN_STEP = 1.0e-13
MAX_STEPS = 500_000

# comparison bound for blow-up: the circle is cut into _ARCS equal arcs, and a
# window of _WINDOW arcs bounds the coefficients on the way to infinity
_ARCS = 1024
_WINDOW = 4
_ARC = 2.0 * math.pi / _ARCS
_ENDS_COS = np.cos(np.arange(_ARCS + 1) * _ARC)
_ENDS_SIN = np.sin(np.arange(_ARCS + 1) * _ARC)
_SAFETY = 1.0 + 1.0e-9
BLOWUP_REASON = "blows up before t1 (comparison bound)"


@dataclass(frozen=True)
class DisplacementSample:
    x0: float
    d: float
    dprime: float
    escaped: bool


@dataclass(frozen=True)
class Cycle:
    component: str
    bracket: tuple[float, float]
    x_star: float
    dprime: float
    stability: str  # "Stable" | "Unstable" | "NonHyperbolic?"

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "bracket": list(self.bracket),
            "x_star": self.x_star,
            "dprime": self.dprime,
            "stability": self.stability,
        }


@dataclass(frozen=True)
class CycleReport:
    region: str
    cycles: tuple[Cycle, ...]
    components: tuple[str, ...]
    sign_changes: int
    escaped_samples: int
    total_samples: int
    heuristic_cutoff: bool
    notes: str = ""
    # the sweep behind the report, component by component in grid order;
    # not part of the JSON
    samples: tuple[DisplacementSample, ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def count(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict:
        return {
            "region": self.region,
            "count": self.count,
            "cycles": [c.to_json() for c in self.cycles],
            "components": list(self.components),
            "sign_changes": self.sign_changes,
            "escaped_samples": self.escaped_samples,
            "total_samples": self.total_samples,
            "heuristic_cutoff": self.heuristic_cutoff,
            "notes": self.notes,
        }


# --- coefficient compilation -----------------------------------------------


class _PoleGuard(Exception):
    pass


def _compile_rational(tr: TrigRational) -> tuple[tuple, tuple]:
    r = tr.reduced()
    num = tuple((i, j, float(c)) for (i, j), c in r.num.terms)
    den = tuple((i, j, float(c)) for (i, j), c in r.den.terms)
    return num, den


def _check_float_range(f: FactoredAbel) -> None:
    """Raise ValueError unless every coefficient that a sweep of f reads as
    a float is in float range: those of a1, which fiber_components reads,
    and those of each equation it integrates."""
    try:
        for _, eq, _, _ in fiber_components(f)[0]:
            abel = eq.to_abel() if isinstance(eq, FactoredAbel) else eq
            for c in (abel.c1, abel.c2, abel.c3):
                _compile_rational(c)
    except OverflowError:
        raise ValueError(
            "a coefficient lies beyond float range, and the oracle integrates in floats"
        ) from None


def _arc_range(terms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of sum co cos^i sin^j on each arc: the endpoint
    values widened by a Lipschitz bound over half an arc and by a rounding
    margin."""
    values = np.zeros(_ARCS + 1)
    lipschitz = size = 0.0
    for i, j, co in terms:
        values = values + co * _ENDS_COS**i * _ENDS_SIN**j
        lipschitz += abs(co) * (i + j)
        size += abs(co)
    slack = lipschitz * math.pi / _ARCS + 1.0e-12 * size
    lo = np.minimum(values[:-1], values[1:]) - slack
    hi = np.maximum(values[:-1], values[1:]) + slack
    return lo, hi


def _arc_bounds(coeffs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per arc, A1 >= |C1|, A2 >= |C2| and m <= C3. m is 0 on an arc where a
    denominator may come within POLE_GUARD of zero, or where C3 has no
    positive lower bound."""
    bounds = []
    poles = np.zeros(_ARCS, dtype=bool)
    for num, den in coeffs:
        n_lo, n_hi = _arc_range(num)
        d_lo, d_hi = _arc_range(den)
        sign = np.where(d_lo > POLE_GUARD, 1.0, np.where(d_hi < -POLE_GUARD, -1.0, 0.0))
        poles |= sign == 0.0
        d_min = np.where(sign > 0, d_lo, -d_hi)
        d_max = np.where(sign > 0, d_hi, -d_lo)
        n_low = np.where(sign > 0, n_lo, -n_hi)
        with np.errstate(all="ignore"):
            bounds.append((np.maximum(np.abs(n_lo), np.abs(n_hi)) / d_min, n_low / d_max))
    (a1, _), (a2, _), (_, m) = bounds
    m = np.where(poles | ~(m > 0.0), 0.0, m)
    return a1, a2, m


class CubicField:
    """Float evaluator of the cubic right-hand side and its x-derivative,
    with the comparison bound that proves blow-up."""

    def __init__(self, eq: Equation):
        abel = eq.to_abel() if isinstance(eq, FactoredAbel) else eq
        self.coeffs = [
            _compile_rational(abel.c1),
            _compile_rational(abel.c2),
            _compile_rational(abel.c3),
        ]
        self.period = abel.period.value_float
        # over the window of arcs k .. k + _WINDOW - 1, C3 >= rate[k] and
        # |x| >= radius[k] gives |x|' >= (rate/2) |x|^3
        a1, a2, m = _arc_bounds(self.coeffs)
        rate, big1, big2 = m, a1, a2
        for w in range(1, _WINDOW):
            rate = np.minimum(rate, np.roll(m, -w))
            big1 = np.maximum(big1, np.roll(a1, -w))
            big2 = np.maximum(big2, np.roll(a2, -w))
        with np.errstate(all="ignore"):
            radius = np.maximum(4.0 * big2 / rate, 2.0 * np.sqrt(big1 / rate))
        self.rate = rate
        self.radius = np.where(rate > 0.0, radius * _SAFETY, np.inf)

    def values(self, t: float) -> list[float]:
        """C1, C2 and C3 at t."""
        c, s = math.cos(t), math.sin(t)
        out = []
        for num, den in self.coeffs:
            dv = 0.0
            for i, j, co in den:
                dv += co * c**i * s**j
            if abs(dv) <= POLE_GUARD:
                raise _PoleGuard(f"coefficient denominator below guard at t={t:.6g}")
            nv = 0.0
            for i, j, co in num:
                nv += co * c**i * s**j
            out.append(nv / dv)
        return out

    def __call__(self, t: float, x, z):
        """The derivative x' = x (C1 + C2 x + C3 x^2), z' = f_x z of the state
        (x, z): a pair for floats, one (2, n) array, x' over z', for arrays."""
        c1, c2, c3 = self.values(t)
        dx = x * (c1 + x * (c2 + c3 * x))
        dz = (c1 + x * (2.0 * c2 + 3.0 * c3 * x)) * z
        return (dx, dz) if isinstance(x, float) else np.array((dx, dz))

    def reach(self, t: float, t1: float) -> float:
        """The |x| past which the comparison bound proves a solution at t
        infinite before t1; inf where it proves nothing."""
        k = math.floor(t / _ARC)
        rate = float(self.rate[k % _ARCS])
        end = min((k + _WINDOW) * _ARC, t1)
        if rate <= 0.0 or end <= t:
            return math.inf
        # t + _SAFETY/(rate x^2) < end, solved for |x|
        return max(float(self.radius[k % _ARCS]), math.sqrt(_SAFETY / (rate * (end - t))))

    def blows_up(self, t: float, t1: float, x: np.ndarray) -> np.ndarray:
        """Samples that the comparison bound proves infinite before t1."""
        return np.abs(x) > self.reach(t, t1)


# DOP853, the 8th-order pair of Dormand & Prince with the 5th- and
# 3rd-order error estimates of Hairer's dop853.f (Hairer, Norsett & Wanner
# I, II.10). The literals are the doubles of scipy's
# integrate/_ivp/dop853_coefficients.py (BSD), which copies dop853.f (_E3
# is its E3, _B less dop853.f's bhh); only the nonzero entries are written.
# Stage i is evaluated at t + _C[i] h on y + h sum a k_j over the (j, a) of
# _A[i]; the step is y + h sum b k_j over the (j, b) of _B, and _E5, _E3
# weigh the two error estimates.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_B = (
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
)
_E5 = (
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
)
_E3 = (
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
)
_EXPONENT = -1.0 / 8  # of the step controller, for an 8th-order pair


def _combine(y, h, weights, ks):
    """y + h sum w k_j over the (j, w) of weights, one term at a time, in
    the same order for arrays and for floats."""
    for j, w in weights:
        y = y + h * w * ks[j]
    return y


def _blend(e5, e3):
    """dop853.f's error of one component from its scaled 5th- and 3rd-order
    estimates, e5^2 / sqrt(e5^2 + 0.01 e3^2); 0 where both vanish."""
    sq = e5 * e5
    deno = sq + 0.01 * (e3 * e3)
    if isinstance(sq, float):
        return sq / math.sqrt(deno) if deno != 0.0 else 0.0
    return np.where(deno == 0.0, 0.0, sq / np.sqrt(deno))


def _integrate_batch(
    field: CubicField,
    t0: float,
    t1: float,
    x0: Sequence[float],
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Advance the batch from t0 to t1. Returns final x, final variational
    factor z (dx(t1)/dx0), escape flags, and per-sample escape reasons.

    The state is one (2, n) array, x over z, so every stage combination,
    the error estimate and the accept step are one array operation each. An
    escaping sample leaves the state with its x and z at that moment, so the
    error norm is the maximum over the samples still moving, and later steps
    do no work for it."""
    x = np.asarray(x0, dtype=float)
    out = np.empty((2,) + x.shape)
    out[0] = x
    out[1] = 1.0
    escaped = np.zeros(x.shape, dtype=bool)
    reasons = [""] * x.size
    span = t1 - t0
    if span <= 0:
        return out[0], out[1], escaped, reasons
    h_max = span * MAX_STEP_FRACTION
    h = h_max / 8
    t = t0
    # the samples still moving: their columns of out, and their state
    cols = np.arange(x.size)
    y = out.copy()
    k1 = None

    def mark(mask: np.ndarray, why: str):
        """Stop the masked samples: keep their state in out and drop them
        from y (and k1)."""
        nonlocal cols, y, k1
        gone = cols[mask]
        for idx in gone:
            reasons[idx] = why
        escaped[gone] = True
        out[:, gone] = y[:, mask]
        keep = ~mask
        cols, y = cols[keep], y[:, keep]
        if k1 is not None:
            k1 = k1[:, keep]

    with np.errstate(all="ignore"):
        mark(np.abs(y[0]) > X_MAX, "initial condition beyond x_max")
        mark(field.blows_up(t, t1, y[0]), BLOWUP_REASON)
        try:
            k1 = field(t, y[0], y[1])
        except _PoleGuard as exc:
            mark(np.ones(cols.size, dtype=bool), str(exc))
            return out[0], out[1], escaped, reasons

        steps = 0
        while t < t1 - 1e-14 * span and cols.size:
            steps += 1
            if steps > MAX_STEPS:
                mark(np.ones(cols.size, dtype=bool), "step budget exhausted")
                break
            h = min(h, t1 - t)
            ks = [k1]
            try:
                for c, row in zip(_C[1:], _A[1:]):
                    ya = _combine(y, h, row, ks)
                    ks.append(field(t + c * h, ya[0], ya[1]))
                y8 = _combine(y, h, _B, ks)
                scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y8))
                part = _blend(np.abs(_combine(0.0, h, _E5, ks)) / scale,
                              np.abs(_combine(0.0, h, _E3, ks)) / scale)
                ratio = np.maximum(part[0], part[1])
                finite = np.isfinite(ratio)
                bad = ~finite | ~np.isfinite(y8[0])
                ratio = np.where(finite, ratio, np.inf)
                enorm = float(ratio.max(initial=0.0))
                if enorm > 1.0 or bad.any():
                    if h <= MIN_STEP * 1.0001:
                        # cannot shrink further: drop the offending samples,
                        # keep the rest moving
                        mark(ratio > 1.0, "step-size underflow (blow-up or stiffness)")
                        continue
                    h = _next_step(h, enorm, False, h_max)
                    continue
                # the derivative at the new point is the next step's first
                # stage; it is evaluated only once the step is accepted
                k8 = field(t + h, y8[0], y8[1])
            except _PoleGuard as exc:
                h *= 0.25
                if h < MIN_STEP:
                    mark(np.ones(cols.size, dtype=bool), str(exc))
                    break
                continue
            t += h
            y, k1 = y8, k8
            big = np.abs(y[0]) > X_MAX
            if big.any():
                mark(big, "left the x_max window")
            doomed = field.blows_up(t, t1, y[0])
            if doomed.any():
                mark(doomed, BLOWUP_REASON)
            h = _next_step(h, enorm, True, h_max)
    out[:, cols] = y
    return out[0], out[1], escaped, reasons


def _integrate_one(field: CubicField, t0: float, t1: float, x0: float,
                   cfg: IntegratorConfig) -> tuple[float, float, bool, str]:
    """_integrate_batch for one sample, in Python floats, with the same
    tableau, step controller, order of operations and escape rules: its x,
    z, escape flag and reason are bitwise those of a batch of one."""
    x, z, span = float(x0), 1.0, t1 - t0
    if span <= 0:
        return x, z, False, ""
    if abs(x) > X_MAX:
        return x, z, True, "initial condition beyond x_max"
    if abs(x) > field.reach(t0, t1):
        return x, z, True, BLOWUP_REASON
    t, h_max = t0, span * MAX_STEP_FRACTION
    h = h_max / 8
    try:
        k1 = field(t, x, z)
    except _PoleGuard as exc:
        return x, z, True, str(exc)
    steps = 0
    while t < t1 - 1e-14 * span:
        steps += 1
        if steps > MAX_STEPS:
            return x, z, True, "step budget exhausted"
        h = min(h, t1 - t)
        kx, kz = [k1[0]], [k1[1]]
        try:
            for c, row in zip(_C[1:], _A[1:]):
                dx, dz = field(t + c * h, _combine(x, h, row, kx), _combine(z, h, row, kz))
                kx.append(dx)
                kz.append(dz)
            x8, z8 = _combine(x, h, _B, kx), _combine(z, h, _B, kz)
            # the new state first, so that a NaN wins as in np.maximum
            sx = cfg.atol + cfg.rtol * max(abs(x8), abs(x))
            sz = cfg.atol + cfg.rtol * max(abs(z8), abs(z))
            px = _blend(abs(_combine(0.0, h, _E5, kx)) / sx, abs(_combine(0.0, h, _E3, kx)) / sx)
            pz = _blend(abs(_combine(0.0, h, _E5, kz)) / sz, abs(_combine(0.0, h, _E3, kz)) / sz)
            ratio = max(px, pz) if math.isfinite(px) and math.isfinite(pz) else math.inf
            if ratio > 1.0 or not math.isfinite(x8):
                if h <= MIN_STEP * 1.0001:
                    if ratio > 1.0:
                        return x, z, True, "step-size underflow (blow-up or stiffness)"
                    continue
                h = _next_step(h, ratio, False, h_max)
                continue
            k1 = field(t + h, x8, z8)
        except _PoleGuard as exc:
            h *= 0.25
            if h < MIN_STEP:
                return x, z, True, str(exc)
            continue
        t += h
        x, z = x8, z8
        if abs(x) > X_MAX:
            return x, z, True, "left the x_max window"
        if abs(x) > field.reach(t, t1):
            return x, z, True, BLOWUP_REASON
        h = _next_step(h, ratio, True, h_max)
    return x, z, False, ""


def _next_step(h: float, enorm: float, accepted: bool, h_max: float) -> float:
    """The step after one of error norm enorm (Hairer, Norsett & Wanner I,
    II.4): h times 0.9 enorm^_EXPONENT (-1/8) and at least 0.2 h; after a
    rejected step at least MIN_STEP, after an accepted one at most 5 h and
    h_max."""
    if accepted:
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** _EXPONENT))
        return min(h * factor, h_max)
    return max(h * max(0.2, 0.9 * enorm ** _EXPONENT if enorm > 0 else 0.2), MIN_STEP)


def displacement_map(
    eq: Union[Equation, CubicField],
    grid: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DisplacementSample]:
    """One displacement sample per initial condition: d = u(T, x0) - x0 and
    d' from the variational factor, both NaN for an escaped sample. The
    whole grid is one batch, so a sweep is bitwise repeatable. `eq` may be
    a CubicField already built for the equation."""
    field = eq if isinstance(eq, CubicField) else CubicField(eq)
    xs = np.asarray(list(grid), dtype=float)
    xT, zT, esc, _ = _integrate_batch(field, 0.0, field.period, xs, cfg)
    out = []
    for x0, xf, zf, e in zip(xs, xT, zT, esc):
        out.append(
            DisplacementSample(
                x0=float(x0),
                d=float(xf - x0) if not e else math.nan,
                dprime=float(zf - 1.0) if not e else math.nan,
                escaped=bool(e),
            )
        )
    return out


def graded_grid(lo: float, hi: float, m: int) -> list[float]:
    """m interior points of (lo, hi), denser near both endpoints (cycles tend
    to hide near the invariant boundary curves)."""
    out = []
    for k in range(1, m + 1):
        u = k / (m + 1)
        w = u * u * (3 - 2 * u)
        out.append(lo + (hi - lo) * w)
    return out


def component_grid(region: RegionKind, lo: float, hi: float, m: int) -> list[float]:
    """The m initial conditions swept on the fiber component (lo, hi) of
    fiber_components, in ascending order. A component of the two-component
    region runs from a finite end (y = 0 or y = 1) to the cut-off, and point
    k sits at distance (hi - lo)^(k/(m+1)) - 1 from the finite end, so that
    a cycle near the invariant curve is not stepped over; every other
    component takes graded_grid."""
    if region is not RegionKind.A1_NEGATIVE:
        return graded_grid(lo, hi, m)
    gaps = [(hi - lo) ** (k / (m + 1)) - 1.0 for k in range(1, m + 1)]
    if hi <= 0.0:  # y < 0: the finite end is hi
        return [hi - g for g in reversed(gaps)]
    return [lo + g for g in gaps]


def fiber_components(f: FactoredAbel) -> tuple[list[tuple[str, Equation, float, float]], bool, str]:
    """Connected components of V's fiber at t=0 in bounded coordinates:
    (label, equation to integrate, lo, hi) per component, heuristic flag,
    note."""
    region = classify_region(f)
    a10 = float(f.a1.evaluate_float(0.0))
    if region.kind is RegionKind.A1_NEGATIVE:
        g = negative_component_transform(f)
        cut = UNBOUNDED_FIBER_CUTOFF
        comps = [
            ("y<0 (x>0)", g, -cut, 0.0),
            ("y>1 (x<1/a1)", g, 1.0, 1.0 + cut),
        ]
        return comps, True, "two components scanned in the y = a1 x chart"
    if a10 > 0:
        return [("0<x<1/a1(0)", f, 0.0, 1.0 / a10)], False, ""
    note = (
        "a1(0) <= 0 leaves the fiber unbounded; grid cut at "
        f"{UNBOUNDED_FIBER_CUTOFF:g} (heuristic)"
    )
    return [("x>0 (cutoff)", f, 0.0, UNBOUNDED_FIBER_CUTOFF)], True, note


def _classify(dprime: float) -> str:
    if not math.isfinite(dprime) or abs(dprime) < NONHYPERBOLIC_MARGIN:
        return "NonHyperbolic?"
    return "Stable" if dprime < 0 else "Unstable"


def _refine_bracket(
    field: CubicField,
    left: DisplacementSample,
    right: DisplacementSample,
    cfg: IntegratorConfig,
) -> tuple[float, float, tuple[float, float], str]:
    """Shrink the bracket between two grid neighbours with opposite signs of
    d to BISECTION_WIDTH by safeguarded Newton (rtsafe; Brent 1973): step
    -d/d' with the variational d' when that stays strictly inside the
    bracket and is at most half the previous step, else bisect. A step
    shorter than half the width is lengthened to that, so it lands past the
    root, and kept. The first step starts from the end with the smaller |d|
    and uses the sweep's d and d', so it costs no solve.

    The end-game: Newton's error at the predicted root r is about
    |d''| / (2 |d'|) step^2, with d'' from the d' of the last two points.
    Once that is at most an eighth of the width, solves at r -/+ a quarter
    width close the bracket, where a converged iterate takes two rounds; the
    second is solved only if still inside. It is tried once; if both fall on
    one side, Newton goes on from the nearer one. x* is the midpoint of the
    final bracket, and d' there the mean of the d' known at its ends. An
    escaping probe stops the refinement; its reason is returned last."""
    lo, hi = left.x0, right.x0
    lo_positive = left.d > 0
    dp_lo, dp_hi = left.dprime, right.dprime
    near, far = (left, right) if abs(left.d) <= abs(right.d) else (right, left)
    x, d, dprime = near.x0, near.d, near.dprime
    x_prev, dp_prev = far.x0, far.dprime
    last = hi - lo
    quarter = 0.25 * BISECTION_WIDTH
    probed = False
    while hi - lo > BISECTION_WIDTH:
        step = -d / dprime if dprime != 0.0 else math.inf
        root = x + step
        spread = 2.0 * abs(dprime * (x - x_prev))
        error = abs(dprime - dp_prev) * step * step / spread if spread > 0.0 else math.inf
        if (not probed and error <= 0.125 * BISECTION_WIDTH
                and lo < root - quarter < root + quarter < hi):
            probes = [root - quarter, root + quarter]
            probed = True
            last = abs(step)
        else:
            # lengthened, a converged iterate's next solve lands past the
            # root; it is then longer than the step before it, and kept
            lengthened = abs(step) < 0.5 * BISECTION_WIDTH
            if lengthened:
                step = math.copysign(0.5 * BISECTION_WIDTH, step)
            if lo < x + step < hi and (lengthened or abs(step) <= 0.5 * last):
                probes = [x + step]
                last = abs(step)
            else:
                probes = [0.5 * (lo + hi)]
                last = 0.5 * (hi - lo)
        x_prev, dp_prev = x, dprime
        for p in probes:
            if not lo < p < hi:  # the second probe, when both are on one side
                continue
            xf, zf, escaped, why = _integrate_one(field, 0.0, field.period, p, cfg)
            if escaped:
                return 0.5 * (lo + hi), 0.5 * (dp_lo + dp_hi), (lo, hi), why
            d_p, dprime_p = xf - p, zf - 1.0
            if d_p == 0.0:
                return p, dprime_p, (p, p), ""
            x, d, dprime = p, d_p, dprime_p
            if (d > 0) == lo_positive:
                lo, dp_lo = x, dprime
            else:
                hi, dp_hi = x, dprime
    return 0.5 * (lo + hi), 0.5 * (dp_lo + dp_hi), (lo, hi), ""


def count_cycles_in_V(
    f: FactoredAbel,
    cfg: IntegratorConfig = IntegratorConfig(),
    grid_density: int = DEFAULT_GRID,
) -> CycleReport:
    """Scan every component of V's fiber at t=0, bracket the sign changes of
    the displacement map, refine each bracket by safeguarded Newton, and
    classify the stability of each cycle by the sign of d'. The report keeps
    the sweep's samples, so a caller that wants them need not sweep again.
    Its notes name each refinement that an escaping probe stopped."""
    region = classify_region(f).kind
    comps, heuristic, note = fiber_components(f)
    notes = [note] if note else []
    cycles: list[Cycle] = []
    sign_changes = 0
    swept: list[DisplacementSample] = []
    fields: dict[int, CubicField] = {}  # both A1Negative components share g
    for label, eq, lo, hi in comps:
        field = fields[id(eq)] = fields.get(id(eq)) or CubicField(eq)
        samples = displacement_map(field, component_grid(region, lo, hi, grid_density), cfg)
        swept.extend(samples)
        for s in samples:
            if s.d == 0.0:
                cycles.append(
                    Cycle(label, (s.x0, s.x0), s.x0, s.dprime, _classify(s.dprime))
                )
        # only grid neighbours bracket: d is not known to be defined on a
        # stretch with an escaped sample inside it
        for left, right in zip(samples, samples[1:]):
            if any(s.escaped or not math.isfinite(s.d) or s.d == 0.0 for s in (left, right)):
                continue
            if (left.d > 0) != (right.d > 0):
                sign_changes += 1
                x_star, dprime, bracket, stopped = _refine_bracket(field, left, right, cfg)
                cycles.append(
                    Cycle(label, bracket, x_star, dprime, _classify(dprime))
                )
                if stopped:
                    notes.append(f"refinement of the cycle near {x_star!r} on {label} "
                                 f"stopped at width {bracket[1] - bracket[0]!r}: {stopped}")
    return CycleReport(
        region=region.value,
        cycles=tuple(cycles),
        components=tuple(label for label, _, _, _ in comps),
        sign_changes=sign_changes,
        escaped_samples=sum(1 for s in swept if s.escaped),
        total_samples=len(swept),
        heuristic_cutoff=heuristic,
        notes="; ".join(notes),
        samples=tuple(swept),
    )


def write_displacement_csv(samples: Sequence[DisplacementSample], path: str):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "d", "dprime", "escaped"])
        for s in samples:
            writer.writerow([repr(s.x0), repr(s.d), repr(s.dprime), int(s.escaped)])
