"""Output checks, made apart from the program.

They run after the timed passes and count in no metric. References are
closed forms, the paper's certificates, and evaluations with mpmath and
`scipy.integrate.solve_ivp`; the equations are rebuilt here from the input
files, not taken from the program. Each check returns a list of problems;
an empty list means the outputs are right.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

mpmath.mp.dps = 40
IVP = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14}
D_TOL = 1e-6
CYCLE_TOL = 1e-8
X_MAX = 1e6


# --- trig functions from the input JSON ----------------------------------


def _terms(data) -> list[tuple[int, int, Fraction]]:
    return [(int(t["i"]), int(t["j"]), Fraction(t["c"])) for t in data]


def _rational(data) -> tuple[list, list]:
    if isinstance(data, list):
        return _terms(data), [(0, 0, Fraction(1))]
    return _terms(data["num"]), _terms(data["den"])


def _poly(terms, c, s):
    return sum((co * c**i * s**j for i, j, co in terms), 0 * c)


def _dpoly(terms, c, s):
    """d/dtheta of sum co cos^i sin^j."""
    total = 0 * c
    for i, j, co in terms:
        if i:
            total -= co * i * c ** (i - 1) * s ** (j + 1)
        if j:
            total += co * j * c ** (i + 1) * s ** (j - 1)
    return total


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _mpterms(terms):
    return [(i, j, _mp(co)) for i, j, co in terms]


class Factored:
    """a1, a2, b2 of a factored input, evaluable in mpmath or floats."""

    def __init__(self, a1, a2, b2):
        self.a1 = a1
        self.a2n, self.a2d = a2
        self.b2n, self.b2d = b2
        self._float = [[(i, j, float(co)) for i, j, co in part]
                       for part in (a1, *a2, *b2)]

    @staticmethod
    def from_json(doc: dict) -> "Factored":
        return Factored(_terms(doc["a1"]), _rational(doc["a2"]), _rational(doc["b2"]))

    def values(self, c, s):
        """a1, a1', a2, b2 at the circle point (c, s), in mpmath."""
        t = {k: _mpterms(v) for k, v in (
            ("a1", self.a1), ("a2n", self.a2n), ("a2d", self.a2d),
            ("b2n", self.b2n), ("b2d", self.b2d))}
        return (_poly(t["a1"], c, s), _dpoly(t["a1"], c, s),
                _poly(t["a2n"], c, s) / _poly(t["a2d"], c, s),
                _poly(t["b2n"], c, s) / _poly(t["b2d"], c, s))

    def cubic(self, t: float, y_chart: bool) -> tuple[float, float, float]:
        """(k1, k2, k3) of the right-hand side x (k1 + k2 x + k3 x^2): in x,
        x' = x (a1 x - 1)(a2 x - b2) - (a1'/a1) x; in y = a1 x,
        y' = y (y - 1)(a2 y / a1 - b2)."""
        c, s = math.cos(t), math.sin(t)
        a1, a2n, a2d, b2n, b2d = self._float
        a1, da1 = _poly(a1, c, s), _dpoly(a1, c, s)
        a2 = _poly(a2n, c, s) / _poly(a2d, c, s)
        b2 = _poly(b2n, c, s) / _poly(b2d, c, s)
        if y_chart:
            r = a2 / a1
            return b2, -(r + b2), r
        return b2 - da1 / a1, -(a1 * b2 + a2), a1 * a2

    def period(self, y_chart: bool) -> float:
        """pi when every coefficient of the equation is pi-periodic."""
        for theta in (0.3, 1.1, 2.9):
            here = self.cubic(theta, y_chart)
            there = self.cubic(theta + math.pi, y_chart)
            if any(abs(u - v) > 1e-12 * (1 + abs(u)) for u, v in zip(here, there)):
                return 2 * math.pi
        return math.pi

    def field(self, y_chart: bool):
        """Float right-hand side f(t, x) and its x-derivative."""

        def f(t, x):
            k1, k2, k3 = self.cubic(t, y_chart)
            return x * (k1 + x * (k2 + k3 * x))

        def fx(t, x):
            k1, k2, k3 = self.cubic(t, y_chart)
            return k1 + x * (2 * k2 + 3 * k3 * x)

        return f, fx


class Homogeneous(Factored):
    """x' = a x - y + P, y' = x + a y + Q with P, Q homogeneous of degree n.
    In polar coordinates r' = a r + phi r^n and theta' = 1 + psi r^(n-1),
    with phi = P cos + Q sin and psi = Q cos - P sin. Cherkas' variable
    rho = r^(n-1) / (1 + psi r^(n-1)) solves

        rho' = (psi rho - 1)((n-1)(a psi - phi) rho - (n-1) a) rho - psi' rho^2,

    a cubic with polynomial coefficients."""

    def __init__(self, doc: dict):
        self.a, self.m = Fraction(doc["a"]), int(doc["n"]) - 1
        p, q = _terms(doc["P"]), _terms(doc["Q"])
        phi = [(i + 1, j, c) for i, j, c in p] + [(i, j + 1, c) for i, j, c in q]
        psi = [(i + 1, j, c) for i, j, c in q] + [(i, j + 1, -c) for i, j, c in p]
        self._phi, self._psi = ([(i, j, float(c)) for i, j, c in f] for f in (phi, psi))

    def cubic(self, t: float, y_chart: bool) -> tuple[float, float, float]:
        c, s = math.cos(t), math.sin(t)
        psi, dpsi = _poly(self._psi, c, s), _dpoly(self._psi, c, s)
        phi = _poly(self._phi, c, s)
        a, m = float(self.a), self.m
        a2 = m * (a * psi - phi)
        return m * a, -(psi * m * a + a2 + dpsi), psi * a2


def _flow(fac: Factored, y_chart: bool, x0, with_variation=False):
    """u(T, x0) for an array of x0 in one integration, and d/dx0 when asked."""
    f, fx = fac.field(y_chart)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    if with_variation:
        def rhs(t, y):
            return np.concatenate([f(t, y[:n]), fx(t, y[:n]) * y[n:]])
        y0 = np.concatenate([x0, np.ones(n)])
    else:
        rhs, y0 = f, x0
    sol = solve_ivp(rhs, (0.0, fac.period(y_chart)), y0, **IVP)
    if sol.status != 0:
        return None
    end = sol.y[:, -1]
    return (end[:n], end[n:]) if with_variation else end


def _escapes(fac: Factored, y_chart: bool, x0: float) -> bool:
    """Blow-up, or an exit from |x| <= X_MAX, before one period."""
    f, _ = fac.field(y_chart)

    def leave(t, x):
        return X_MAX - abs(x[0])

    leave.terminal = True
    with np.errstate(all="ignore"):
        sol = solve_ivp(f, (0.0, fac.period(y_chart)), [x0], events=leave, **IVP)
    return sol.status != 0 or not np.all(np.isfinite(sol.y))


# --- certify -------------------------------------------------------------


def _circle(w: dict):
    """Exact-chart circle point (cos, sin) of a witness, in mpmath."""
    if "circle" in w:
        return _mp(Fraction(w["circle"]["cos"])), _mp(Fraction(w["circle"]["sin"]))
    if "point" in w:
        u = _mp(Fraction(w["point"]))
    else:
        lo, hi = (Fraction(x) for x in w["interval"])
        u = _mp((lo + hi) / 2)
    chart = w["chart"]
    if chart in ("tan", "tan2"):
        r = mpmath.sqrt(1 + u * u)
        c, s = 1 / r, u / r
        return (c, s) if chart == "tan" else (-c, -s)
    if chart == "half":
        return (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    return mpmath.cos(u), mpmath.sin(u)


_SIGN_HERE = re.compile(r"^(a2|a1\*a2) ([<>]) 0 here$")
_LOGDERIV = re.compile(r"^b2 \+ \((-?\d+(?:/\d+)?)\) a1'/a1 ([<>]) 0 here$")
_IMPLIES_A2 = re.compile(r"^a1 ([<>]) 0 implies a2 ([<>])= 0$")
_IMPLIES_COMB = re.compile(r"^a1 ([<>]) 0 implies a1 b2 - a2 \+ eta a1' ([<>])= 0$")
_WHOLE_CIRCLE = re.compile(
    r"^a1 < 0 everywhere requires a1 b2 - a2 \+ eta a1' ([<>])= 0 on the whole circle$")


def _has(value, rel: str) -> bool:
    return value > 0 if rel == ">" else value < 0


def witness_problem(fac: Factored, w: dict, eta) -> str | None:
    """None when the witness shows the violated sign at its angle, a message
    when it does not, and "" when its condition is not stated in the input's
    functions."""
    c, s = _circle(w)
    gap = abs(float(mpmath.atan2(s, c)) - w["theta"]) % (2 * math.pi)
    if min(gap, 2 * math.pi - gap) > 1e-9:
        return f"theta {w['theta']} is not the angle of its chart point"
    a1, da1, a2, b2 = fac.values(c, s)
    comb = a1 * b2 - a2 + (_mp(Fraction(eta)) * da1 if eta is not None else 0)
    cond = w["condition"]
    if m := _SIGN_HERE.match(cond):
        ok = _has(a2 if m[1] == "a2" else a1 * a2, m[2])
    elif m := _LOGDERIV.match(cond):
        ok = _has(b2 + _mp(Fraction(m[1])) * da1 / a1, m[2])
    elif m := _IMPLIES_A2.match(cond):
        ok = _has(a1, m[1]) and _has(a2, "<" if m[2] == ">" else ">")
    elif m := _IMPLIES_COMB.match(cond):
        ok = _has(a1, m[1]) and _has(comb, "<" if m[2] == ">" else ">")
    elif m := _WHOLE_CIRCLE.match(cond):
        ok = a1 < 0 and _has(comb, "<" if m[1] == ">" else ">")
    else:
        return ""
    return None if ok else f"witness {cond!r} at theta {w['theta']:.6g} does not hold"


def _exit_for(verdicts) -> int:
    outcomes = [v["outcome"] for v in verdicts]
    if "Holds" in outcomes:
        return 0
    if "Fails" in outcomes:
        return 1
    return 2


def _verdict(bundle, criterion):
    for v in bundle["verdicts"]:
        if v["criterion"] == criterion:
            return v
    return None


def _in_V(a1: Fraction, x: Fraction) -> bool:
    if a1 > 0:
        return 0 < x < 1 / a1
    return x > 0 or x < 1 / a1


def check_certify_op(op, res, doc) -> tuple[list[str], int]:
    """Problems, and the number of witnesses re-evaluated."""
    out = []
    if op.kind == "reproduce":
        if res["code"] != 0 or res["stdout"].strip().splitlines()[-1] != f"ok: {op.meta['example']}":
            out.append(f"{op.name}: reproduce did not print ok")
        return out, 0
    if op.kind == "malformed":
        if res["code"] != 2 or not res["stderr"].strip():
            out.append(f"{op.name}: malformed input did not end with exit 2 and a message")
        return out, 0
    bundle = json.loads(res["stdout"])
    verdicts = bundle["verdicts"]
    if res["code"] != _exit_for(verdicts) or bundle["exit"] != res["code"]:
        out.append(f"{op.name}: exit {res['code']} does not match the verdicts")
    if op.kind == "gallery1":
        v = _verdict(bundle, "at_most_one")
        if not (v and v["outcome"] == "Holds" and v["bound"] == "AtMostOne"
                and Fraction(v["eta"]) == -1):
            out.append(f"{op.name}: at_most_one does not hold with eta = -1")
    elif op.kind == "gallery2":
        v = _verdict(bundle, "planar_no_cycle")
        checks = bundle.get("obstructions", {}).get("checks", [])
        if not (v and v["outcome"] == "Holds"):
            out.append(f"{op.name}: planar_no_cycle does not hold")
        if len(checks) != 5 or not all(c["holds"] for c in checks):
            out.append(f"{op.name}: the five obstructions do not all hold")
    elif op.kind == "cubic":
        fac = Factored.from_json(bundle["equation"])
        c1, c2, c3 = (_rational(doc[k]) for k in ("C1", "C2", "C3"))
        for theta in (0.4, 1.7, 4.2):
            cc, ss = mpmath.cos(theta), mpmath.sin(theta)
            a1, da1, a2, b2 = fac.values(cc, ss)
            want = (b2 - da1 / a1, -(a1 * b2 + a2), a1 * a2)
            got = [_poly(_mpterms(n), cc, ss) / _poly(_mpterms(d), cc, ss)
                   for n, d in (c1, c2, c3)]
            if any(abs(g - w) > 1e-25 * (1 + abs(w)) for g, w in zip(got, want)):
                out.append(f"{op.name}: factored equation does not give back C1, C2, C3")
                break
    checked = 0
    if op.kind == "draw":
        fac = Factored.from_json(doc)
        for v in verdicts:
            if v["outcome"] != "Fails":
                continue
            for w in v["witnesses"]:
                msg = witness_problem(fac, w, v["eta"])
                if msg:
                    out.append(f"{op.name}: {v['criterion']}: {msg}")
                elif msg is None:
                    checked += 1
        const = op.meta.get("constant")
        if const:
            a1, a2, b2 = (Fraction(x) for x in const)
            v = _verdict(bundle, "no_cycle")
            if a2 != 0 and _in_V(a1, b2 / a2) and v["outcome"] == "Holds":
                out.append(f"{op.name}: no_cycle holds but the equilibrium b2/a2 = "
                           f"{b2 / a2} lies in V")
    return out, checked


# --- sweep and locate ----------------------------------------------------


def _read_csv(path: str) -> list[tuple[float, float, float, bool]]:
    with open(path) as handle:
        rows = list(csv.reader(handle))[1:]
    return [(float(x0), float(d), float(dp), e == "1") for x0, d, dp, e in rows]


def _equation(doc: dict) -> Factored:
    if {"a", "n", "P", "Q"} <= set(doc):
        return Homogeneous(doc)
    return Factored.from_json(doc)


def _is_end_segment(flags: list[bool]) -> bool:
    """True when the escaped samples are a prefix or a suffix."""
    k = sum(flags)
    return flags == [True] * k + [False] * (len(flags) - k) or \
        flags == [False] * (len(flags) - k) + [True] * k


def check_sweep_op(op, report: dict, rows, doc) -> list[str]:
    out = []
    if report["count"] != 0:
        out.append(f"{op.name}: {report['count']} cycles on a certified cycle-free input")
    fac = _equation(doc)
    y_chart = any(label.startswith("y") for label in report["components"])
    grid = op.meta["grid"]
    if len(rows) != grid * len(report["components"]):
        return out + [f"{op.name}: {len(rows)} CSV rows for {len(report['components'])} "
                      f"components of {grid}"]
    for k in range(len(report["components"])):
        comp = rows[k * grid:(k + 1) * grid]
        if not _is_end_segment([r[3] for r in comp]):
            out.append(f"{op.name}: escaped samples are not an end segment")
        bounded = [r for r in comp if not r[3]]
        u = [x0 + d for x0, d, _, _ in bounded]
        for a, b in zip(u, u[1:]):
            if b < a - 1e-9 * max(1.0, abs(a)):
                out.append(f"{op.name}: u(T, .) decreases ({a!r} > {b!r})")
                break
        if bounded:
            pick = sorted({0, len(bounded) // 2, len(bounded) - 1})
            x0s = [bounded[i][0] for i in pick]
            end = _flow(fac, y_chart, x0s)
            if end is None:
                out.append(f"{op.name}: reference integration of bounded samples failed")
            else:
                for i, x0, xe in zip(pick, x0s, map(float, end)):
                    if abs((xe - x0) - bounded[i][1]) > D_TOL:
                        out.append(f"{op.name}: d({x0!r}) = {bounded[i][1]!r}, "
                                   f"reference {xe - x0!r}")
        escaped = [r for r in comp if r[3]]
        if escaped and not _escapes(fac, y_chart, escaped[0][0]):
            out.append(f"{op.name}: sample {escaped[0][0]!r} marked escaped stays bounded")
    return out


def check_locate_op(op, report: dict, doc) -> list[str]:
    if report["count"] != 1:
        return [f"{op.name}: {report['count']} cycles where exactly one exists"]
    out = []
    cycle = report["cycles"][0]
    x_star = cycle["x_star"]
    fac = _equation(doc)
    y_chart = cycle["component"].startswith("y")
    flow = _flow(fac, y_chart, [x_star], with_variation=True)
    if flow is None:
        return [f"{op.name}: reference integration from x* failed"]
    xe, z = float(flow[0][0]), float(flow[1][0])
    if abs(xe - x_star) > CYCLE_TOL:
        out.append(f"{op.name}: x* = {x_star!r} comes back to {xe!r} after one period")
    dprime = z - 1.0
    want = "Stable" if dprime < 0 else "Unstable"
    if cycle["stability"] != want:
        out.append(f"{op.name}: labelled {cycle['stability']}, reference d' = {dprime:.6g}")
    const = op.meta.get("constant")
    if const:
        a1, a2, b2 = (Fraction(x) for x in const)
        exact = a1 * b2 / a2 if y_chart else b2 / a2
        if abs(x_star - float(exact)) > CYCLE_TOL:
            out.append(f"{op.name}: x* = {x_star!r}, closed form {exact}")
    return out


def _doc(op):
    if "--input" not in op.argv:
        return None
    with open(op.argv[op.argv.index("--input") + 1]) as handle:
        return json.load(handle)


def check_workload(workload: str, ops, results) -> list[str]:
    problems = []
    witnesses = 0
    for op, res in zip(ops, results):
        if res["error"]:
            if op.kind != "malformed":
                problems.append(f"{op.name}: {res['error']}")
            continue
        doc = _doc(op)
        if workload == "certify":
            found, checked = check_certify_op(op, res, doc)
            problems += found
            witnesses += checked
        elif workload == "sweep":
            report = json.loads(res["stdout"])
            problems += check_sweep_op(op, report, _read_csv(op.meta["csv"]), doc)
        else:
            problems += check_locate_op(op, json.loads(res["stdout"]), doc)
    if workload == "certify" and witnesses == 0:
        problems.append("no Fails witness was re-evaluated")
    return problems
