"""Planar polynomial systems and their exact reduction to the Abel model.

Two families are supported:

* rigid systems x' = -y + x p(x, y), y' = x + y p(x, y) with p supported on
  total degrees {0, k, 2k}; polar coordinates plus rho = r^k give a cubic
  Abel equation in rho;
* systems x' = a x - y + P_n, y' = x + a y + Q_n with homogeneous
  nonlinearities, reduced through polar coordinates and the change
  rho = r^(n-1) / (1 + psi(theta) r^(n-1)) to a factored Abel equation with
  invariant curves rho = 0 and psi rho = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .abel import AbelEquation, FactoredAbel
from .poly import MAX_DEGREE, as_fraction, frac_str
from .trig import TrigPoly, TrigRational


@dataclass(frozen=True)
class BivariatePoly:
    """Bivariate polynomial with rational coefficients: terms (i, j) -> c
    for monomials x^i y^j."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_terms(raw) -> "BivariatePoly":
        acc: dict[tuple[int, int], Fraction] = {}
        items = raw.items() if isinstance(raw, Mapping) else raw
        for key_or_triple in items:
            if isinstance(raw, Mapping):
                (i, j), c = key_or_triple
            else:
                i, j, c = key_or_triple
            c = as_fraction(c)
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise ValueError("negative exponents are not allowed")
            if i + j > MAX_DEGREE:
                raise ValueError(f"total degree {i + j} exceeds cap {MAX_DEGREE}")
            acc[(i, j)] = acc.get((i, j), Fraction(0)) + c
        return BivariatePoly(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        acc = self.term_dict()
        for key, c in other.terms:
            acc[key] = acc.get(key, Fraction(0)) + c
        return BivariatePoly(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def scale(self, k) -> "BivariatePoly":
        k = as_fraction(k)
        if k == 0:
            return BivariatePoly.zero()
        return BivariatePoly(tuple((key, c * k) for key, c in self.terms))

    def degrees(self) -> set[int]:
        return {i + j for (i, j), _ in self.terms}

    def layer(self, d: int) -> "BivariatePoly":
        return BivariatePoly(tuple(t for t in self.terms if t[0][0] + t[0][1] == d))

    def is_homogeneous(self, d: int) -> bool:
        return all(i + j == d for (i, j), _ in self.terms)

    def on_circle(self) -> TrigPoly:
        """Substitute (x, y) = (cos t, sin t)."""
        return TrigPoly.from_terms((i, j, c) for (i, j), c in self.terms)

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "j": j, "c": frac_str(c)}
            for (i, j), c in self.terms
        ]

    @staticmethod
    def from_json(data: Sequence[dict]) -> "BivariatePoly":
        return BivariatePoly.from_terms((d["i"], d["j"], d["c"]) for d in data)


@dataclass(frozen=True)
class PlanarPolySystem:
    """x' = xdot(x, y), y' = ydot(x, y)."""

    xdot: BivariatePoly
    ydot: BivariatePoly

    def to_json(self) -> dict:
        return {"xdot": self.xdot.to_json(), "ydot": self.ydot.to_json()}

    @staticmethod
    def from_json(data: dict) -> "PlanarPolySystem":
        return PlanarPolySystem(
            BivariatePoly.from_json(data["xdot"]), BivariatePoly.from_json(data["ydot"])
        )


class RigidStructureError(ValueError):
    """The system is not rigid with the required {0, k, 2k} layer support;
    carries the offending monomials."""

    def __init__(self, message: str, offending: Sequence[tuple[int, int]] = ()):
        self.offending = tuple(offending)
        super().__init__(message)


def _divide_by(p: BivariatePoly, axis: int) -> BivariatePoly:
    """Exact division by x (axis 0) or y (axis 1)."""
    bad = [key for key, _ in p.terms if key[axis] == 0]
    if bad:
        var = "xy"[axis]
        raise RigidStructureError(
            f"terms not divisible by {var}: {bad}", offending=bad
        )
    shifted = []
    for (i, j), c in p.terms:
        shifted.append((i - 1, j, c) if axis == 0 else (i, j - 1, c))
    return BivariatePoly.from_terms(shifted)


@dataclass(frozen=True)
class RigidSystem:
    """x' = -y + x p(x, y), y' = x + y p(x, y), with p supported on total
    degrees {0, k, 2k} so the radial equation is cubic in rho = r^k."""

    p: BivariatePoly
    k: int

    def to_planar(self) -> PlanarPolySystem:
        xdot = BivariatePoly.from_terms(
            [(0, 1, Fraction(-1))] + [(i + 1, j, c) for (i, j), c in self.p.terms]
        )
        ydot = BivariatePoly.from_terms(
            [(1, 0, Fraction(1))] + [(i, j + 1, c) for (i, j), c in self.p.terms]
        )
        return PlanarPolySystem(xdot, ydot)


def detect_rigid(sys: PlanarPolySystem) -> RigidSystem:
    """Recover p from x' + y = x p and y' - x = y p, then validate that the
    support of p is {(0,0)} plus layers of degree k and 2k."""
    y_term = BivariatePoly.from_terms([(0, 1, 1)])
    x_term = BivariatePoly.from_terms([(1, 0, 1)])
    px = _divide_by(sys.xdot + y_term, 0)
    py = _divide_by(sys.ydot - x_term, 1)
    diff = px - py
    if not diff.is_zero:
        raise RigidStructureError(
            f"the two factor candidates disagree on monomials {[k for k, _ in diff.terms]}",
            offending=[k for k, _ in diff.terms],
        )
    degrees = sorted(px.degrees() - {0})
    if not degrees:
        return RigidSystem(px, 1)
    if len(degrees) == 1:
        d = degrees[0]
        # a single nonconstant layer is the quadratic layer when its degree
        # is even (so the cubic coefficient layer is empty), else the cubic one
        k = d // 2 if d % 2 == 0 else d
        return RigidSystem(px, k)
    if len(degrees) == 2 and degrees[1] == 2 * degrees[0]:
        return RigidSystem(px, degrees[0])
    bad = [key for key, _ in px.terms if key[0] + key[1] not in (0, degrees[0], 2 * degrees[0])]
    raise RigidStructureError(
        f"layer degrees {degrees} are not of the form {{k, 2k}}", offending=bad
    )


def rigid_to_abel(r: RigidSystem) -> AbelEquation:
    """rho = r^k turns the polar radial equation into

        rho' = k p00 rho + k (degree-k layer on the circle) rho^2
                         + k (degree-2k layer on the circle) rho^3.
    """
    p00 = r.p.term_dict().get((0, 0), Fraction(0))
    c1 = TrigPoly.constant(r.k * p00)
    c2 = r.p.layer(r.k).on_circle().scale(r.k)
    c3 = r.p.layer(2 * r.k).on_circle().scale(r.k)
    return AbelEquation.from_coefficients(c1, c2, c3)


class RiccatiRouteError(ValueError):
    """psi identically zero: the polar equation is already a Riccati equation
    with at most one non-null limit cycle, so no Abel reduction is needed."""


@dataclass(frozen=True)
class HomogeneousSystem:
    """x' = a x - y + P(x, y), y' = x + a y + Q(x, y) with P, Q homogeneous
    of degree n."""

    a: Fraction
    n: int
    p: BivariatePoly
    q: BivariatePoly

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("nonlinearity degree must be at least 2")
        if not self.p.is_homogeneous(self.n) or not self.q.is_homogeneous(self.n):
            raise ValueError(f"P and Q must be homogeneous of degree {self.n}")

    @staticmethod
    def of(a, n: int, p, q) -> "HomogeneousSystem":
        return HomogeneousSystem(
            as_fraction(a),
            n,
            p if isinstance(p, BivariatePoly) else BivariatePoly.from_terms(p),
            q if isinstance(q, BivariatePoly) else BivariatePoly.from_terms(q),
        )

    def phi(self) -> TrigPoly:
        """P(cos, sin) cos + Q(cos, sin) sin: radial component of the
        nonlinearity."""
        raw = [(i + 1, j, c) for (i, j), c in self.p.terms]
        raw += [(i, j + 1, c) for (i, j), c in self.q.terms]
        return TrigPoly.from_terms(raw)

    def psi(self) -> TrigPoly:
        """Q(cos, sin) cos - P(cos, sin) sin: angular component of the
        nonlinearity."""
        raw = [(i + 1, j, c) for (i, j), c in self.q.terms]
        raw += [(i, j + 1, -c) for (i, j), c in self.p.terms]
        return TrigPoly.from_terms(raw)

    def to_planar(self) -> PlanarPolySystem:
        xdot = BivariatePoly.from_terms(
            [(1, 0, self.a), (0, 1, Fraction(-1))]
        ) + self.p
        ydot = BivariatePoly.from_terms(
            [(1, 0, Fraction(1)), (0, 1, self.a)]
        ) + self.q
        return PlanarPolySystem(xdot, ydot)

    def to_json(self) -> dict:
        return {
            "a": frac_str(self.a),
            "n": self.n,
            "P": self.p.to_json(),
            "Q": self.q.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "HomogeneousSystem":
        return HomogeneousSystem.of(
            data["a"],
            int(data["n"]),
            BivariatePoly.from_json(data["P"]),
            BivariatePoly.from_json(data["Q"]),
        )


def cherkas_transform(sys: HomogeneousSystem) -> FactoredAbel:
    """rho = r^(n-1)/(1 + psi r^(n-1)) maps {r > 0} onto region V of

        rho' = (psi rho - 1)((n-1)(a psi - phi) rho - (n-1) a) rho - psi' rho^2

    which is the factored Abel form with

        a1 = psi, a2 = (n-1)(a psi - phi), b2 = (n-1) a + psi'/psi.
    """
    psi = sys.psi()
    if psi.is_zero:
        raise RiccatiRouteError(
            "psi is identically zero: the polar equation is a Riccati "
            "equation with at most one non-null limit cycle"
        )
    phi = sys.phi()
    m = sys.n - 1
    a2 = (psi.scale(sys.a) - phi).scale(m)
    b2 = TrigRational(
        psi.scale(m * sys.a) + psi.derivative(), psi
    )
    return FactoredAbel.from_parts(psi, a2, b2)
