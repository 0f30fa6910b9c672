"""Two worked systems with exactly known intermediate values, plus a
re-derivation routine that checks every frozen value and returns a pass/fail
table.

Gallery 1 is a rigid planar system whose factor p has support on total
degrees {0, 6, 12}; the radial reduction is cubic in rho = r^6 and the
resulting equation has the invariant curve a1 x = 1 with a1 = cos^3 sin^3.
Gallery 2 is a planar system with linear part of trace 1 and cubic
homogeneous nonlinearity; its transform lands in the sign-changing-a1 region
where only the planar no-cycle criterion applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abel import AbelEquation, FactoredAbel, factor_through_invariant, normalize
from .criteria import (
    check_at_most_one,
    check_normalized,
    check_planar_no_cycle,
    eta_candidates,
    obstruction_report,
    Bound,
    Outcome,
)
from .planar import (
    BivariatePoly,
    HomogeneousSystem,
    PlanarPolySystem,
    RigidSystem,
    cherkas_transform,
    detect_rigid,
    rigid_to_abel,
)
from .poly import RationalPoly, count_distinct_roots
from .trig import TrigPoly, TrigRational, cancel_pole_combination

F = Fraction


# --- gallery 1: sextic rigid system -------------------------------------
# p(x, y) = 1 - x^4 y^2/2 + x^3 y^3 - 5 x^2 y^4/2 + x y^5
#             - 2 x^6 y^6 + 3 x^5 y^7 - x^4 y^8
EXAMPLE1_P_TERMS = {
    (0, 0): F(1),
    (4, 2): F(-1, 2),
    (3, 3): F(1),
    (2, 4): F(-5, 2),
    (1, 5): F(1),
    (6, 6): F(-2),
    (5, 7): F(3),
    (4, 8): F(-1),
}
EXAMPLE1_K = 6
EXAMPLE1_A1 = TrigPoly.from_terms([(3, 3, 1)])
EXAMPLE1_A2 = TrigPoly.from_terms([(3, 3, -12), (2, 4, 18), (1, 5, -6)])
EXAMPLE1_B2 = TrigRational(
    TrigPoly.from_terms([(1, 1, 6), (2, 0, 3), (0, 2, -3)]),
    TrigPoly.from_terms([(1, 1, 1)]),
)
EXAMPLE1_ETA = F(-1)
EXAMPLE1_COMBINATION = F(6)
EXAMPLE1_C1 = TrigPoly.constant(6)
EXAMPLE1_C2 = TrigPoly.from_terms(
    [(4, 2, -3), (3, 3, 6), (2, 4, -15), (1, 5, 6)]
)
EXAMPLE1_C3 = TrigPoly.from_terms([(6, 6, -12), (5, 7, 18), (4, 8, -6)])
EXAMPLE1_CHART_A1 = RationalPoly.from_coeffs([0, 0, 0, 1])
EXAMPLE1_CHART_A2 = RationalPoly.from_coeffs([0, 0, 0, -12, 18, -6])
EXAMPLE1_CHART_COND2 = RationalPoly.from_coeffs([0, 0, 0, 18, -18, 6])

# --- gallery 2: trace-1/2 system with cubic nonlinearity -----------------
EXAMPLE2_A = F(1, 2)
EXAMPLE2_N = 3
EXAMPLE2_P_TERMS = {
    (3, 0): F(9, 10000),
    (2, 1): F(-19, 1000),
    (1, 2): F(20731, 20000),
    (0, 3): F(-1),
}
EXAMPLE2_Q_TERMS = {
    (3, 0): F(0),
    (2, 1): F(-17631, 20000),
    (1, 2): F(2, 5),
    (0, 3): F(1, 2),
}
# tan-chart factorizations: P_psi = (t-1) t (17649 + 9269 t + 20000 t^2)/20000
# and P_phi = (10t-9)(10t-1)(1 - 10t + 50t^2)/10000
EXAMPLE2_CHART_PSI = (
    RationalPoly.from_coeffs([-1, 1])
    * RationalPoly.from_coeffs([0, 1])
    * RationalPoly.from_coeffs([17649, 9269, 20000])
).scale(F(1, 20000))
EXAMPLE2_CHART_PHI = (
    RationalPoly.from_coeffs([-9, 10])
    * RationalPoly.from_coeffs([-1, 10])
    * RationalPoly.from_coeffs([1, -10, 50])
).scale(F(1, 10000))


def example1_rigid() -> RigidSystem:
    return RigidSystem(BivariatePoly.from_terms(
        [(i, j, c) for (i, j), c in EXAMPLE1_P_TERMS.items()]
    ), EXAMPLE1_K)


def example1_planar() -> PlanarPolySystem:
    return example1_rigid().to_planar()


def example1_factored() -> FactoredAbel:
    return factor_through_invariant(rigid_to_abel(example1_rigid()), EXAMPLE1_A1)


def example1_input() -> dict:
    data = example1_planar().to_json()
    data["a1"] = EXAMPLE1_A1.to_json()
    return data


def example2_system() -> HomogeneousSystem:
    return HomogeneousSystem.of(
        EXAMPLE2_A, EXAMPLE2_N, EXAMPLE2_P_TERMS, EXAMPLE2_Q_TERMS
    )


def example2_input() -> dict:
    return example2_system().to_json()


@dataclass(frozen=True)
class ReproLine:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ReproduceReport:
    example: str
    lines: tuple[ReproLine, ...]

    @property
    def ok(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_json(self) -> dict:
        return {
            "example": self.example,
            "ok": self.ok,
            "lines": [line.to_json() for line in self.lines],
        }


def _line(name: str, passed: bool, detail: str = "") -> ReproLine:
    return ReproLine(name, bool(passed), detail)


def _reproduce_example1() -> ReproduceReport:
    lines = []
    rigid = detect_rigid(example1_planar())
    lines.append(
        _line(
            "rigid layer structure recovered with block size 6",
            rigid.k == EXAMPLE1_K and rigid.p.term_dict() == EXAMPLE1_P_TERMS,
            f"k={rigid.k}",
        )
    )
    eq = rigid_to_abel(rigid)
    lines.append(
        _line(
            "cubic coefficients equal the expected trig polynomials",
            eq.c1.equals(TrigRational.from_poly(EXAMPLE1_C1))
            and eq.c2.equals(TrigRational.from_poly(EXAMPLE1_C2))
            and eq.c3.equals(TrigRational.from_poly(EXAMPLE1_C3)),
        )
    )
    f = factor_through_invariant(eq, EXAMPLE1_A1)
    lines.append(
        _line(
            "factorization through a1 x = 1 gives the expected a2 and b2",
            f.a2.equals(TrigRational.from_poly(EXAMPLE1_A2))
            and f.b2.equals(EXAMPLE1_B2),
        )
    )
    combo = cancel_pole_combination(f.b2, f.a1, EXAMPLE1_ETA)
    lines.append(
        _line(
            "eta = -1 collapses b2 + eta a1'/a1 to the constant 6",
            combo.equals(TrigRational.constant(EXAMPLE1_COMBINATION)),
        )
    )
    lines.append(
        _line(
            "eta = -1 is among the derived multiplier candidates",
            EXAMPLE1_ETA in eta_candidates(f),
        )
    )
    chart_a1, _ = f.a1.tan_chart()
    chart_a2 = f.a2.sign_proxy().tan_chart()[0]
    cond2 = (
        TrigRational.from_poly(f.a1) * f.b2
        - f.a2
        + TrigRational.from_poly(f.a1.derivative()).scale(EXAMPLE1_ETA)
    )
    chart_cond2 = cond2.sign_proxy().tan_chart()[0]
    lines.append(
        _line(
            "tangent charts of a1, a2, and the mixed condition match",
            chart_a1.monic() == EXAMPLE1_CHART_A1.monic()
            and chart_a2.monic() == EXAMPLE1_CHART_A2.monic()
            and chart_cond2.monic() == EXAMPLE1_CHART_COND2.monic(),
        )
    )
    p2 = EXAMPLE1_CHART_A2
    lines.append(
        _line(
            "the a2 chart has exactly the roots 0, 1, 2",
            count_distinct_roots(p2) == 3
            and all(p2.sign(r) == 0 for r in (0, 1, 2)),
        )
    )
    p3 = EXAMPLE1_CHART_COND2
    lines.append(
        _line(
            "the mixed-condition chart has 0 as its only real root",
            count_distinct_roots(p3) == 1 and p3.sign(0) == 0,
        )
    )
    v = check_at_most_one(f, EXAMPLE1_ETA)
    lines.append(
        _line(
            "uniqueness criterion holds with eta = -1",
            v.outcome is Outcome.HOLDS and v.bound is Bound.AT_MOST_ONE,
            f"outcome={v.outcome.value}",
        )
    )
    nv = check_normalized(normalize(f, TrigPoly.constant(1)))
    lines.append(
        _line(
            "identity-scaled one-sign criterion fails",
            nv.outcome is Outcome.FAILS,
            f"outcome={nv.outcome.value}",
        )
    )
    return ReproduceReport("example1", tuple(lines))


def _reproduce_example2() -> ReproduceReport:
    lines = []
    sys2 = example2_system()
    psi, phi = sys2.psi(), sys2.phi()
    chart_psi, dpsi = psi.tan_chart()
    chart_phi, dphi = phi.tan_chart()
    lines.append(
        _line(
            "tangent charts factor as expected",
            chart_psi == EXAMPLE2_CHART_PSI and chart_phi == EXAMPLE2_CHART_PHI,
            f"degrees {chart_psi.degree}, {chart_phi.degree}",
        )
    )
    lines.append(
        _line(
            "the phi chart has exactly two distinct real roots",
            count_distinct_roots(chart_phi) == 2,
        )
    )
    r = chart_psi.scale(EXAMPLE2_A) - chart_phi
    lines.append(
        _line(
            "a psi - phi stays nonpositive on the chart interval [0, 1]",
            count_distinct_roots(r, F(0), F(1)) == 0
            and r.sign(0) < 0
            and r.sign(1) < 0,
        )
    )
    v = check_planar_no_cycle(sys2)
    lines.append(
        _line(
            "planar no-cycle criterion certifies no nontrivial cycle",
            v.outcome is Outcome.HOLDS and v.bound is Bound.NO_CYCLE,
            f"outcome={v.outcome.value}",
        )
    )
    rep = obstruction_report(sys2)
    for check in rep.checks:
        lines.append(
            _line(
                f"one-sign-route obstruction confirmed: {check.check}",
                check.holds is True,
                check.note,
            )
        )
    first = next(c for c in rep.checks if c.check == "chart_combination")
    windowed = [
        w
        for w in first.witnesses
        if w.interval is not None
        and F(-1, 2) <= w.interval[0]
        and w.interval[1] <= F(1, 2)
    ]
    lines.append(
        _line(
            "the chart obstruction pins a zero inside [-1/2, 1/2]",
            bool(windowed),
            f"{len(first.witnesses)} witness(es)",
        )
    )
    f2 = cherkas_transform(sys2)
    lines.append(
        _line(
            "the transform lands on a1 = psi with the expected a2",
            f2.a1 == psi
            and f2.a2.equals(
                TrigRational.from_poly(
                    (psi.scale(EXAMPLE2_A) - phi).scale(EXAMPLE2_N - 1)
                )
            ),
        )
    )
    return ReproduceReport("example2", tuple(lines))


def reproduce(example_id: str) -> ReproduceReport:
    if example_id == "example1":
        return _reproduce_example1()
    if example_id == "example2":
        return _reproduce_example2()
    raise KeyError(f"unknown example id: {example_id!r}")
