"""Acceptance gate: six end-to-end criteria, one test (and one printed
pass/fail line) each, with pinned tolerances and runtime budgets."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from abelcycles.abel import (
    FactoredAbel,
    factor_through_invariant,
    normalize,
)
from abelcycles.criteria import (
    Bound,
    Outcome,
    best_over_etas,
    check_at_most_one,
    check_no_cycle,
    check_normalized,
    check_planar_no_cycle,
    eta_candidates,
    obstruction_report,
)
from abelcycles.oracle import (
    IntegratorConfig,
    count_cycles_in_V,
    displacement_map,
    graded_grid,
    verify_invariance,
)
from abelcycles.planar import (
    BivariatePoly,
    HomogeneousSystem,
    RigidSystem,
    cherkas_transform,
    detect_rigid,
    rigid_to_abel,
)
from abelcycles.poly import (
    EndpointRootError,
    RationalPoly,
    count_distinct_roots,
    sign_implication,
)
from abelcycles.trig import TrigPoly, TrigRational, cancel_pole_combination

from data import (
    EX1_A1,
    EX1_A2,
    EX1_B2,
    EX1_CHART_A1,
    EX1_CHART_A2,
    EX1_CHART_COND2,
    EX1_COMBINATION,
    EX1_ETA,
    EX2_A,
    EX2_N,
    EX2_P3_TERMS,
    EX2_Q3_TERMS,
    RIGID_K,
    RIGID_P_TERMS,
    random_instance,
)

F = Fraction
CFG = IntegratorConfig()


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"acceptance {number} ({label}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds:.0f}s budget: "
        f"{elapsed:.1f}s"
    )


def constants(a1c, a2c, b2c) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c), TrigRational.constant(a2c), TrigRational.constant(b2c)
    )


def test_criterion_1_gallery1_exact_pipeline():
    with criterion(1, "gallery 1 exact pipeline", 10.0):
        rigid = detect_rigid(
            RigidSystem(
                BivariatePoly.from_terms(
                    [(i, j, c) for (i, j), c in RIGID_P_TERMS.items()]
                ),
                RIGID_K,
            ).to_planar()
        )
        assert rigid.k == RIGID_K
        f = factor_through_invariant(rigid_to_abel(rigid), EX1_A1)
        assert f.a1 == EX1_A1
        assert f.a2.equals(TrigRational.from_poly(EX1_A2))
        assert f.b2.equals(EX1_B2)

        combo = cancel_pole_combination(f.b2, f.a1, EX1_ETA)
        assert combo.equals(TrigRational.constant(EX1_COMBINATION))

        p1 = f.a1.tan_chart()[0]
        p2 = f.a2.sign_proxy().tan_chart()[0]
        cond2 = (
            TrigRational.from_poly(f.a1) * f.b2
            - f.a2
            + TrigRational.from_poly(f.a1.derivative()).scale(EX1_ETA)
        ).reduced()
        p3 = cond2.sign_proxy().tan_chart()[0]
        assert p1.monic() == EX1_CHART_A1.monic()
        assert p2.monic() == EX1_CHART_A2.monic()
        assert p3.monic() == EX1_CHART_COND2.monic()
        assert count_distinct_roots(p2) == 3
        assert all(p2.evaluate(F(r)) == 0 for r in (0, 1, 2))
        assert count_distinct_roots(p3) == 1 and p3.evaluate(F(0)) == 0

        v = check_at_most_one(f, EX1_ETA)
        assert v.outcome is Outcome.HOLDS and v.bound is Bound.AT_MOST_ONE
        nv = check_normalized(normalize(f, TrigPoly.constant(1)))
        assert nv.outcome is Outcome.FAILS


def test_criterion_2_gallery2_exact_pipeline():
    with criterion(2, "gallery 2 exact pipeline", 30.0):
        sys2 = HomogeneousSystem.of(EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)
        chart_psi = sys2.psi().tan_chart()[0]
        chart_phi = sys2.phi().tan_chart()[0]
        expected_psi = (
            RationalPoly.from_coeffs([-1, 1])
            * RationalPoly.from_coeffs([0, 1])
            * RationalPoly.from_coeffs([17649, 9269, 20000])
        ).scale(F(1, 20000))
        expected_phi = (
            RationalPoly.from_coeffs([-9, 10])
            * RationalPoly.from_coeffs([-1, 10])
            * RationalPoly.from_coeffs([1, -10, 50])
        ).scale(F(1, 10000))
        assert chart_psi == expected_psi
        assert chart_phi == expected_phi
        assert count_distinct_roots(chart_phi) == 2

        r = chart_psi.scale(EX2_A) - chart_phi
        assert count_distinct_roots(r, F(0), F(1)) == 0
        assert r.evaluate(F(0)) < 0 and r.evaluate(F(1)) < 0

        v = check_planar_no_cycle(sys2)
        assert v.outcome is Outcome.HOLDS and v.bound is Bound.NO_CYCLE

        rep = obstruction_report(sys2)
        assert all(c.holds is True for c in rep.checks)
        assert len(rep.checks) == 5

        first = next(c for c in rep.checks if c.check == "chart_combination")
        window = [
            w
            for w in first.witnesses
            if w.interval is not None
            and F(-1, 2) <= w.interval[0]
            and w.interval[1] <= F(1, 2)
        ]
        assert window, "expected a zero certificate inside [-1/2, 1/2]"
        omega2 = (
            sys2.psi().scale(2 * EX2_A * (EX2_N - 1))
            - sys2.phi().scale(EX2_N - 1)
            + sys2.psi().derivative()
        )
        p_two = omega2.tan_chart()[0]
        assert count_distinct_roots(p_two, F(-1, 2), F(1, 2)) == 0
        assert p_two.evaluate(F(0)) < 0


def test_criterion_3_oracle_agrees_with_certificates():
    with criterion(3, "oracle consistency on the gallery", 60.0):
        f2 = cherkas_transform(
            HomogeneousSystem.of(EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)
        )
        rep = count_cycles_in_V(f2, CFG, grid_density=400)
        assert rep.sign_changes == 0
        assert rep.count == 0

        rep_one = count_cycles_in_V(constants(1, 2, 1), CFG, grid_density=400)
        assert rep_one.count == 1
        assert abs(rep_one.cycles[0].x_star - 0.5) < 1e-8

        rep_zero = count_cycles_in_V(constants(1, -1, 1), CFG, grid_density=400)
        assert rep_zero.count == 0


def _brute_force_real_roots(p: RationalPoly) -> list[float]:
    """Distinct real roots by derivative recursion and bisection (no root
    isolation machinery shared with the code under test): between consecutive
    critical points the polynomial is monotone, so sign changes pin every
    root; endpoint signs are evaluated exactly at dyadic rationals."""
    q = p.squarefree_part()
    if q.degree <= 0:
        return []

    def sgn_at(poly: RationalPoly, x: float) -> int:
        v = poly.evaluate(F(x))
        return (v > 0) - (v < 0)

    def rec(poly: RationalPoly) -> list[float]:
        if poly.degree <= 0:
            return []
        bound = float(poly.cauchy_bound()) + 1.0
        pts = sorted({-bound, bound, *rec(poly.derivative())})
        roots = []
        for u, v in zip(pts, pts[1:]):
            su, sv = sgn_at(poly, u), sgn_at(poly, v)
            if su == 0:
                roots.append(u)
            if su * sv >= 0:
                continue
            lo, hi = u, v
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                sm = sgn_at(poly, mid)
                if sm == 0:
                    lo = hi = mid
                    break
                if sm == su:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        if pts and sgn_at(poly, pts[-1]) == 0:
            roots.append(pts[-1])
        return sorted(set(roots))

    return rec(q)


def _random_poly(rng: random.Random, max_degree: int, height: int) -> RationalPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-height, height) for _ in range(degree + 1)]
    return RationalPoly.from_coeffs(coeffs)


def test_criterion_4_root_counting_matches_brute_force():
    with criterion(4, "root counting vs brute force", 120.0):
        rng = random.Random(20260815)
        checked_polys = 0
        interval_checks = 0
        while checked_polys < 1000:
            p = _random_poly(rng, 8, 100)
            if p.is_zero:
                continue
            checked_polys += 1
            roots = _brute_force_real_roots(p)
            assert count_distinct_roots(p) == len(roots), f"coeffs {p.coeffs}"
            if interval_checks < 20 and p.degree >= 1:
                lo = F(rng.randint(-20, 20), rng.randint(1, 4))
                hi = lo + F(rng.randint(1, 40), rng.randint(1, 4))
                try:
                    got = count_distinct_roots(p, lo, hi)
                except EndpointRootError:
                    continue
                want = sum(1 for r in roots if lo < r < hi)
                assert got == want, f"coeffs {p.coeffs} on ({lo}, {hi})"
                interval_checks += 1
        assert interval_checks == 20

        grid = [F(k, 8) for k in range(-400, 401)]
        for _ in range(200):
            a = _random_poly(rng, 5, 20)
            b = _random_poly(rng, 5, 20)
            cond_a = rng.choice(["<0", ">0"])
            cond_b = rng.choice(["<=0", ">=0"])
            holds, witness = sign_implication(a, cond_a, b, cond_b)
            prem = (lambda v: v < 0) if cond_a == "<0" else (lambda v: v > 0)
            concl = (lambda v: v <= 0) if cond_b == "<=0" else (lambda v: v >= 0)
            if holds:
                for s in grid:
                    if prem(a.evaluate(s)):
                        assert concl(b.evaluate(s)), (a.coeffs, b.coeffs, s)
            else:
                assert witness is not None
                assert prem(a.evaluate(witness))
                assert not concl(b.evaluate(witness))


def test_criterion_5_numerical_integrity():
    with criterion(5, "numerical integrity", 120.0):
        ex1 = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2)
        ex2 = cherkas_transform(
            HomogeneousSystem.of(EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)
        )
        # d' from the variational equation vs centered differences
        step = 1e-6
        suites = [
            # solutions of the transformed second example blow up in finite
            # time for x0 >= 1.43; stay clear of the boundary
            (ex2, graded_grid(0.02, 1.3, 20)),
            (constants(1, 2, 1), graded_grid(0.05, 0.95, 15)),
            (constants(1, -1, 1), graded_grid(0.05, 0.95, 15)),
        ]
        checked = 0
        for f, grid in suites:
            mid = displacement_map(f, grid, CFG)
            fwd = displacement_map(f, [x + step for x in grid], CFG)
            bwd = displacement_map(f, [x - step for x in grid], CFG)
            for m, p, q in zip(mid, fwd, bwd):
                assert not (m.escaped or p.escaped or q.escaped)
                fd = (p.d + p.x0 - q.d - q.x0) / (2 * step) - 1.0
                assert abs(m.dprime - fd) < 1e-4 * max(1.0, abs(m.dprime))
                checked += 1
        assert checked == 50

        assert verify_invariance(
            ex1, "a1", CFG, theta_range=(math.pi / 8, 3 * math.pi / 8)
        ) < 1e-6
        assert verify_invariance(constants(1, 2, 1), "a1", CFG) < 1e-10

        for f in (ex1, ex2, constants(1, 2, 1), constants(-1, 1, 1)):
            assert displacement_map(f, [0.0], CFG)[0].d == 0.0
            assert verify_invariance(f, "zero", CFG) == 0.0


def test_criterion_6_certified_bounds_respected_on_random_instances():
    with criterion(6, "random instances respect certified bounds", 600.0):
        rng = random.Random(6)
        for checker, bound in ((check_no_cycle, 0), (check_at_most_one, 1)):
            found = 0
            while found < 20:
                f = random_instance(rng)
                if not best_over_etas(checker, f, eta_candidates(f)).holds:
                    continue
                found += 1
                rep = count_cycles_in_V(f, CFG, grid_density=80)
                assert rep.count <= bound, (
                    f"instance {f.to_json()} certified <= {bound} but the "
                    f"oracle found {rep.count}"
                )
