"""Planar reductions: rigid detection, the r^k change, and the Cherkas map."""

import math
import random
from fractions import Fraction as F

import pytest

from abelcycles.abel import factor_through_invariant
from abelcycles.planar import (
    BivariatePoly,
    HomogeneousSystem,
    PlanarPolySystem,
    RiccatiRouteError,
    RigidStructureError,
    RigidSystem,
    cherkas_transform,
    detect_rigid,
    rigid_to_abel,
)
from abelcycles.trig import TrigPoly, TrigRational, cancel_pole_combination

from data import (
    EX1_A1,
    EX1_A2,
    EX1_B2,
    EX1_C1,
    EX1_C2,
    EX1_C3,
    EX2_A,
    EX2_CHART_PHI,
    EX2_CHART_PSI,
    EX2_N,
    EX2_P3_TERMS,
    EX2_PHI,
    EX2_PSI,
    EX2_Q3_TERMS,
    RIGID_K,
    RIGID_P_TERMS,
)
from oracles import bivariate_float


def ex1_rigid() -> RigidSystem:
    return RigidSystem(BivariatePoly.from_terms(RIGID_P_TERMS), RIGID_K)


def ex2_system() -> HomogeneousSystem:
    return HomogeneousSystem.of(EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)


class TestBivariatePoly:
    def test_merge_and_drop_zero(self):
        p = BivariatePoly.from_terms([(1, 0, F(1)), (1, 0, F(-1)), (0, 2, F(3))])
        assert p.term_dict() == {(0, 2): F(3)}

    def test_ring_ops_match_pointwise(self):
        p = BivariatePoly.from_terms({(2, 1): F(3), (0, 0): F(-1)})
        q = BivariatePoly.from_terms({(1, 1): F(1, 2)})
        s = p + q.scale(4)
        for x, y in [(0.3, -1.2), (2.0, 0.5)]:
            assert bivariate_float(s, x, y) == pytest.approx(
                bivariate_float(p, x, y) + 4 * bivariate_float(q, x, y)
            )

    def test_layers(self):
        p = BivariatePoly.from_terms(RIGID_P_TERMS)
        assert p.degrees() == {0, 6, 12}
        assert p.layer(6).degrees() == {6}
        assert p.layer(5).is_zero

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            BivariatePoly.from_terms([(10, 8, F(1))])

    def test_json_roundtrip(self):
        p = BivariatePoly.from_terms({(2, 1): F(3, 7), (0, 0): F(-1)})
        assert BivariatePoly.from_json(p.to_json()) == p

    def test_on_circle(self):
        p = BivariatePoly.from_terms({(2, 0): F(1), (0, 2): F(1)})
        assert p.on_circle() == TrigPoly.constant(1)


class TestDetectRigid:
    def test_roundtrip_on_gallery_system(self):
        r = ex1_rigid()
        found = detect_rigid(r.to_planar())
        assert found.p == r.p
        assert found.k == RIGID_K

    def test_constant_factor_gets_k_one(self):
        r = RigidSystem(BivariatePoly.from_terms({(0, 0): F(2)}), 1)
        assert detect_rigid(r.to_planar()).k == 1

    def test_single_even_layer_is_cubic(self):
        # p = 1 + (degree-4 layer): the layer feeds the rho^3 coefficient
        p = BivariatePoly.from_terms({(0, 0): F(1), (2, 2): F(1)})
        assert detect_rigid(RigidSystem(p, 2).to_planar()).k == 2

    def test_single_odd_layer_is_quadratic(self):
        p = BivariatePoly.from_terms({(0, 0): F(1), (3, 0): F(1)})
        assert detect_rigid(RigidSystem(p, 3).to_planar()).k == 3

    def test_not_divisible(self):
        sys = PlanarPolySystem(
            BivariatePoly.from_terms({(0, 1): F(-1), (0, 2): F(1)}),
            BivariatePoly.from_terms({(1, 0): F(1)}),
        )
        with pytest.raises(RigidStructureError) as exc:
            detect_rigid(sys)
        assert (0, 2) in exc.value.offending

    def test_factor_mismatch(self):
        # x' = -y + x*x, y' = x + y*(2x)
        sys = PlanarPolySystem(
            BivariatePoly.from_terms({(0, 1): F(-1), (2, 0): F(1)}),
            BivariatePoly.from_terms({(1, 0): F(1), (1, 1): F(2)}),
        )
        with pytest.raises(RigidStructureError, match="disagree"):
            detect_rigid(sys)

    def test_bad_layer_degrees(self):
        p = BivariatePoly.from_terms({(0, 0): F(1), (2, 0): F(1), (3, 0): F(1)})
        with pytest.raises(RigidStructureError, match="layer"):
            detect_rigid(RigidSystem(p, 2).to_planar())

    def test_rigid_angular_speed_is_one(self):
        r = ex1_rigid()
        sys = r.to_planar()
        rng = random.Random(7)
        for _ in range(20):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            xd = bivariate_float(sys.xdot, x, y)
            yd = bivariate_float(sys.ydot, x, y)
            assert (x * yd - y * xd) / (x * x + y * y) == pytest.approx(1.0)


class TestRigidToAbel:
    def test_gallery_coefficients(self):
        eq = rigid_to_abel(ex1_rigid())
        assert eq.c1.equals(TrigRational.from_poly(EX1_C1))
        assert eq.c2.equals(TrigRational.from_poly(EX1_C2))
        assert eq.c3.equals(TrigRational.from_poly(EX1_C3))

    def test_pipeline_reaches_factored_form(self):
        eq = rigid_to_abel(ex1_rigid())
        f = factor_through_invariant(eq, EX1_A1)
        assert f.a2.equals(TrigRational.from_poly(EX1_A2))
        assert f.b2.equals(EX1_B2)

    def test_radial_conjugacy(self):
        # rho = r^k must satisfy the cubic equation along the flow
        r = ex1_rigid()
        sys = r.to_planar()
        eq = rigid_to_abel(r)
        rng = random.Random(11)
        for _ in range(100):
            theta = rng.uniform(0, 2 * math.pi)
            rad = rng.uniform(0.05, 0.8)
            x, y = rad * math.cos(theta), rad * math.sin(theta)
            xd = bivariate_float(sys.xdot, x, y)
            yd = bivariate_float(sys.ydot, x, y)
            rdot = (x * xd + y * yd) / rad
            rho = rad**r.k
            rhodot = r.k * rad ** (r.k - 1) * rdot
            rhs = sum(
                c.evaluate_float(theta) * rho**m
                for m, c in ((1, eq.c1), (2, eq.c2), (3, eq.c3))
            )
            assert rhodot == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestHomogeneous:
    def test_gallery_phi_psi(self):
        sys = ex2_system()
        assert sys.phi() == EX2_PHI
        assert sys.psi() == EX2_PSI

    def test_gallery_tangent_charts(self):
        p_psi, d_psi = EX2_PSI.tan_chart()
        p_phi, d_phi = EX2_PHI.tan_chart()
        assert d_psi == d_phi == 4
        assert p_psi == EX2_CHART_PSI
        assert p_phi == EX2_CHART_PHI

    def test_nonhomogeneous_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            HomogeneousSystem.of(F(1), 3, {(2, 0): F(1)}, {(3, 0): F(1)})

    def test_degree_floor(self):
        with pytest.raises(ValueError, match="degree"):
            HomogeneousSystem.of(F(1), 1, {(1, 0): F(1)}, {(0, 1): F(1)})

    def test_nonlinearity_reconstruction(self):
        # P(cos, sin) = phi cos - psi sin, Q(cos, sin) = phi sin + psi cos
        sys = ex2_system()
        c = TrigPoly.coswave(1, 1)
        s = TrigPoly.sinwave(1, 1)
        phi, psi = sys.phi(), sys.psi()
        assert sys.p.on_circle() == phi * c - psi * s
        assert sys.q.on_circle() == phi * s + psi * c

    def test_json_roundtrip(self):
        sys = ex2_system()
        assert HomogeneousSystem.from_json(sys.to_json()) == sys


class TestCherkas:
    def test_gallery_parts(self):
        sys = ex2_system()
        f = cherkas_transform(sys)
        m = EX2_N - 1
        assert f.a1 == EX2_PSI
        assert f.a2.equals(
            TrigRational.from_poly((EX2_PSI.scale(EX2_A) - EX2_PHI).scale(m))
        )
        # b2 is kept over the raw denominator psi so eta = -1 cancels exactly
        assert f.b2.num == EX2_PSI.scale(m * EX2_A) + EX2_PSI.derivative()
        assert f.b2.den == EX2_PSI

    def test_eta_minus_one_cancels_to_constant(self):
        f = cherkas_transform(ex2_system())
        h = cancel_pole_combination(f.b2, f.a1, F(-1))
        assert h.equals(TrigRational.constant((EX2_N - 1) * EX2_A))
        assert h.den == TrigPoly.constant(1)

    def test_cubic_coefficients_closed_form(self):
        sys = ex2_system()
        eq = cherkas_transform(sys).to_abel()
        m = sys.n - 1
        phi, psi = sys.phi(), sys.psi()
        c1 = TrigPoly.constant(m * sys.a)
        c2 = (phi - psi.scale(2 * sys.a)).scale(m) - psi.derivative()
        c3 = psi.scale(m) * (psi.scale(sys.a) - phi)
        assert eq.c1.equals(TrigRational.from_poly(c1))
        assert eq.c2.equals(TrigRational.from_poly(c2))
        assert eq.c3.equals(TrigRational.from_poly(c3))

    def test_riccati_route(self):
        # P = x g, Q = y g makes the angular component vanish identically
        with pytest.raises(RiccatiRouteError):
            cherkas_transform(
                HomogeneousSystem.of(F(1), 3, {(3, 0): F(1)}, {(2, 1): F(1)})
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_transform_conjugacy(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        coeffs = lambda: {
            (i, n - i): F(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(n + 1)
        }
        sys = HomogeneousSystem.of(F(rng.randint(-2, 2), 2), n, coeffs(), coeffs())
        psi = sys.psi()
        if psi.is_zero:
            pytest.skip("angular component vanished")
        f = cherkas_transform(sys)
        eq = f.to_abel()
        phi = sys.phi()
        m = n - 1
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            rad = rng.uniform(0.01, 0.2)
            u = rad**m
            psi_v = psi.evaluate_float(theta)
            phi_v = phi.evaluate_float(theta)
            denom = 1 + psi_v * u
            if abs(denom) < 1e-3:
                continue
            rho = u / denom
            # d rho / d theta along the flow of the planar system
            du_dt = m * u * (float(sys.a) + phi_v * u)
            dtheta_dt = denom
            drho_dt = (
                du_dt / denom**2 - u * u * psi.derivative().evaluate_float(theta) / denom**2 * dtheta_dt
            )
            lhs = drho_dt / dtheta_dt
            rhs = sum(
                c.evaluate_float(theta) * rho**k
                for k, c in ((1, eq.c1), (2, eq.c2), (3, eq.c3))
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
