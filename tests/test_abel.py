"""Tests for the Abel equation models: factorization through the invariant
curve and regions, plus the identities on the scaled normal form, the
cofactors, the stability quadratic and its Sturm tail (built in
identities.py)."""

import random
from fractions import Fraction

import pytest

from abelcycles.abel import (
    AbelEquation,
    FactoredAbel,
    InvarianceError,
    RegionKind,
    classify_region,
    factor_through_invariant,
    negative_component_transform,
    riccati_bound_applies,
)
from abelcycles.poly import RationalPoly
from abelcycles.trig import Period, TrigPoly, TrigRational
from data import (
    EX1_A1,
    EX1_A2,
    EX1_B2,
    EX1_C1,
    EX1_C2,
    EX1_C3,
    EX1_COMBINATION,
    random_instance,
)
from identities import (
    CombinationParams,
    XPoly,
    circle_point,
    cofactors,
    denormalize,
    normalize,
    rhs,
    stability_quadratic,
    stability_sturm_tail,
    sturm_sequence,
)

F = Fraction


def constant_factored(a1, a2, b2) -> FactoredAbel:
    return FactoredAbel.from_parts(TrigPoly.constant(a1), F(a2), F(b2))


EX1_FACTORED = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2)


def rand_trig(rng: random.Random, allow_zero: bool = True) -> TrigPoly:
    terms = [
        (rng.randint(0, 2), rng.randint(0, 2), F(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3))
    ]
    f = TrigPoly.from_terms(terms)
    if f.is_zero and not allow_zero:
        return TrigPoly.constant(F(rng.randint(1, 4)))
    return f


def rand_factored(rng: random.Random) -> FactoredAbel:
    return FactoredAbel.from_parts(
        rand_trig(rng, allow_zero=False), rand_trig(rng), rand_trig(rng)
    )


class TestFactorThroughInvariant:
    def test_gallery_equation_recovers_frozen_coefficients(self):
        eq = AbelEquation.from_coefficients(EX1_C1, EX1_C2, EX1_C3)
        f = factor_through_invariant(eq, EX1_A1)
        assert f.a2.equals(TrigRational.from_poly(EX1_A2))
        assert f.b2.equals(EX1_B2)

    def test_constant_instance(self):
        eq = AbelEquation.from_coefficients(1, 0, -1)
        f = factor_through_invariant(eq, TrigPoly.constant(1))
        assert f.a2.equals(TrigRational.constant(-1))
        assert f.b2.equals(TrigRational.constant(1))

    def test_non_invariant_curve_raises_with_exact_residual(self):
        eq = AbelEquation.from_coefficients(5, 0, 1)
        with pytest.raises(InvarianceError) as err:
            factor_through_invariant(eq, TrigPoly.constant(1))
        assert err.value.residual.equals(TrigRational.constant(6))

    def test_roundtrip_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            f = rand_factored(rng)
            g = factor_through_invariant(f.to_abel(), f.a1)
            assert g.a2.equals(f.a2)
            assert g.b2.equals(f.b2)


class TestCofactors:
    def test_constant_case(self):
        p1, p2 = cofactors(constant_factored(1, -1, 1))
        # p1 = (x-1)(-x-1) = 1 - x^2, p2 = x(-x-1)
        for got, want in zip(p1.coeffs, (1, 0, -1)):
            assert got.equals(TrigRational.constant(want))
        for got, want in zip(p2.coeffs, (0, -1, -1)):
            assert got.equals(TrigRational.constant(want))

    def test_cofactor_of_origin_vanishes_at_origin(self):
        _, p2 = cofactors(EX1_FACTORED)
        assert p2.coeff(0).is_zero

    @pytest.mark.parametrize("seed", [3, 17])
    def test_invariance_identity_residuals_vanish(self, seed):
        rng = random.Random(seed)
        instances = [EX1_FACTORED] if seed == 3 else []
        instances += [rand_factored(rng) for _ in range(4)]
        for f in instances:
            p = rhs(f)
            p1, p2 = cofactors(f)
            # q = x with cofactor p1
            q = XPoly.from_coeffs([0, 1])
            assert (q.partial_t() + q.partial_x() * p - q * p1).is_zero
            # q = a1 x - 1 with cofactor p2
            q = XPoly.from_coeffs([-1, f.a1])
            assert (q.partial_t() + q.partial_x() * p - q * p2).is_zero


class TestStabilityQuadratic:
    def test_definition_matches_cofactor_combination(self):
        rng = random.Random(5)
        for _ in range(6):
            f = rand_factored(rng)
            if f.a2.is_zero:
                continue
            al, be, eta = (
                F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)
            )
            params = CombinationParams.of(al, be, eta)
            g = stability_quadratic(f, params)
            px = rhs(f).partial_x()
            p1, p2 = cofactors(f)
            logd = XPoly.from_coeffs([f.log_deriv_a1().scale(1 + al + eta)])
            combo = px + XPoly.from_coeffs(
                [c.scale(al) for c in p1.coeffs]
            ) + XPoly.from_coeffs([c.scale(be) for c in p2.coeffs]) + logd
            assert (g - combo).is_zero

    def test_alpha_beta_minus_one_factors_through_both_curves(self):
        f = EX1_FACTORED
        g = stability_quadratic(f, CombinationParams.of(-1, -1, 0))
        # a2 (a1 x - 1) x
        a1r = TrigRational.from_poly(f.a1)
        assert g.coeff(0).is_zero
        assert (g.coeff(1) + f.a2).is_zero
        assert (g.coeff(2) - a1r * f.a2).is_zero

    def test_alpha_minus_two_kills_linear_term(self):
        f = EX1_FACTORED
        g = stability_quadratic(f, CombinationParams.of(-2, 0, F(-1)))
        assert g.coeff(1).is_zero
        want_low = f.b2.scale(-1) + f.log_deriv_a1().scale(-1)
        assert (g.coeff(0) - want_low).is_zero

    def test_alpha_beta_sum_minus_two_shape(self):
        f = constant_factored(2, 3, 5)
        al, be = F(1, 2), F(-5, 2)
        g = stability_quadratic(f, CombinationParams.of(al, be, 0))
        assert (g.coeff(2) - TrigRational.constant(2 * 3)).is_zero
        assert (g.coeff(1) - TrigRational.constant(-(al + 2) * 3)).is_zero
        assert (g.coeff(0) - TrigRational.constant((al + 1) * 5)).is_zero


class TestSturmTail:
    def test_hand_computed_constant_case(self):
        f = constant_factored(1, -1, 1)
        tail = stability_sturm_tail(f, CombinationParams.of(0, -2, 0))
        assert tail.equals(TrigRational.constant(-2))

    def test_matches_euclidean_tail_at_random_points(self):
        rng = random.Random(23)
        checked = 0
        while checked < 50:
            f = rand_factored(rng)
            if f.a2.is_zero:
                continue
            al = F(rng.randint(-3, 3), rng.randint(1, 2))
            be = F(rng.randint(-3, 3), rng.randint(1, 2))
            eta = F(rng.randint(-2, 2))
            if al + be + 3 == 0:
                continue
            params = CombinationParams.of(al, be, eta)
            g = stability_quadratic(f, params)
            u = F(rng.randint(-20, 20), rng.randint(1, 10))
            c, s = circle_point(u)
            if f.a1.eval_at(c, s) == 0 or f.a2.eval_at(c, s) == 0:
                continue
            coeffs = [g.coeff(k).eval_at(c, s) for k in range(3)]
            if coeffs[2] == 0:
                continue
            chain = sturm_sequence(RationalPoly.from_coeffs(coeffs))
            tail = stability_sturm_tail(f, params).eval_at(c, s)
            assert chain[-1].degree == 0
            assert chain[-1].coeffs[0] == tail
            checked += 1

    def test_degenerate_parameters_rejected(self):
        f = constant_factored(1, 1, 1)
        with pytest.raises(ValueError):
            stability_sturm_tail(f, CombinationParams.of(-1, -2, 0))
        zero_a2 = constant_factored(1, 0, 1)
        with pytest.raises(ValueError):
            stability_sturm_tail(zero_a2, CombinationParams.of(0, 0, 0))


class TestRegion:
    def test_kinds(self):
        pos = FactoredAbel.from_parts(
            TrigPoly.constant(2) + TrigPoly.coswave(), 1, 1
        )
        assert classify_region(pos).kind is RegionKind.A1_POSITIVE
        assert classify_region(EX1_FACTORED).kind is RegionKind.A1_SIGN_CHANGING
        assert (
            classify_region(constant_factored(-1, 1, 1)).kind
            is RegionKind.A1_NEGATIVE
        )

    def test_touching_zero_counts_as_sign_changing(self):
        f = FactoredAbel.from_parts(TrigPoly.sinwave(2), 1, 1)
        assert classify_region(f).kind is RegionKind.A1_SIGN_CHANGING

    def test_zero_a1_rejected(self):
        with pytest.raises(ValueError):
            FactoredAbel.from_parts(TrigPoly.zero(), 1, 1)


class TestRiccatiRouting:
    def test_zero_a2_flagged(self):
        assert riccati_bound_applies(constant_factored(1, 0, 1))
        assert not riccati_bound_applies(EX1_FACTORED)


class TestPeriodDetection:
    def test_pi_periodic_gallery_data(self):
        assert EX1_FACTORED.period is Period.PI

    def test_constants_are_pi_periodic(self):
        assert constant_factored(1, -1, 1).period is Period.PI

    def test_odd_parity_forces_two_pi(self):
        f = FactoredAbel.from_parts(TrigPoly.constant(1), TrigPoly.coswave(), 1)
        assert f.period is Period.TWO_PI


class TestNormalize:
    def test_identity_multiplier(self):
        n = normalize(EX1_FACTORED, TrigPoly.constant(1))
        assert n.a1n == EX1_A1
        assert n.a2n.equals(TrigRational.from_poly(EX1_A2))
        want = EX1_B2 - EX1_FACTORED.log_deriv_a1()
        assert n.b2n.equals(want)
        # with eta = -1 the combination collapses to the constant 6, so the
        # identity normalization keeps b2n pole-free here
        assert n.b2n.equals(TrigRational.constant(EX1_COMBINATION))
        # the criterion reads the factored equation directly: with b1n = 1
        # the normal form is a1n = a1, a2n = a2 and b2n = C1
        rng = random.Random(45)
        cos_a1 = FactoredAbel.from_parts(TrigPoly.coswave(), TrigPoly.sinwave(), 1)
        for f in [random_instance(rng) for _ in range(40)] + [cos_a1]:
            n = normalize(f, TrigPoly.constant(1))
            a1n = TrigRational.from_poly(n.a1n)
            scaled = a1n * n.b2n + TrigRational(n.a1n.derivative(), n.b1n)
            assert scaled.equals(TrigRational.from_poly(f.a1) * f.b2)
            assert n.b2n.equals(f.c1)
            assert n.a2n.equals(f.a2)
            assert n.b2n.pole_free() == f.c1.pole_free()
            assert n.a2n.pole_free() == f.a2.pole_free()

    def test_scaled_form_expands_to_the_same_cubic(self):
        # the scaled form (a1n x - b1n)(a2n x - b2n) x + (b1n' - a1n' x) x/b1n
        # must reproduce the cubic coefficients of the input equation
        b1n = TrigPoly.constant(2) + TrigPoly.coswave()
        n = normalize(EX1_FACTORED, b1n)
        b1r = TrigRational.from_poly(n.b1n)
        a1r = TrigRational.from_poly(n.a1n)
        orig = EX1_FACTORED.to_abel()
        c3 = a1r * n.a2n
        c2 = -(a1r * n.b2n + n.a2n * b1r + TrigRational(n.a1n.derivative(), n.b1n))
        c1 = b1r * n.b2n + TrigRational(n.b1n.derivative(), n.b1n)
        assert c3.equals(orig.c3)
        assert c2.equals(orig.c2)
        assert c1.equals(orig.c1)

    def test_constant_multiplier(self):
        n = normalize(constant_factored(1, -1, 1), TrigPoly.constant(2))
        assert n.a1n == TrigPoly.constant(2)
        assert n.a2n.equals(TrigRational.constant(F(-1, 2)))
        assert n.b2n.equals(TrigRational.constant(F(1, 2)))

    def test_roundtrip_reconstructs_raw_coefficients(self):
        b1n = TrigPoly.constant(2) + TrigPoly.coswave()
        eq = denormalize(normalize(EX1_FACTORED, b1n))
        orig = EX1_FACTORED.to_abel()
        assert eq.c1.equals(orig.c1)
        assert eq.c2.equals(orig.c2)
        assert eq.c3.equals(orig.c3)

    def test_vanishing_multiplier_rejected(self):
        with pytest.raises(ValueError):
            normalize(EX1_FACTORED, TrigPoly.coswave())


class TestNegativeComponentTransform:
    def test_constant_example(self):
        g = negative_component_transform(constant_factored(-1, 1, 1))
        assert g.a1 == TrigPoly.constant(1)
        assert g.a2.equals(TrigRational.constant(-1))
        assert g.b2.equals(TrigRational.constant(1))

    def test_symbolic_identity_against_direct_substitution(self):
        rng = random.Random(31)
        for _ in range(10):
            base = rand_trig(rng)
            a1 = -(base * base) - TrigPoly.constant(rng.randint(1, 3))
            f = FactoredAbel.from_parts(a1, rand_trig(rng), rand_trig(rng))
            g = negative_component_transform(f)
            # y' = (1/a1) y (y-1) (a2 y - a1 b2): coefficients in y are
            # [0, b2, -(b2 + a2/a1), a2/a1]
            a1r = TrigRational.from_poly(f.a1)
            want = XPoly.from_coeffs(
                [TrigRational.zero(), f.b2, -(f.b2 + f.a2 / a1r), f.a2 / a1r]
            )
            assert (rhs(g) - want).is_zero

    def test_requires_strictly_negative_a1(self):
        with pytest.raises(ValueError):
            negative_component_transform(EX1_FACTORED)
        with pytest.raises(ValueError):
            negative_component_transform(constant_factored(1, 1, 1))
