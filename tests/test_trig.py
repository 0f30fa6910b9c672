"""Tests for exact trig polynomials, trig rationals, and circle sign reports.

Float evaluation on dense period grids serves as the independent oracle for
the exact chart computations.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcycles.criteria import eta_candidates
from abelcycles.gallery import example1_factored, example2_system
from abelcycles.planar import cherkas_transform
from abelcycles.poly import RationalPoly, SignOnSet, count_distinct_roots
from abelcycles.trig import (
    NonHomogeneousError,
    Period,
    CircleChart,
    PoleError,
    TrigPoly,
    TrigRational,
    cancel_pole_combination,
    circle_point,
    definite_sign_on_period,
    definite_sign_report,
    has_odd_order_pole,
    vanishing_order_at_pi,
)
from oracles import trig_grid_extrema

F = Fraction

# Sextic coefficient triple reused across the suite (see the gallery module):
# a1 = cos^3 sin^3, a2 = -12 c^3 s^3 + 18 c^2 s^4 - 6 c s^5,
# b2 = (6 c s + 3 c^2 - 3 s^2) / (c s).
A1 = TrigPoly.from_terms([(3, 3, 1)])
A2 = TrigPoly.from_terms([(3, 3, -12), (2, 4, 18), (1, 5, -6)])
B2 = TrigRational(
    TrigPoly.from_terms([(1, 1, 6), (2, 0, 3), (0, 2, -3)]),
    TrigPoly.from_terms([(1, 1, 1)]),
)


def small_fracs():
    return st.fractions(
        min_value=-10, max_value=10, max_denominator=8
    )


def trig_polys(max_power: int = 4, max_terms: int = 5):
    term = st.tuples(
        st.integers(0, max_power), st.integers(0, max_power), small_fracs()
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(TrigPoly.from_terms)


def rand_circle_u(rng: random.Random) -> Fraction:
    return F(rng.randint(-50, 50), rng.randint(1, 20))


class TestCanonicalForm:
    def test_sin_square_reduction(self):
        assert TrigPoly.sinwave(2).terms == (((0, 0), F(1)), ((2, 0), F(-1)))
        assert TrigPoly.sinwave(3).terms == (((0, 1), F(1)), ((2, 1), F(-1)))

    def test_pythagorean_identity(self):
        c2 = TrigPoly.coswave(2)
        s2 = TrigPoly.sinwave(2)
        assert (c2 + s2 - TrigPoly.constant(1)).is_zero

    def test_zero_detection_across_representations(self):
        # c^2 s - s + s^3 = s (c^2 - 1 + s^2) = 0
        f = TrigPoly.from_terms([(2, 1, 1), (0, 1, -1), (0, 3, 1)])
        assert f.is_zero

    @given(trig_polys(), trig_polys(), st.fractions(max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_ring_operations_match_pointwise(self, f, g, u):
        c, s = circle_point(u)
        assert (f + g).eval_at(c, s) == f.eval_at(c, s) + g.eval_at(c, s)
        assert (f * g).eval_at(c, s) == f.eval_at(c, s) * g.eval_at(c, s)

    @given(trig_polys(), st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_canonical_form_preserves_values(self, f, theta):
        # rebuild from the canonical terms and compare float values
        rebuilt = TrigPoly.from_terms((i, j, c) for (i, j), c in f.terms)
        assert rebuilt.evaluate_float(theta) == pytest.approx(
            f.evaluate_float(theta), abs=1e-9
        )

    def test_json_roundtrip(self):
        assert TrigPoly.from_json(A2.to_json()) == A2
        r = TrigRational.from_json(B2.to_json())
        assert r.equals(B2)


class TestDerivative:
    def test_frozen_derivative_of_a1(self):
        expected = TrigPoly.from_terms([(2, 0, -3), (4, 0, 9), (6, 0, -6)])
        assert A1.derivative() == expected

    def test_basic_rules(self):
        assert TrigPoly.sinwave().derivative() == TrigPoly.coswave()
        assert TrigPoly.coswave().derivative() == TrigPoly.sinwave(coeff=-1)

    @given(trig_polys(max_power=3, max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_finite_differences(self, f):
        h = 1e-6
        for theta in (0.3, 1.1, 2.9, 4.2):
            fd = (f.evaluate_float(theta + h) - f.evaluate_float(theta - h)) / (2 * h)
            assert f.derivative().evaluate_float(theta) == pytest.approx(
                fd, abs=1e-4 * (1 + abs(fd))
            )

    @given(trig_polys(max_power=3, max_terms=3), trig_polys(max_power=3, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, f, g):
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert (lhs - rhs).is_zero


class TestPeriodDetection:
    def test_examples(self):
        assert TrigPoly.coswave(2).detect_period() is Period.PI
        assert TrigPoly.coswave().detect_period() is Period.TWO_PI
        assert (TrigPoly.coswave() + TrigPoly.coswave(2)).parity() is None
        assert A1.detect_period() is Period.PI
        assert B2.period() is Period.PI

    @given(trig_polys())
    @settings(max_examples=40, deadline=None)
    def test_pi_period_claim_holds_on_grid(self, f):
        if f.detect_period() is Period.PI:
            for theta in (0.37, 1.41, 2.2):
                assert f.evaluate_float(theta + math.pi) == pytest.approx(
                    f.evaluate_float(theta), abs=1e-9
                )


class TestTangentChart:
    def test_frozen_charts_for_gallery_coefficients(self):
        p1, d1 = A1.tan_chart()
        assert d1 == 6
        assert p1 == RationalPoly.from_coeffs([0, 0, 0, 1])
        p2, d2 = A2.tan_chart()
        assert d2 == 6
        assert p2 == RationalPoly.from_coeffs([0, 0, 0, -12, 18, -6])

    def test_degree_validation(self):
        with pytest.raises(NonHomogeneousError):
            A1.tan_substitute(5)
        with pytest.raises(NonHomogeneousError):
            (TrigPoly.coswave() + TrigPoly.constant(1)).tan_chart()

    @given(
        trig_polys(max_power=3, max_terms=4),
        st.fractions(min_value=-10, max_value=10, max_denominator=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_chart_reproduces_values(self, f, t):
        if f.parity() is None:
            return
        p, d = f.tan_chart()
        theta = math.atan(float(t))
        assert math.cos(theta) ** d * p.evaluate_float(float(t)) == pytest.approx(
            f.evaluate_float(theta), abs=1e-7
        )


class TestHalfAngleChart:
    @given(trig_polys())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_is_identity(self, f):
        n, k = f.half_angle_chart()
        assert TrigPoly.from_half_angle(n, k) == f

    @given(trig_polys(max_power=3, max_terms=4), st.fractions(max_denominator=10))
    @settings(max_examples=60, deadline=None)
    def test_chart_reproduces_values_exactly(self, f, u):
        n, k = f.half_angle_chart()
        c, s = circle_point(u)
        assert n.evaluate(u) / (1 + u * u) ** k == f.eval_at(c, s)

    def test_rejects_overlong_numerator(self):
        with pytest.raises(ValueError):
            TrigPoly.from_half_angle(RationalPoly.from_coeffs([0, 0, 0, 1]), 1)


class TestTrigRational:
    def test_reduction_cancels_common_factors(self):
        c = TrigPoly.coswave()
        f = TrigPoly.constant(2) + TrigPoly.sinwave()
        g = TrigPoly.constant(3) + TrigPoly.coswave()
        blown = TrigRational(c * f, c * g)
        slim = blown.reduced()
        assert slim.equals(TrigRational(f, g))
        # the pole of the unreduced quotient at cos t = 0 must be gone
        assert slim.den.eval_at(F(0), F(1)) != 0

    def test_reduction_keeps_values(self):
        rng = random.Random(7)
        r = B2.reduced()
        for _ in range(25):
            u = rand_circle_u(rng)
            c, s = circle_point(u)
            if B2.den.eval_at(c, s) == 0:
                continue
            assert r.eval_at(c, s) == B2.eval_at(c, s)

    def test_pole_detection(self):
        assert TrigRational(
            TrigPoly.constant(1), TrigPoly.constant(2) + TrigPoly.coswave()
        ).pole_free()
        assert not TrigRational(TrigPoly.constant(1), TrigPoly.coswave()).pole_free()
        assert not B2.pole_free()
        with pytest.raises(PoleError):
            B2.eval_at(F(1), F(0))

    def test_pole_at_theta_pi_is_detected(self):
        # denominator 1 + cos t vanishes only at t = pi, which the half-angle
        # chart itself does not see
        r = TrigRational(TrigPoly.constant(1), TrigPoly.constant(1) + TrigPoly.coswave())
        assert not r.pole_free()

    def test_derivative_matches_finite_differences(self):
        r = TrigRational(
            TrigPoly.constant(2) + TrigPoly.sinwave(),
            TrigPoly.constant(2) + TrigPoly.coswave(),
        )
        dr = r.derivative()
        h = 1e-6
        for theta in (0.5, 1.7, 3.3, 5.1):
            fd = (r.evaluate_float(theta + h) - r.evaluate_float(theta - h)) / (2 * h)
            assert dr.evaluate_float(theta) == pytest.approx(fd, abs=1e-5)

    @given(trig_polys(max_power=2, max_terms=3), trig_polys(max_power=2, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_reduced_equals_original(self, n, d):
        if d.is_zero:
            return
        r = TrigRational(n, d)
        assert r.reduced().equals(r)


class TestPoleCancellation:
    def test_gallery_combination_collapses_to_constant(self):
        out = cancel_pole_combination(B2, A1, -1)
        assert out.equals(TrigRational.constant(6))
        assert out.num == TrigPoly.constant(6)
        assert out.den == TrigPoly.constant(1)
        assert out.pole_free()

    def test_wrong_multiplier_keeps_poles(self):
        assert not cancel_pole_combination(B2, A1, 1).pole_free()
        assert not cancel_pole_combination(B2, A1, 0).pole_free()

    def test_log_derivative_term(self):
        # b2 = 0, a1 = cos: combination is -eta tan t
        out = cancel_pole_combination(
            TrigRational.zero(), TrigPoly.coswave(), F(1, 2)
        )
        expected = TrigRational(
            TrigPoly.sinwave(coeff=F(-1, 2)), TrigPoly.coswave()
        )
        assert out.equals(expected)


def _reference_pole_free(f: TrigRational) -> bool:
    """pole_free as derived before the half-angle pair was kept: re-chart the
    reduced denominator."""
    r = f.reduced()
    nd, _ = r.den.half_angle_chart()
    if nd.degree > 0 and count_distinct_roots(nd) > 0:
        return False
    return r.den.eval_at(F(-1), F(0)) != 0


def _reference_has_odd_order_pole(f: TrigRational) -> bool:
    """has_odd_order_pole as derived before the half-angle pair was kept:
    re-chart the reduced numerator and denominator and cancel their gcd."""
    r = f.reduced()
    nd, _ = r.den.half_angle_chart()
    if nd.degree > 0:
        nn, _ = r.num.half_angle_chart()
        g = nd.gcd(nn)
        core = nd.exact_div(g) if g.degree > 0 else nd
        for factor, mult in core.squarefree_decomposition():
            if mult % 2 == 1 and factor.degree > 0 and count_distinct_roots(factor) > 0:
                return True
    if r.den.eval_at(F(-1), F(0)) == 0:
        vd = vanishing_order_at_pi(r.den)
        vn = vanishing_order_at_pi(r.num) if not r.num.is_zero else vd
        if vd > vn and (vd - vn) % 2 == 1:
            return True
    return False


def _gallery_rationals() -> list[TrigRational]:
    """The gallery's trig rationals, b2 + eta a1'/a1 for every candidate eta,
    and a few fixed poles."""
    out = []
    for f in (example1_factored(), cherkas_transform(example2_system())):
        out += [f.a2, f.b2, f.log_deriv_a1(), f.c1, f.c2, f.c3]
        out += [cancel_pole_combination(f.b2, f.a1, eta) for eta in eta_candidates(f)]
    one, c, s = TrigPoly.constant(1), TrigPoly.coswave(), TrigPoly.sinwave()
    out += [
        TrigRational(one, c * c),  # even-order poles at pi/2 and 3pi/2
        TrigRational(one, one + c),  # even-order pole at pi only
        TrigRational(s, one + c),  # tan(t/2): odd-order pole at pi only
        TrigRational(c * (one + c), c * (one + s)),  # cancels to a pole-free form
        TrigRational.zero(),
    ]
    return out


GALLERY_RATIONALS = _gallery_rationals()


class TestReduceOnce:
    @pytest.mark.parametrize("g", GALLERY_RATIONALS)
    def test_reduced_form_is_kept_and_carries_its_pair(self, g):
        f = TrigRational(g.num, g.den)
        r = f.reduced()
        assert f.reduced() is r
        assert r.reduced() is r
        assert f.half_angle_pair() == r.half_angle_pair()
        # the pair a fresh copy derives equals the one the reduced form carries
        assert TrigRational(r.num, r.den).half_angle_pair() == r.half_angle_pair()
        assert f.chart is r.chart
        proxy = f.sign_proxy()
        assert proxy == r.num * r.den
        # one proxy per reduced form, so its chart and sign report are kept
        assert f.sign_proxy() is proxy and r.sign_proxy() is proxy
        assert definite_sign_report(f.sign_proxy()) is definite_sign_report(proxy)

    @pytest.mark.parametrize("f", GALLERY_RATIONALS)
    def test_pole_tests_match_the_rechart_derivation(self, f):
        for g in (f, TrigRational(f.num, f.den), f.reduced()):
            assert g.pole_free() == _reference_pole_free(g)
            assert has_odd_order_pole(g) == _reference_has_odd_order_pole(g)

    def test_the_fixed_cases_cover_every_branch(self):
        fs = GALLERY_RATIONALS
        assert {g.pole_free() for g in fs} == {True, False}
        assert {has_odd_order_pole(g) for g in fs} == {True, False}
        assert any(not g.pole_free() and not has_odd_order_pole(g) for g in fs)


class TestSignClassification:
    @pytest.mark.parametrize(
        "f,expected",
        [
            (TrigPoly.constant(5), SignOnSet.STRICTLY_POSITIVE),
            (TrigPoly.constant(-2), SignOnSet.STRICTLY_NEGATIVE),
            (TrigPoly.zero(), SignOnSet.IDENTICALLY_ZERO),
            (TrigPoly.coswave(2), SignOnSet.NON_NEGATIVE),
            (TrigPoly.sinwave(2, coeff=-1), SignOnSet.NON_POSITIVE),
            (TrigPoly.constant(2) + TrigPoly.coswave(), SignOnSet.STRICTLY_POSITIVE),
            (TrigPoly.coswave(), SignOnSet.MIXED),
            (TrigPoly.coswave(3), SignOnSet.MIXED),
            (TrigPoly.constant(1) + TrigPoly.sinwave(), SignOnSet.NON_NEGATIVE),
            (
                TrigPoly.constant(1) + TrigPoly.sinwave() + TrigPoly.coswave(),
                SignOnSet.MIXED,
            ),
            (A1, SignOnSet.MIXED),
        ],
    )
    def test_frozen_classifications(self, f, expected):
        assert definite_sign_on_period(f) is expected

    @pytest.mark.parametrize(
        "r,expected",
        [
            (
                TrigRational(
                    TrigPoly.sinwave(2), TrigPoly.constant(2) + TrigPoly.coswave()
                ),
                SignOnSet.NON_NEGATIVE,
            ),
            (
                TrigRational(TrigPoly.constant(1), TrigPoly.coswave(2)),
                SignOnSet.NON_NEGATIVE,
            ),
            (
                TrigRational(TrigPoly.constant(1), TrigPoly.coswave()),
                SignOnSet.MIXED,
            ),
            (B2, SignOnSet.MIXED),
        ],
    )
    def test_rational_classifications_via_proxy(self, r, expected):
        assert definite_sign_on_period(r) is expected

    def test_even_order_pole_keeps_one_sided_sign(self):
        # 1/cos^2 is positive wherever defined; the pole itself counts as a
        # sign-degenerate point, so the verdict is the non-strict class
        r = TrigRational(TrigPoly.constant(1), TrigPoly.coswave(2))
        assert definite_sign_on_period(r) is SignOnSet.NON_NEGATIVE

    @given(trig_polys())
    @settings(max_examples=80, deadline=None)
    def test_classification_consistent_with_grid(self, f):
        verdict = definite_sign_on_period(f)
        lo, hi = trig_grid_extrema(f)
        if verdict.is_nonnegative:
            assert lo >= -1e-9
        if verdict.is_nonpositive:
            assert hi <= 1e-9
        if verdict is SignOnSet.IDENTICALLY_ZERO:
            assert max(abs(lo), abs(hi)) <= 1e-9
        if lo < -1e-6:
            assert not verdict.is_nonnegative
        if hi > 1e-6:
            assert not verdict.is_nonpositive

    @given(trig_polys())
    @settings(max_examples=80, deadline=None)
    def test_witness_samples_have_claimed_signs(self, f):
        report = definite_sign_report(f)
        if report.positive_at is not None:
            assert f.chart.sign(*report.positive_at) == 1
            assert f.evaluate_float(CircleChart.angle(*report.positive_at)) > 0
        if report.negative_at is not None:
            assert f.chart.sign(*report.negative_at) == -1
            assert f.evaluate_float(CircleChart.angle(*report.negative_at)) < 0
        if report.sign is SignOnSet.MIXED:
            assert report.positive_at is not None
            assert report.negative_at is not None
