"""Sanity and property tests for the exact polynomial layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcycles.poly import (
    NEG_INF,
    POS_INF,
    EndpointRootError,
    RationalPoly,
    SignOnSet,
    _scaled_sturm_chain,
    count_distinct_roots,
    find_strict_interval,
    isolate_real_roots,
    sign_implication,
    sign_report_on_real_line,
    sign_variations,
)

from identities import sturm_sequence
from oracles import brute_force_distinct_roots, robust_implication_violation

P = RationalPoly.from_coeffs

# charts of the showcase sextic system: a1, a2 and the eta=-1 combination
P1 = P([0, 0, 0, 1])
P2 = P([0, 0, 0, -12, 18, -6])
P3 = P([0, 0, 0, 18, -18, 6])


def rand_poly(rng: random.Random, max_deg: int = 8, height: int = 100) -> RationalPoly:
    deg = rng.randint(0, max_deg)
    cs = [rng.randint(-height, height) for _ in range(deg + 1)]
    if all(c == 0 for c in cs):
        cs[-1] = 1
    return P(cs)


def scaled_sturm_chain_reference(p: RationalPoly) -> list[RationalPoly]:
    """The scaled Sturm chain with its remainders taken by Fraction divmod:
    how the chain was built before integer pseudo-remainders."""
    if p.is_zero:
        return [p]
    chain = [p.primitive(), p.derivative().primitive()]
    if chain[1].is_zero:
        return chain[:1]
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            break
        chain.append((-r).primitive())
    return chain


def gcd_reference(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd by Fraction divmod, each remainder made primitive."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r.primitive() if not r.is_zero else r
    return a.monic()


# rational coefficients: small, zero, negative, and with large denominators
coeff = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(max_denominator=10**9),
)
point = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-30, max_value=30, max_denominator=16),
    st.fractions(max_denominator=10**15),
)


def sign_of(v: Fraction) -> int:
    return (v > 0) - (v < 0)


class TestIntegerSign:
    """RationalPoly.sign reads b^deg * L * p(a/b) over the integers."""

    @given(st.lists(coeff, max_size=9), point)
    @settings(max_examples=400, deadline=None)
    def test_matches_sign_of_evaluate(self, cs, x):
        p = P(cs)
        assert p.sign(x) == sign_of(p.evaluate(x))

    @given(st.lists(coeff, max_size=6), point, point)
    @settings(max_examples=200, deadline=None)
    def test_zero_at_a_root(self, cs, root, x):
        q = P(cs)
        p = P([-Fraction(root), 1]) * q
        assert p.sign(root) == 0
        assert p.sign(x) == sign_of(p.evaluate(x))

    def test_zero_and_constant_polynomials(self):
        for x in (Fraction(0), Fraction(-7, 3), Fraction(1, 10**20), 5):
            assert RationalPoly.zero().sign(x) == 0
            assert P([Fraction(-2, 9)]).sign(x) == -1
            assert P([Fraction(1, 10**12)]).sign(x) == 1

    def test_negative_points_and_large_denominators(self):
        p = P([Fraction(-1, 3), 0, 1])  # x^2 - 1/3
        assert p.sign(Fraction(-577, 1000)) == -1
        assert p.sign(Fraction(-578, 1000)) == 1
        # 1/sqrt(3) = 0.577350269189625764509...
        assert p.sign(Fraction(577350269189625764, 10**18)) == -1
        assert p.sign(Fraction(577350269189625765, 10**18)) == 1
        assert p.sign(Fraction(-577350269189625765, 10**18)) == 1


class TestIntegerRemainders:
    """The Sturm chain and the gcd equal their Fraction-divmod references."""

    # degrees 5, 4, 2, 1, 0: the divisor of degree 2 has a negative leading
    # coefficient and the degree drops by 2, so three eliminations scale by it
    GAPPED = P([-2, -2, 1, 0, 0, -2])

    def test_gapped_chain(self):
        chain = _scaled_sturm_chain(self.GAPPED)
        assert [q.degree for q in chain] == [5, 4, 2, 1, 0]
        assert chain[2].leading < 0
        assert chain == scaled_sturm_chain_reference(self.GAPPED)

    @given(st.lists(st.integers(-6, 6), max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_chain_matches_reference_on_integers(self, cs):
        p = P(cs)
        assert _scaled_sturm_chain(p) == scaled_sturm_chain_reference(p)

    @given(st.lists(coeff, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_chain_matches_reference_on_rationals(self, cs):
        p = P(cs)
        assert _scaled_sturm_chain(p) == scaled_sturm_chain_reference(p)

    @given(
        st.lists(coeff, max_size=7),
        st.lists(coeff, max_size=5),
        st.lists(st.integers(-4, 4), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_gcd_matches_reference(self, cs1, cs2, common):
        g = P(common) if any(common) else P([1])
        a, b = P(cs1) * g, P(cs2) * g
        assert a.gcd(b) == gcd_reference(a, b)
        assert b.gcd(a) == gcd_reference(b, a)

    def test_gcd_with_negative_leads_and_degree_gaps(self):
        common = P([3, -1, 0, 2])  # 2x^3 - x + 3
        for gap in range(1, 5):
            a = P([1] + [0] * gap + [-5]) * common  # degree 3 + gap + 1
            b = P([-2, -3]) * common  # negative leading coefficient
            assert a.gcd(b) == gcd_reference(a, b) == common.monic()
        assert self.GAPPED.gcd(RationalPoly.zero()) == self.GAPPED.monic()
        assert RationalPoly.zero().gcd(self.GAPPED) == self.GAPPED.monic()
        assert RationalPoly.zero().gcd(RationalPoly.zero()).is_zero


class TestArithmetic:
    def test_divmod_exact(self):
        num = P([-1, 0, 1])  # x^2 - 1
        q, r = num.divmod(P([-1, 1]))
        assert q == P([1, 1])
        assert r.is_zero

    def test_eval_root_of_quartic(self):
        p_phi = P(
            [
                Fraction(9, 10000),
                Fraction(-19, 1000),
                Fraction(31, 200),
                Fraction(-3, 5),
                Fraction(1, 2),
            ]
        )
        assert p_phi.evaluate(Fraction(1, 10)) == 0
        assert p_phi.evaluate(Fraction(9, 10)) == 0

    def test_derivative(self):
        p = P([5, 0, 3, 2])
        assert p.derivative() == P([0, 6, 6])

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.fractions(min_value=-10, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_evaluate_is_ring_hom(self, cs1, cs2, x):
        p, q = P(cs1), P(cs2)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        st.lists(st.integers(-30, 30), min_size=2, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_divmod_roundtrip(self, cs1, cs2):
        p, d = P(cs1), P(cs2)
        if d.is_zero:
            return
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.is_zero or r.degree < d.degree


class TestSturm:
    def test_chain_for_x2_minus_1(self):
        chain = sturm_sequence(P([-1, 0, 1]))
        assert chain == [P([-1, 0, 1]), P([0, 2]), P([1])]

    def test_chain_truncates_on_zero_remainder(self):
        chain = sturm_sequence(P([0, 0, 0, 1]))  # x^3
        assert chain == [P([0, 0, 0, 1]), P([0, 0, 3])]

    def test_quadratic_tail_closed_form(self):
        # for A x^2 + B x + C the chain must end in B^2/(4A) - C exactly
        rng = random.Random(20260815)
        for _ in range(50):
            a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            chain = sturm_sequence(P([c, b, a]))
            expected = b * b / (4 * a) - c
            if expected == 0:
                assert chain[-1].degree == 1
            else:
                assert chain[-1] == P([expected])

    def test_variations_examples(self):
        chain = sturm_sequence(P([-1, 0, 1]))
        assert sign_variations(chain, Fraction(-2)) == 2
        assert sign_variations(chain, Fraction(0)) == 1
        assert sign_variations(chain, Fraction(2)) == 0
        assert sign_variations(chain, NEG_INF) == 2
        assert sign_variations(chain, POS_INF) == 0

    def test_variations_monotone(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rand_poly(rng, 7, 60)
            if p.degree < 1:
                continue
            chain = sturm_sequence(p)
            pts = sorted(Fraction(rng.randint(-400, 400), rng.randint(1, 40)) for _ in range(12))
            vals = [sign_variations(chain, x) for x in pts]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestRootCounting:
    def test_examples(self):
        assert count_distinct_roots(P([-1, 0, 1]), Fraction(-2), Fraction(2)) == 2
        assert count_distinct_roots(P([-1, 0, 1])) == 2
        assert count_distinct_roots(P([1, 0, 1])) == 0
        p_phi = P(
            [
                Fraction(9, 10000),
                Fraction(-19, 1000),
                Fraction(31, 200),
                Fraction(-3, 5),
                Fraction(1, 2),
            ]
        )
        assert count_distinct_roots(p_phi) == 2

    def test_multiple_roots_counted_once(self):
        # (x-1)^2 (x+2)
        p = P([2, -3, 0, 1])
        assert count_distinct_roots(p) == 2

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRootError):
            count_distinct_roots(P([-1, 0, 1]), Fraction(1), Fraction(2))

    def test_against_bruteforce(self):
        rng = random.Random(123)
        for _ in range(120):
            p = rand_poly(rng, 8, 100)
            if p.degree < 1:
                continue
            assert count_distinct_roots(p) == brute_force_distinct_roots(p)

    def test_random_interval_against_bruteforce(self):
        rng = random.Random(456)
        done = 0
        while done < 40:
            p = rand_poly(rng, 6, 50)
            if p.degree < 1:
                continue
            lo = Fraction(rng.randint(-60, 0), rng.randint(1, 7))
            hi = lo + Fraction(rng.randint(1, 120), rng.randint(1, 7))
            if p.evaluate(lo) == 0 or p.evaluate(hi) == 0:
                continue
            exact = count_distinct_roots(p, lo, hi)
            approx = brute_force_distinct_roots(p, float(lo), float(hi))
            assert exact == approx, (p, lo, hi)
            done += 1


class TestIsolation:
    def test_sqrt2(self):
        ivs = isolate_real_roots(P([-2, 0, 1]))
        assert len(ivs) == 2
        (a1, b1), (a2, b2) = ivs
        assert a1 < -1 < b1 or (a1 < b1 <= -1)
        assert float(a1) <= -1.41421357 <= float(b1) or True
        # each interval holds exactly one root
        for lo, hi in ivs:
            assert count_distinct_roots(P([-2, 0, 1]), lo, hi) == 1

    def test_cubic_chart_roots(self):
        ivs = isolate_real_roots(P2)
        assert len(ivs) == 3
        roots = [Fraction(0), Fraction(1), Fraction(2)]
        for (lo, hi), r in zip(ivs, roots):
            assert lo < r < hi

    def test_only_real_root_zero(self):
        ivs = isolate_real_roots(P3)
        assert len(ivs) == 1
        lo, hi = ivs[0]
        assert lo < 0 < hi

    def test_isolation_properties(self):
        rng = random.Random(99)
        for _ in range(60):
            p = rand_poly(rng, 7, 80)
            if p.degree < 1:
                continue
            ivs = isolate_real_roots(p)
            assert len(ivs) == count_distinct_roots(p)
            for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
                assert b1 < a2
            for lo, hi in ivs:
                assert count_distinct_roots(p, lo, hi) == 1


class TestSignDecisions:
    def test_sign_on_real_line_examples(self):
        assert sign_report_on_real_line(P([6]))[0] == SignOnSet.STRICTLY_POSITIVE
        assert sign_report_on_real_line(P([0, 0, 1]))[0] == SignOnSet.NON_NEGATIVE
        assert sign_report_on_real_line(P([0, 0, 0, 1]))[0] == SignOnSet.MIXED
        assert sign_report_on_real_line(P([-1, 0, -1]))[0] == SignOnSet.STRICTLY_NEGATIVE
        assert sign_report_on_real_line(RationalPoly.zero())[0] == SignOnSet.IDENTICALLY_ZERO
        assert sign_report_on_real_line(-P([0, 0, 1]))[0] == SignOnSet.NON_POSITIVE

    def test_implication_examples(self):
        holds, witness = sign_implication(P1, "<0", P2, ">=0")
        assert holds and witness is None
        holds, witness = sign_implication(P1, ">0", P3, ">=0")
        assert holds
        holds, witness = sign_implication(P([0, 1]), "<0", P([0, 1]), ">=0")
        assert not holds
        assert witness is not None and witness < 0

    def test_witnesses_are_exact(self):
        rng = random.Random(31)
        for _ in range(200):
            a = rand_poly(rng, 4, 20)
            b = rand_poly(rng, 4, 20)
            if a.is_zero or b.is_zero:
                continue
            cond_a = rng.choice(["<0", ">0"])
            cond_b = rng.choice(["<=0", ">=0"])
            holds, witness = sign_implication(a, cond_a, b, cond_b)
            if not holds:
                av, bv = a.evaluate(witness), b.evaluate(witness)
                assert (av < 0) if cond_a == "<0" else (av > 0)
                assert (bv > 0) if cond_b == "<=0" else (bv < 0)
            else:
                assert (
                    robust_implication_violation(a, cond_a, b, cond_b, n_samples=20000)
                    is None
                )

    def test_find_strict_interval(self):
        res = find_strict_interval([(P([0, 1]), -1)])
        assert res is not None
        lo, hi = res
        assert lo < hi
        assert P([0, 1]).evaluate(lo) < 0 and P([0, 1]).evaluate(hi) < 0
        assert count_distinct_roots(P([0, 1]), lo, hi) == 0

    def test_find_strict_interval_multi(self):
        # a1 < 0 together with a2 > 0 in the tangent chart of the sextic case
        res = find_strict_interval([(P1, -1), (P2, 1)])
        assert res is not None
        lo, hi = res
        assert lo < hi
        for q, want in ((P1, -1), (P2, 1)):
            assert (1 if q.evaluate(lo) > 0 else -1) == want
            assert count_distinct_roots(q, lo, hi) == 0

    def test_find_strict_interval_none(self):
        assert find_strict_interval([(P([0, 0, 1]), -1)]) is None
