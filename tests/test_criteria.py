"""Criterion engine: verdicts, witnesses, feasibility, and obstructions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abelcycles.abel import FactoredAbel
from abelcycles.criteria import (
    _root_product,
    Bound,
    Branch,
    CriterionVerdict,
    Outcome,
    StrictnessEvidence,
    Witness,
    best_over_etas,
    check_at_most_one,
    check_definite_a2,
    check_no_cycle,
    check_normalized,
    check_planar_at_most_one,
    check_planar_no_cycle,
    circle_implication,
    circle_strict_interval,
    definite_combination_feasible,
    eta_candidates,
    linear_parameter_feasible,
    obstruction_report,
)
from abelcycles.planar import HomogeneousSystem, cherkas_transform
from abelcycles.poly import (
    RationalPoly,
    SignOnSet,
    sign_report_on_real_line,
    sign_set_from_flags,
)
from abelcycles.trig import (
    CircleChart,
    SignReport,
    TrigPoly,
    TrigRational,
    cancel_pole_combination,
    definite_sign_report,
    has_odd_order_pole,
)

from data import (
    EX1_A1,
    EX1_A2,
    EX1_B2,
    EX1_COMBINATION,
    EX1_ETA,
    EX2_A,
    EX2_N,
    EX2_P3_TERMS,
    EX2_Q3_TERMS,
    random_instance,
)
from identities import (
    chart_sign,
    find_strict_interval,
    sign_implication,
    sylvester_resultant,
    witness_sign,
)

EX1_FACTORED = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2)
EX2_SYSTEM = HomogeneousSystem.of(EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)


def constant_factored(a1c, a2c, b2c) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c), TrigPoly.constant(a2c), TrigRational.constant(b2c)
    )


def condition_two(f: FactoredAbel, eta) -> TrigRational:
    a1r = TrigRational.from_poly(f.a1)
    tail = TrigRational.from_poly(f.a1.derivative()).scale(eta)
    return (a1r * f.b2 - f.a2 + tail).reduced()


def assert_witness_violates(f: FactoredAbel, eta, w: Witness):
    """Re-evaluate a factored-criterion witness exactly: the premise must be
    active and the conclusion must break the non-strict sign in the
    condition string."""
    if w.condition.startswith("a1 < 0"):
        premise_sign = -1
    elif w.condition.startswith("a1 > 0"):
        premise_sign = 1
    else:
        raise AssertionError(f"unrecognized condition {w.condition!r}")
    conclusion = f.a2 if "implies a2" in w.condition else condition_two(f, eta)
    violated_sign = 1 if "<= 0" in w.condition else -1
    assert witness_sign(f.a1, w) == premise_sign
    assert witness_sign(conclusion, w) == violated_sign


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def trig_polys(max_power=2, max_terms=2):
    term = st.tuples(st.integers(0, max_power), st.integers(0, max_power), small_fracs)
    return st.lists(term, min_size=0, max_size=max_terms).map(TrigPoly.from_terms)


def random_homogeneous(rng: random.Random) -> HomogeneousSystem:
    n = rng.choice([2, 3])
    coeffs = lambda: {
        (i, n - i): F(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(n + 1)
    }
    a = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
    return HomogeneousSystem.of(a, n, coeffs(), coeffs())


class TestFactoredCriteria:
    def test_gallery_at_most_one_holds(self):
        v = check_at_most_one(EX1_FACTORED, EX1_ETA)
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.AT_MOST_ONE
        assert v.branch is Branch.POSITIVE
        assert v.eta == EX1_ETA
        ev = v.strictness
        assert ev is not None and ev.lo < ev.hi
        mid = (ev.lo + ev.hi) / 2
        assert chart_sign(EX1_A1, ev.chart, mid) == -1
        assert chart_sign(EX1_A2, ev.chart, mid) == 1

    def test_gallery_no_cycle_fails_with_checkable_witnesses(self):
        v = check_no_cycle(EX1_FACTORED, EX1_ETA)
        assert v.outcome is Outcome.FAILS
        assert v.witnesses
        for w in v.witnesses:
            assert_witness_violates(EX1_FACTORED, EX1_ETA, w)

    def test_gallery_zero_multiplier_keeps_odd_pole(self):
        v = check_at_most_one(EX1_FACTORED, 0)
        assert v.outcome is Outcome.INAPPLICABLE
        assert "odd-order pole" in v.notes

    def test_gallery_definite_a2_fails(self):
        v = check_definite_a2(EX1_FACTORED)
        assert v.outcome is Outcome.FAILS
        signs = {witness_sign(EX1_FACTORED.a2, w) for w in v.witnesses}
        assert signs == {1, -1}

    def test_definite_a2_holds_on_one_signed_data(self):
        f = FactoredAbel.from_parts(
            TrigPoly.constant(1),
            TrigPoly.constant(1) + TrigPoly.coswave(2),
            TrigRational.constant(1),
        )
        v = check_definite_a2(f)
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.AT_MOST_ONE
        assert v.branch is Branch.POSITIVE

    def test_constant_no_cycle_holds(self):
        v = check_no_cycle(constant_factored(1, -1, 1))
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.NO_CYCLE
        assert v.branch is Branch.POSITIVE

    def test_constant_at_most_one_fails_with_witness(self):
        f = constant_factored(1, 2, 1)
        v = check_at_most_one(f)
        assert v.outcome is Outcome.FAILS
        for w in v.witnesses:
            assert_witness_violates(f, 0, w)

    def test_constant_at_most_one_holds(self):
        v = check_at_most_one(constant_factored(1, -2, 1))
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.AT_MOST_ONE

    def test_riccati_data_routed_away(self):
        f = constant_factored(1, 0, 1)
        assert check_no_cycle(f).outcome is Outcome.INAPPLICABLE
        assert check_at_most_one(f).outcome is Outcome.INAPPLICABLE

    def test_zero_b2_excluded_from_uniqueness_criterion(self):
        f = FactoredAbel.from_parts(
            TrigPoly.constant(1), TrigPoly.sinwave(), TrigRational.zero()
        )
        v = check_at_most_one(f)
        assert v.outcome is Outcome.INAPPLICABLE
        assert "b2" in v.notes

    def test_negative_a1_component_note(self):
        v = check_no_cycle(constant_factored(-1, -2, 1))
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.NO_CYCLE
        assert "component" in v.notes
        w = check_at_most_one(constant_factored(-1, 1, 1))
        assert w.outcome is Outcome.HOLDS
        assert "components" in w.notes

    def test_negative_a1_needs_global_second_condition(self):
        # x' = x(-2x-1)(x+2) has a stable cycle at x = -2 inside the lower
        # component, and x' = x(x+1)(x+2) an unstable one: the restriction of
        # the second condition to {a1 > 0} is vacuous here and must instead
        # hold on the whole circle for the exclusion to be sound.
        for vals in [(-2, 1, -2), (-2, -1, 2)]:
            v = check_no_cycle(constant_factored(*vals))
            assert v.outcome is Outcome.FAILS, vals
            assert any("whole circle" in w.condition for w in v.witnesses)

    def test_negative_a1_neutral_curve_inapplicable(self):
        # a1*b2 - a2 vanishes identically: the curve x = 1/a1 is a neutral
        # cycle, so the no-cycle argument has nothing to repel with.
        v = check_no_cycle(constant_factored(-1, -1, 1))
        assert v.outcome is Outcome.INAPPLICABLE
        assert "neutral" in v.notes
        w = check_at_most_one(constant_factored(-1, 1, 1))
        assert w.outcome is Outcome.HOLDS

    @given(
        trig_polys(),
        trig_polys(),
        trig_polys(max_power=1, max_terms=1),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_branch_symmetry(self, a1, a2, b2p, eta):
        assume(not a1.is_zero)
        f = FactoredAbel.from_parts(a1, a2, b2p)
        g = FactoredAbel.from_parts(a1, -a2, -b2p)
        for checker in (check_no_cycle, check_at_most_one):
            v = checker(f, eta)
            w = checker(g, -eta)
            assert v.outcome is w.outcome
            if v.outcome is Outcome.HOLDS:
                assert v.bound is w.bound
                flipped = {Branch.POSITIVE: Branch.NEGATIVE, Branch.NEGATIVE: Branch.POSITIVE}
                assert w.branch is flipped[v.branch]

    @given(
        trig_polys(),
        trig_polys(),
        trig_polys(max_power=1, max_terms=1),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_failure_witness_revalidates(self, a1, a2, b2p, eta):
        assume(not a1.is_zero)
        f = FactoredAbel.from_parts(a1, a2, b2p)
        for checker in (check_no_cycle, check_at_most_one):
            v = checker(f, eta)
            if v.outcome is Outcome.FAILS and not v.witnesses:
                continue  # h sign-change witnesses use their own labels
            if v.outcome is Outcome.FAILS:
                for w in v.witnesses:
                    if w.condition.startswith("a1"):
                        assert_witness_violates(f, eta, w)
                    else:
                        # indefinite h: the two samples attain opposite signs
                        h = cancel_pole_combination(f.b2, f.a1, eta)
                        expect = 1 if "> 0" in w.condition else -1
                        assert witness_sign(h, w) == expect


class TestNormalizedCriterion:
    # each input is the normal form at b1 = 1 read back as a factored
    # equation: a1 = a1n, a2 = a2n and b2 = b2n + a1'/a1

    def test_gallery_identity_scaling_fails(self):
        v = check_normalized(EX1_FACTORED)
        assert v.outcome is Outcome.FAILS
        conditions = " | ".join(w.condition for w in v.witnesses)
        assert "a2" in conditions and "a1*a2" in conditions
        # the verdict is driven by sign changes: a2 and a1*a2 attain both signs
        a1a2 = TrigRational.from_poly(EX1_FACTORED.a1) * EX1_FACTORED.a2
        seen = {
            (w.condition, witness_sign(a1a2, w))
            for w in v.witnesses
            if w.condition.startswith("a1*a2")
        }
        assert {s for _, s in seen} == {1, -1}

    def test_constant_a2_holds(self):
        f = FactoredAbel.from_parts(
            TrigPoly.coswave(),
            1,
            TrigRational(-TrigPoly.sinwave(), TrigPoly.coswave()),
        )
        v = check_normalized(f)
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.AT_MOST_ONE
        assert "(ii)" in v.notes

    def test_eta_combination_route(self):
        f = FactoredAbel.from_parts(TrigPoly.constant(1), TrigPoly.coswave(), -1)
        v = check_normalized(f)
        assert v.outcome is Outcome.HOLDS
        assert "(i)" in v.notes
        assert v.eta == 0
        assert v.branch is Branch.NEGATIVE

    def test_opposite_products_route(self):
        f = FactoredAbel.from_parts(
            TrigPoly.sinwave(),
            TrigPoly.sinwave(),
            TrigRational(TrigPoly.coswave() - TrigPoly.sinwave(), TrigPoly.sinwave()),
        )
        v = check_normalized(f)
        assert v.outcome is Outcome.HOLDS
        assert "(iii)" in v.notes

    def test_pole_gate(self):
        f = FactoredAbel.from_parts(
            TrigPoly.constant(1),
            TrigRational(TrigPoly.constant(1), TrigPoly.coswave()),
            0,
        )
        v = check_normalized(f)
        assert v.outcome is Outcome.INAPPLICABLE
        assert "pole" in v.notes

    def test_certified_failure_of_all_three(self):
        f = FactoredAbel.from_parts(
            TrigPoly.constant(1),
            TrigPoly.from_terms([(1, 1, 1)]),
            TrigPoly.sinwave(),
        )
        v = check_normalized(f)
        assert v.outcome is Outcome.FAILS
        assert v.witnesses


class TestPlanarCriteria:
    def test_gallery_no_cycle_holds(self):
        v = check_planar_no_cycle(EX2_SYSTEM)
        assert v.outcome is Outcome.HOLDS
        assert v.bound is Bound.NO_CYCLE
        assert v.branch is Branch.POSITIVE
        assert v.strictness is not None

    def test_gallery_at_most_one_fails(self):
        v = check_planar_at_most_one(EX2_SYSTEM)
        assert v.outcome is Outcome.FAILS
        psi = EX2_SYSTEM.psi()
        omega = psi.scale(EX2_A) - EX2_SYSTEM.phi()
        for w in v.witnesses:
            assert witness_sign(psi, w) == -1
            assert witness_sign(omega, w) == -1

    def test_negated_trace_fails(self):
        flipped = HomogeneousSystem.of(-EX2_A, EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)
        v = check_planar_no_cycle(flipped)
        assert v.outcome is Outcome.FAILS
        assert v.witnesses

    def test_zero_trace_inapplicable(self):
        sys0 = HomogeneousSystem.of(F(0), EX2_N, EX2_P3_TERMS, EX2_Q3_TERMS)
        assert check_planar_no_cycle(sys0).outcome is Outcome.INAPPLICABLE

    def test_riccati_routes_inapplicable(self):
        radial = HomogeneousSystem.of(F(1), 3, {(3, 0): F(1)}, {(2, 1): F(1)})
        assert check_planar_no_cycle(radial).outcome is Outcome.INAPPLICABLE
        # P = (a x - y) g, Q = (x + a y) g forces a psi - phi = 0
        prop = HomogeneousSystem.of(
            F(1), 3, {(3, 0): F(1), (2, 1): F(-1)}, {(3, 0): F(1), (2, 1): F(1)}
        )
        v = check_planar_no_cycle(prop)
        assert v.outcome is Outcome.INAPPLICABLE
        assert "Riccati" in v.notes

    def test_one_signed_phi_example(self):
        cubed = HomogeneousSystem.of(F(1), 3, {(3, 0): F(1)}, {})
        v = check_planar_no_cycle(cubed)
        assert v.outcome is Outcome.HOLDS
        w = check_planar_at_most_one(cubed)
        assert w.outcome is Outcome.FAILS

    def test_negative_psi_needs_global_phi_sign(self):
        # psi = -1, phi = -1/4: dr/dtheta = (r - r^3/4)/(1 - r^2) keeps an
        # unstable cycle at r = 2, beyond the curve 1 + psi r^2 = 0, so the
        # vacuous psi > 0 premise cannot carry the exclusion on its own.
        p = {(3, 0): F(-1, 4), (1, 2): F(-1, 4), (2, 1): F(1), (0, 3): F(1)}
        q = {(0, 3): F(-1, 4), (2, 1): F(-1, 4), (3, 0): F(-1), (1, 2): F(-1)}
        sys = HomogeneousSystem.of(F(1), 3, p, q)
        assert definite_sign_report(sys.psi()).sign is SignOnSet.STRICTLY_NEGATIVE
        v = check_planar_no_cycle(sys)
        assert v.outcome is Outcome.FAILS
        assert "whole circle" in v.notes

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_transformed_equation(self, seed):
        rng = random.Random(seed)
        sys = random_homogeneous(rng)
        if sys.psi().is_zero or (sys.psi().scale(sys.a) - sys.phi()).is_zero:
            pytest.skip("degenerate angular data")
        f = cherkas_transform(sys)
        pairs = [
            (check_planar_no_cycle, check_no_cycle),
            (check_planar_at_most_one, check_at_most_one),
        ]
        for planar_check, factored_check in pairs:
            vp = planar_check(sys)
            vf = factored_check(f, F(-1))
            assert vp.outcome is vf.outcome, (sys, vp, vf)
            if vp.outcome is Outcome.HOLDS:
                assert vp.bound is vf.bound
                assert vp.branch is vf.branch

    def test_gallery_agreement_exact(self):
        f = cherkas_transform(EX2_SYSTEM)
        assert check_no_cycle(f, F(-1)).outcome is Outcome.HOLDS
        assert check_at_most_one(f, F(-1)).outcome is Outcome.FAILS


class TestObstructionReport:
    def test_gallery_all_five_hold(self):
        rep = obstruction_report(EX2_SYSTEM)
        assert [c.check for c in rep.checks] == [
            "chart_combination",
            "weighted_product",
            "parts_indefinite",
            "offset_combinations_indefinite",
            "product_parts_indefinite",
        ]
        assert rep.all_hold
        for c in rep.checks:
            assert c.holds is True

    def test_gallery_chart_combination_witness_structure(self):
        rep = obstruction_report(EX2_SYSTEM)
        cc = rep.checks[0]
        half = F(1, 2)
        inside = [
            w
            for w in cc.witnesses
            if w.interval is not None and -half <= w.interval[0] < w.interval[1] <= half
        ]
        assert inside, "expected an isolating interval within [-1/2, 1/2]"
        # the offset polynomial stays negative on [-1/2, 1/2]
        psi = EX2_SYSTEM.psi()
        m = EX2_N - 1
        omega2 = (psi.scale(2 * EX2_A) - EX2_SYSTEM.phi()).scale(m) + psi.derivative()
        p2, _ = omega2.tan_chart()
        from abelcycles.poly import count_distinct_roots

        assert count_distinct_roots(p2, -half, half) == 0
        assert p2.evaluate(F(0)) < 0

    def test_degenerate_first_part_flagged(self):
        sys = HomogeneousSystem.of(
            F(1), 3, {(3, 0): F(1), (2, 1): F(-1)}, {(3, 0): F(1), (2, 1): F(1)}
        )
        rep = obstruction_report(sys)
        assert not rep.all_hold
        by_id = {c.check: c for c in rep.checks}
        assert by_id["chart_combination"].holds is False
        assert by_id["parts_indefinite"].holds is False
        assert by_id["product_parts_indefinite"].holds is False

    def test_definite_part_defeats_combination_obstruction(self):
        sys = HomogeneousSystem.of(F(0), 3, {}, {(0, 3): F(1)})
        rep = obstruction_report(sys)
        by_id = {c.check: c for c in rep.checks}
        assert by_id["chart_combination"].holds is False
        assert "sign" in by_id["chart_combination"].note
        assert by_id["weighted_product"].holds is True
        assert not rep.all_hold


class TestEtaCandidates:
    def test_gallery_multiplier_found(self):
        cands = eta_candidates(EX1_FACTORED)
        assert F(-1) in cands
        h = cancel_pole_combination(EX1_B2, EX1_A1, F(-1))
        assert h.equals(TrigRational.constant(EX1_COMBINATION))

    def test_scaled_data_yields_scaled_multiplier(self):
        f = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2.scale(2))
        cands = eta_candidates(f)
        assert F(-2) in cands
        h = cancel_pole_combination(f.b2, f.a1, F(-2))
        assert h.equals(TrigRational.constant(2 * EX1_COMBINATION))

    def test_transformed_gallery_equation(self):
        f = cherkas_transform(EX2_SYSTEM)
        cands = eta_candidates(f)
        assert F(-1) in cands
        h = cancel_pole_combination(f.b2, f.a1, F(-1))
        assert h.equals(TrigRational.constant((EX2_N - 1) * EX2_A))

    def test_multiplier_found_only_after_the_half_turn(self):
        # a1 = 1 + cos t vanishes only at t = pi, which the half-angle chart
        # reads at u = infinity: only the half-turned pairs see the pole there
        a1 = TrigPoly.constant(1) + TrigPoly.coswave()
        b2 = TrigRational.constant(1) + TrigRational(a1.derivative(), a1).scale(2)
        f = FactoredAbel.from_parts(a1, TrigRational.constant(1), b2)
        assert F(-2) in eta_candidates(f)
        assert not has_odd_order_pole(cancel_pole_combination(b2, a1, F(-2)))


class TestBestOverEtas:
    @staticmethod
    def stub(outcomes):
        """A check returning outcomes[eta], and the list of etas it was asked."""
        asked = []

        def check(f, eta):
            asked.append(eta)
            outcome = outcomes[eta]
            bound = Bound.AT_MOST_ONE if outcome is Outcome.HOLDS else None
            return CriterionVerdict("stub", outcome, bound=bound, eta=eta, notes="stub")

        return check, asked

    def test_first_holds_ends_the_search(self):
        check, asked = self.stub(
            {F(-1): Outcome.FAILS, F(0): Outcome.HOLDS, F(1): Outcome.HOLDS}
        )
        v = best_over_etas(check, EX1_FACTORED, [F(-1), F(0), F(1)])
        assert v.outcome is Outcome.HOLDS and v.eta == F(0)
        assert asked == [F(-1), F(0)]

    def test_first_fails_beats_an_earlier_inapplicable(self):
        check, asked = self.stub(
            {F(-1): Outcome.INAPPLICABLE, F(0): Outcome.FAILS, F(1): Outcome.FAILS}
        )
        v = best_over_etas(check, EX1_FACTORED, [F(-1), F(0), F(1)])
        assert v.outcome is Outcome.FAILS and v.eta == F(0)
        assert asked == [F(-1), F(0), F(1)]

    def test_otherwise_the_first_verdict(self):
        check, _ = self.stub({F(-1): Outcome.INAPPLICABLE, F(0): Outcome.INAPPLICABLE})
        v = best_over_etas(check, EX1_FACTORED, [F(-1), F(0)])
        assert v.outcome is Outcome.INAPPLICABLE and v.eta == F(-1)

    def test_no_eta_is_an_error(self):
        check, _ = self.stub({})
        with pytest.raises(ValueError):
            best_over_etas(check, EX1_FACTORED, [])


def poly(*cs) -> RationalPoly:
    return RationalPoly.from_coeffs(cs)


def combination_feasible(pa, pb, planes, mu) -> bool:
    """pa + mu*pb >= 0 on all of R and every plane va + mu*vb >= 0, decided
    without the feasibility engine."""
    return all(va + mu * vb >= 0 for va, vb, _ in planes) and (
        sign_report_on_real_line(pa + pb.scale(mu))[0].is_nonnegative
    )


small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2), max_size=4
).map(RationalPoly.from_coeffs)
small_planes = st.lists(
    st.tuples(small_fracs, small_fracs, st.none()), max_size=2
)


def _from_roots(*roots) -> RationalPoly:
    out = RationalPoly.constant(1)
    for x in roots:
        out = out * RationalPoly.from_coeffs([-x, 1])
    return out


class TestRootProduct:
    """_root_product(c, f) is Res(c, f) / lc(c)^deg f, the product of f over
    the roots of c; it vanishes exactly when c and f share a root."""

    @pytest.mark.parametrize(
        "c,f,expected",
        [
            (_from_roots(1, 2), _from_roots(1), 0),
            (_from_roots(1, 1).scale(3), _from_roots(1), 0),
            (_from_roots(1, 2), _from_roots(3), 2),
            (_from_roots(1, 2, 3), _from_roots(2, 5), 0),
            (_from_roots(1, 2), RationalPoly.constant(4), 16),
        ],
    )
    def test_fixed_cases(self, c, f, expected):
        assert _root_product(c, f) == expected
        assert _root_product(c, f) == sylvester_resultant(c, f) / c.leading**f.degree

    @given(small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_sylvester_determinant(self, c, f):
        assume(c.degree > 0 and not f.is_zero)
        assert _root_product(c, f) == sylvester_resultant(c, f) / c.leading**f.degree


class TestFeasibilityEngine:
    def test_root_obstruction_certificate(self):
        # x + mu*x^2 is negative near the root 1 of (t-1) shifted: use
        # pa = t - 1 with pb = t^2 - 1: pa(-1) = -2 at the root -1 of pb
        pa = RationalPoly.from_coeffs([-1, 1])
        pb = RationalPoly.from_coeffs([-1, 0, 1])
        out = linear_parameter_feasible(pa, pb)
        assert out.status == "Infeasible"
        assert any(w.interval is not None for w in out.witnesses)

    def test_feasible_with_certificate_value(self):
        # 1 + mu*t^2 >= 0 for any mu >= 0
        out = linear_parameter_feasible(RationalPoly.from_coeffs([1]), RationalPoly.from_coeffs([0, 0, 1]))
        assert out.status == "Feasible"
        check = RationalPoly.from_coeffs([1]) + RationalPoly.from_coeffs([0, 0, 1]).scale(out.value)
        assert sign_report_on_real_line(check)[0].is_nonnegative

    def test_contradictory_planes(self):
        # t + mu >= 0 for all t is impossible
        out = linear_parameter_feasible(RationalPoly.from_coeffs([0, 1]), RationalPoly.from_coeffs([1]))
        assert out.status == "Infeasible"

    def test_a_single_feasible_point(self):
        # t^2 + (2 mu - 2/3) t >= 0 on R only for mu = 1/3
        out = linear_parameter_feasible(poly(0, F(-2, 3), 1), poly(0, 2))
        assert (out.status, out.value) == ("Feasible", F(1, 3))

    def test_a_shared_real_root_changes_sign_for_every_multiplier(self):
        # t^2 - 1 + mu (t - 1)^2 / 2 = (t - 1)(t + 1 + mu (t - 1)/2) changes
        # sign at t = 1, a root of both parts, which no root obstruction sees
        pa = poly(-1, 0, 1)
        pb = poly(F(1, 2), -1, F(1, 2))
        out = linear_parameter_feasible(pa, pb, [(F(1), F(1, 2), None)])
        assert out.status == "Infeasible"
        assert out.note

    def test_the_end_of_a_half_line_beyond_the_defaults(self):
        # -6 - 2t^2 - mu (1 + t^2)^2 / 2 >= 0 exactly for mu <= -12
        pa = poly(-6, 0, -2)
        pb = poly(F(-1, 2), 0, -1, 0, F(-1, 2))
        out = linear_parameter_feasible(pa, pb, [(F(0), F(-1, 2), None)])
        assert (out.status, out.value) == ("Feasible", F(-12))

    def test_a_plane_cuts_the_set_short_of_an_irrational_end(self):
        # t^2 + 2 + 2 mu t >= 0 exactly for |mu| <= sqrt(2)
        pa, pb = poly(2, 0, 1), poly(0, 2)
        out = linear_parameter_feasible(pa, pb, [(F(-7, 5), F(1), None)])
        assert (out.status, out.value) == ("Feasible", F(7, 5))
        out = linear_parameter_feasible(pa, pb, [(F(-3, 2), F(1), None)])
        assert out.status == "Infeasible"

    @given(small_polys, small_polys, small_planes)
    @settings(max_examples=60, deadline=None)
    def test_decisions_are_exact(self, pa, pb, planes):
        out = linear_parameter_feasible(pa, pb, planes)
        assert out.status in ("Feasible", "Infeasible")
        if out.status == "Feasible":
            assert combination_feasible(pa, pb, planes, out.value)
        else:
            grid = {F(p, q) for p in range(-12, 13) for q in (1, 2, 3)}
            assert not any(combination_feasible(pa, pb, planes, mu) for mu in grid)

    @given(
        small_polys,
        small_polys,
        st.fractions(min_value=-20, max_value=20, max_denominator=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_planted_multiplier_is_always_found(self, s, pb, mu0):
        # pa = s^2 - mu0 pb makes mu0 feasible, so the answer must be Feasible
        pa = s * s - pb.scale(mu0)
        out = linear_parameter_feasible(pa, pb)
        assert out.status == "Feasible"
        assert combination_feasible(pa, pb, (), out.value)

    def test_combination_on_circle(self):
        base = TrigRational.constant(1)
        mult = TrigRational.from_poly(TrigPoly.coswave())
        out = definite_combination_feasible(base, mult, 1)
        assert out.status == "Feasible"
        got = TrigRational.constant(1) + mult.scale(out.value)
        assert definite_sign_report(got).sign.is_nonnegative

    def test_combination_infeasible_on_circle(self):
        # sin + mu*sin*cos changes sign for every mu
        base = TrigRational.from_poly(TrigPoly.sinwave())
        mult = TrigRational.from_poly(TrigPoly.from_terms([(1, 1, 1)]))
        out = definite_combination_feasible(base, mult, 1)
        assert out.status == "Infeasible"

    def test_a_polynomial_is_read_as_a_pole_free_rational(self):
        # the combination test skips the pole check on a TrigPoly, and reads
        # the same half-angle pair and value at pi as the rational route
        one_plus = RationalPoly.from_coeffs([1, 0, 1])
        at_pi = (F(-1), F(0))
        for seed in range(40):
            f = random_instance(random.Random(seed))
            p, q = f.a1 * f.a2.num, f.a1 * f.b2.num
            r = TrigRational.from_poly(p)
            assert r.pole_free()
            n, k = p.half_angle_chart()
            pp, qq = r.half_angle_pair()
            assert qq == one_plus ** (qq.degree // 2)
            assert pp * one_plus ** k == n * qq
            assert r.reduced().eval_at(*at_pi) == p.eval_at(*at_pi)
            assert definite_combination_feasible(p, q, -1) == definite_combination_feasible(
                r, TrigRational.from_poly(q), -1
            )


class TestVerdictModel:
    def test_holds_requires_bound(self):
        with pytest.raises(ValueError):
            CriterionVerdict("x", Outcome.HOLDS)

    def test_fails_requires_witness_or_note(self):
        with pytest.raises(ValueError):
            CriterionVerdict("x", Outcome.FAILS)
        CriterionVerdict("x", Outcome.FAILS, notes="explained")

    def test_strictness_interval_must_have_length(self):
        with pytest.raises(ValueError):
            StrictnessEvidence("c", "tan", F(1), F(1))

    def test_json_shape(self):
        v = check_at_most_one(EX1_FACTORED, EX1_ETA)
        data = v.to_json()
        assert data["criterion"] == "at_most_one"
        assert data["outcome"] == "Holds"
        assert data["bound"] == "AtMostOne"
        assert data["branch"] == "PositiveBranch"
        assert data["eta"] == "-1/1"
        assert data["strictness_evidence"]["interval"]
        lo, hi = data["strictness_evidence"]["theta_interval"]
        assert lo < hi

    def test_witness_json_carries_exact_sample(self):
        v = check_no_cycle(EX1_FACTORED, EX1_ETA)
        blob = v.to_json()
        assert blob["witnesses"]
        for w in blob["witnesses"]:
            assert w["chart"] in ("tan", "tan2", "half", "point")
            assert "theta" in w


# --- the circle sign walks against the piece-then-point references ----------


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def _proxy(f) -> TrigPoly:
    return f.sign_proxy() if isinstance(f, TrigRational) else f


def implication_reference(premise, prem_dir, conclusion, concl_dir, condition=""):
    """circle_implication as a real-line implication on each chart piece,
    then a check of each missed point."""
    chart = CircleChart((premise, conclusion))
    cond_a = "<0" if prem_dir < 0 else ">0"
    cond_b = ">=0" if concl_dir > 0 else "<=0"
    for name, (pp, pc) in chart.pieces:
        holds, sample = sign_implication(pp, cond_a, pc, cond_b, chart.cells)
        if not holds:
            return False, Witness(condition, name, point=sample)
    for circle, (vp, vc) in chart.points:
        if vp * prem_dir > 0 and vc * concl_dir < 0:
            return False, Witness(condition, "point", circle=circle)
    return True, None


def strict_interval_reference(constraints, condition=""):
    """circle_strict_interval as a real-line search on each chart piece."""
    chart = CircleChart([f for f, _ in constraints])
    dirs = [d for _, d in constraints]
    for name, proxies in chart.pieces:
        got = find_strict_interval(list(zip(proxies, dirs)), chart.cells)
        if got is not None:
            return StrictnessEvidence(condition, name, got[0], got[1])
    return None


def sign_report_reference(f: TrigPoly) -> SignReport:
    """The sign report of f read off the real-line report of the first
    chart piece: a 'tan2' piece has its samples with the signs flipped, and
    the missed points come last."""
    if f.is_zero:
        return SignReport(SignOnSet.IDENTICALLY_ZERO)
    chart = CircleChart((f,))
    name, (p,) = chart.pieces[0]
    s_open, pos, neg = sign_report_on_real_line(p)
    samples = [(1, name, pos), (-1, name, neg)]
    if len(chart.pieces) == 2:
        samples += [(-1, "tan2", pos), (1, "tan2", neg)]
    points = [(_sgn(v), "point", circle) for circle, (v,) in chart.points]
    pos_at, neg_at = (
        next(((c, x) for s, c, x in samples + points if s == want and x is not None), None)
        for want in (1, -1)
    )
    has_zero = not s_open.is_strict or any(s == 0 for s, _, _ in points)
    return SignReport(
        sign_set_from_flags(pos_at is not None, has_zero, neg_at is not None), pos_at, neg_at
    )


ONE, COS, SIN = TrigPoly.constant(1), TrigPoly.coswave(), TrigPoly.sinwave()


@st.composite
def circle_functions(draw):
    """A trig polynomial, or a rational, for the sign walks. Parity-pure
    draws are read in the tangent chart, with a 'tan2' piece at odd degree;
    an empty term list is the zero function; a factor cos t or 1 + cos t
    puts a zero on a point that the tangent or the half-angle chart misses."""
    parity = draw(st.sampled_from([0, 1, None]))
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))

    def poly():
        terms = draw(st.lists(term, max_size=4))
        if parity is not None:
            terms = [(i + (i + j + parity) % 2, j, c) for i, j, c in terms]
        return TrigPoly.from_terms(terms)

    f = poly() * draw(st.sampled_from([ONE, COS, ONE + COS]))
    if draw(st.booleans()):
        den = poly()
        if not den.is_zero:
            return TrigRational(f, den)
    return f


class TestCircleSignWalks:
    @settings(max_examples=150, deadline=None)
    @given(
        circle_functions(),
        circle_functions(),
        st.sampled_from([-1, 1]),
        st.sampled_from([-1, 1]),
    )
    @example(TrigPoly.zero(), SIN, 1, -1)  # an identically zero proxy
    @example(SIN, COS * SIN, -1, 1)  # parity-pure, odd: a 'tan2' flip
    @example(ONE + COS, TrigRational(SIN, COS), 1, 1)  # zero at t = pi
    @example(COS, SIN, 1, -1)  # zero at the missed point t = pi/2
    def test_walks_match_the_piece_then_point_references(self, f, g, d1, d2):
        for a, da, b, db in ((f, d1, g, d2), (g, d2, f, d1)):
            assert repr(circle_implication(a, da, b, db, "c")) == repr(
                implication_reference(a, da, b, db, "c")
            )
        for constraints in ([(f, d1)], [(g, d2)], [(f, d1), (g, d2)]):
            assert repr(circle_strict_interval(constraints, "c")) == repr(
                strict_interval_reference(constraints, "c")
            )
        for h in (f, g):
            assert repr(definite_sign_report(h)) == repr(sign_report_reference(_proxy(h)))
