"""Displacement-map oracle: integrator accuracy, cycle counting, invariance."""

import csv
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcycles import oracle
from abelcycles.abel import AbelEquation, FactoredAbel, RegionKind, classify_region
from abelcycles.oracle import (
    BISECTION_WIDTH,
    BLOWUP_REASON,
    CubicField,
    DisplacementSample,
    IntegratorConfig,
    component_grid,
    count_cycles_in_V,
    displacement_map,
    graded_grid,
    write_displacement_csv,
)
from abelcycles.planar import HomogeneousSystem, cherkas_transform
from abelcycles.trig import TrigPoly, TrigRational

from data import EX1_A1, EX1_A2, EX1_B2, family_member, random_instance
from oracles import family_flow, stability_integral, verify_invariance

CFG = IntegratorConfig()

EX1 = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2)


def constants(a1c, a2c, b2c) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c), TrigRational.constant(a2c), TrigRational.constant(b2c)
    )


def near_constant(e, d) -> FactoredAbel:
    """a1 = 1, a2 = 3/2 + e sin t, b2 = 1 + d cos t: one cycle near x = 2/3."""
    return FactoredAbel.from_parts(
        TrigPoly.constant(1),
        TrigRational.from_poly(TrigPoly.constant(Fraction(3, 2)) + TrigPoly.sinwave(1, e)),
        TrigRational.from_poly(TrigPoly.constant(1) + TrigPoly.coswave(1, d)),
    )


def linear_equation() -> AbelEquation:
    return AbelEquation.from_coefficients(
        TrigRational.constant(1), TrigRational.zero(), TrigRational.zero()
    )


class TestIntegrator:
    def test_linear_growth_matches_exp(self):
        field = CubicField(linear_equation())
        x, _, esc, _ = oracle._integrate_batch(field, 0.0, 1.0, [1.0], CFG)
        assert not esc[0]
        assert abs(x[0] - math.e) < 1e-8

    def test_tolerance_halving_improves_accuracy(self):
        # over [0, 5]: on [0, 1] the largest step caps the solve at 20 steps,
        # and both tolerances reach the rounding floor there
        loose = IntegratorConfig(rtol=1e-6, atol=1e-8)
        tight = IntegratorConfig(rtol=1e-12, atol=1e-14)
        field = CubicField(linear_equation())
        exact = math.exp(5.0)
        err_loose = abs(oracle._integrate_batch(field, 0.0, 5.0, [1.0], loose)[0][0] - exact)
        err_tight = abs(oracle._integrate_batch(field, 0.0, 5.0, [1.0], tight)[0][0] - exact)
        assert err_tight < err_loose
        assert err_tight < 1e-10

    def test_autonomous_cubic_moves_up_from_half(self):
        # x' = x (1 - x^2) pushes (0, 1) upward, so d(0.5) > 0
        f = constants(1, -1, 1)
        x, _, esc, _ = oracle._integrate_batch(
            CubicField(f), 0.0, f.period.value_float, [0.5], CFG
        )
        assert not esc[0]
        assert x[0] - 0.5 > 0.1

    def test_zero_is_fixed_exactly(self):
        for f in (EX1, constants(1, 2, 1), constants(-1, 1, 1)):
            s = displacement_map(f, [0.0], CFG)[0]
            assert s.d == 0.0

    def test_escape_is_flagged_not_raised(self):
        # riding the a1 curve of the gallery instance into the blow-up
        x0 = 1.0 / EX1_A1.evaluate_float(math.pi / 4)
        _, _, esc, reasons = oracle._integrate_batch(
            CubicField(EX1), math.pi / 4, math.pi, [x0], CFG
        )
        assert esc[0]
        assert reasons[0]

    def test_initial_condition_beyond_the_window(self):
        field = CubicField(linear_equation())
        x, _, esc, reasons = oracle._integrate_batch(field, 0.0, 1.0, [2e6, 1.0], CFG)
        assert esc.tolist() == [True, False]
        assert reasons == ["initial condition beyond x_max", ""]
        assert abs(x[1] - math.e) < 1e-8

    def test_leaving_the_window(self):
        # x' = x takes 1e5 past X_MAX = 1e6 after ln 10 < period
        field = CubicField(linear_equation())
        assert 1e5 * math.exp(field.period) > oracle.X_MAX
        x, z, esc, reasons = oracle._integrate_batch(
            field, 0.0, field.period, [1e5, 1.0], CFG
        )
        assert esc.tolist() == [True, False]
        assert reasons == ["left the x_max window", ""]
        assert abs(x[1] - math.exp(field.period)) < 1e-8 * math.exp(field.period)
        assert abs(z[1] - math.exp(field.period)) < 1e-8 * math.exp(field.period)

    def test_step_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STEPS", 3)
        field = CubicField(linear_equation())
        _, _, esc, reasons = oracle._integrate_batch(
            field, 0.0, field.period, [1.0, 2.0], CFG
        )
        assert esc.tolist() == [True, True]
        assert reasons == ["step budget exhausted"] * 2

    def test_escaped_sample_leaves_the_others_unchanged(self):
        def bits(samples):
            return [(s.x0.hex(), s.d.hex(), s.dprime.hex(), s.escaped) for s in samples]

        f = constants(1, 2, 1)
        with_far = displacement_map(f, [0.3, 2e6, 0.7], CFG)
        without = displacement_map(f, [0.3, 0.7], CFG)
        far = with_far[1]
        assert far.escaped and math.isnan(far.d) and math.isnan(far.dprime)
        assert bits([with_far[0], with_far[2]]) == bits(without)
        assert not any(s.escaped for s in without)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_tolerances(self, tol):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=tol)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=tol)


def one_vs_batch(field, t0, t1, x0, cfg=CFG):
    """_integrate_one from x0, asserted bitwise equal to a batch of one in
    x, z, the escape flag and its reason."""
    xb, zb, eb, rb = oracle._integrate_batch(field, t0, t1, [x0], cfg)
    x, z, escaped, reason = oracle._integrate_one(field, t0, t1, x0, cfg)
    assert type(x) is float and type(z) is float
    assert (x.hex(), z.hex(), escaped, reason) == (
        float(xb[0]).hex(), float(zb[0]).hex(), bool(eb[0]), rb[0]
    )
    return x, z, escaped, reason


@functools.lru_cache(maxsize=None)
def gate6_component(draw: int, k: int):
    f = gate6_draws(draw + 1)[draw]
    comps = oracle.fiber_components(f)[0]
    _, eq, lo, hi = comps[k % len(comps)]
    return CubicField(eq), lo, hi


class TestScalarKernel:
    """_integrate_one is _integrate_batch for one sample in Python floats:
    bitwise the same x, z, escape flag and reason, on every escape path."""

    @settings(max_examples=40, deadline=None)
    @given(draw=st.integers(0, 29), k=st.integers(0, 1), u=st.floats(0.0, 1.0))
    def test_equals_a_batch_of_one_on_gate6_draws(self, draw, k, u):
        field, lo, hi = gate6_component(draw, k)
        one_vs_batch(field, 0.0, field.period, lo + (hi - lo) * u)

    def test_initial_condition_beyond_the_window(self):
        field = CubicField(linear_equation())
        assert one_vs_batch(field, 0.0, 1.0, 2e6)[2:] == (True, "initial condition beyond x_max")

    def test_leaving_the_window(self):
        field = CubicField(linear_equation())
        assert one_vs_batch(field, 0.0, field.period, 1e5)[2:] == (True, "left the x_max window")

    def test_step_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STEPS", 3)
        field = CubicField(linear_equation())
        assert one_vs_batch(field, 0.0, field.period, 1.0)[2:] == (True, "step budget exhausted")

    def test_step_size_underflow(self, monkeypatch):
        # the first step, h_max/8 = 1.25, is already at MIN_STEP, and x' = x
        # misses the tolerance on it
        monkeypatch.setattr(oracle, "MIN_STEP", 1.25)
        field = CubicField(linear_equation())
        assert one_vs_batch(field, 0.0, 200.0, 1.0)[2:] == (
            True, "step-size underflow (blow-up or stiffness)"
        )

    def test_comparison_bound(self):
        # x' = x^3/2: from 1/sqrt(0.5 * 8 arcs) the bound does not fire at
        # the start, only on the way up; in the y = a1 x chart of
        # (-2, -1, 0) it fires at the start
        half = TrigRational.constant(Fraction(1, 2))
        field = CubicField(
            AbelEquation.from_coefficients(TrigRational.zero(), TrigRational.zero(), half)
        )
        x0 = 1.0 / math.sqrt(0.5 * 8 * oracle._ARC)
        assert x0 < field.reach(0.0, field.period)
        assert one_vs_batch(field, 0.0, field.period, x0)[2:] == (True, BLOWUP_REASON)
        for _, eq, lo, hi in oracle.fiber_components(constants(-2, -1, 0))[0]:
            field = CubicField(eq)
            x0 = graded_grid(lo, hi, 1)[0]
            assert abs(x0) > field.reach(0.0, field.period)
            assert one_vs_batch(field, 0.0, field.period, x0)[2:] == (True, BLOWUP_REASON)

    def test_pole_guard(self):
        # a1 = 1/2 + cos t vanishes at t = 2 pi/3, a pole of C1 = b2 - a1'/a1;
        # the step shrinks by quarters until it is below MIN_STEP
        f = FactoredAbel.from_parts(
            TrigPoly.constant(Fraction(1, 2)) + TrigPoly.coswave(1, 1),
            TrigRational.constant(1),
            TrigRational.constant(1),
        )
        ((_, eq, lo, hi),) = oracle.fiber_components(f)[0]
        field = CubicField(eq)
        for x0 in (0.1, 0.5):
            _, _, escaped, reason = one_vs_batch(field, 0.0, field.period, x0)
            assert escaped and reason.startswith("coefficient denominator below guard")

    def test_bounded_solves(self):
        for f in (EX1, constants(1, 2, 1), constants(-1, 1, 1)):
            field = CubicField(f)
            for x0 in (0.0, 0.25, -0.5):
                one_vs_batch(field, 0.0, field.period, x0)
        assert one_vs_batch(CubicField(EX1), 1.0, 1.0, 0.3) == (0.3, 1.0, False, "")


class TestTableau:
    """The DOP853 literals: each row of A sums to its node, the weights
    integrate c^k exactly up to order 8, and both error weights vanish on a
    constant derivative."""

    def test_row_sums_are_the_nodes(self):
        assert len(oracle._A) == len(oracle._C) == 12
        assert sum(len(row) for row in oracle._A) == 50
        for c, row in zip(oracle._C, oracle._A):
            assert abs(sum(a for _, a in row) - c) < 1e-14

    def test_weights_integrate_powers_of_the_nodes(self):
        for k in range(8):
            total = sum(b * oracle._C[j] ** k for j, b in oracle._B)
            assert abs(total - 1.0 / (k + 1)) < 1e-14

    def test_error_weights_sum_to_zero(self):
        for weights in (oracle._E5, oracle._E3):
            assert abs(sum(w for _, w in weights)) < 1e-14

    def test_literals_equal_scipys(self):
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def dense(weights):
            out = np.zeros(ref.N_STAGES + 1)
            for j, w in weights:
                out[j] = w
            return out

        assert oracle._C == tuple(ref.C[: ref.N_STAGES])
        a = np.array([dense(row)[: ref.N_STAGES] for row in oracle._A])
        assert np.array_equal(a, ref.A[: ref.N_STAGES, : ref.N_STAGES])
        assert np.array_equal(dense(oracle._B)[: ref.N_STAGES], ref.B)
        assert np.array_equal(dense(oracle._E5), ref.E5)
        assert np.array_equal(dense(oracle._E3), ref.E3)


def test_cli_imports_no_reference_library():
    # scipy, mpmath and sympy serve the tests only; the library is numpy-only
    code = ("import sys, abelcycles.cli; "
            "print(sorted({'scipy', 'mpmath', 'sympy'} & set(sys.modules)))")
    src = str(Path(oracle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_starts_without_numpy():
    # check, transform and reproduce run no oracle, so the command line
    # imports numpy only when it sweeps
    code = "import sys, abelcycles.cli; print('numpy' in sys.modules)"
    src = str(Path(oracle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestDisplacementMap:
    def test_example1_growth_rate_at_origin(self):
        s = displacement_map(EX1, [0.0], CFG)[0]
        expected = math.exp(6 * math.pi) - 1
        assert abs(s.dprime - expected) / expected < 1e-6

    def test_derivative_matches_finite_difference(self):
        a1 = TrigPoly.constant(2) + TrigPoly.coswave(1, 1)
        f = FactoredAbel.from_parts(
            a1, TrigRational.from_poly(TrigPoly.sinwave(1, 1)), TrigRational.constant(1)
        )
        hi = 1.0 / a1.evaluate_float(0.0)
        grid = graded_grid(0.02 * hi, 0.95 * hi, 50)
        step = 1e-6
        mid = displacement_map(f, grid, CFG)
        fwd = displacement_map(f, [x + step for x in grid], CFG)
        bwd = displacement_map(f, [x - step for x in grid], CFG)
        for m, p, q in zip(mid, fwd, bwd):
            assert not (m.escaped or p.escaped or q.escaped)
            fd = (p.d + p.x0 - q.d - q.x0) / (2 * step) - 1.0
            assert abs(m.dprime - fd) < 1e-4 * max(1.0, abs(m.dprime))

    def test_csv_format(self, tmp_path):
        samples = displacement_map(constants(1, -1, 1), [0.25, 0.5], CFG)
        path = tmp_path / "sweep.csv"
        write_displacement_csv(samples, str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x0", "d", "dprime", "escaped"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.25
        assert rows[1][3] == "0"


class TestGradedGrid:
    def test_stays_inside_and_ordered(self):
        grid = graded_grid(0.0, 1.0, 99)
        assert all(0.0 < x < 1.0 for x in grid)
        assert grid == sorted(grid)

    def test_denser_near_the_ends(self):
        grid = graded_grid(0.0, 1.0, 101)
        gaps = [b - a for a, b in zip(grid, grid[1:])]
        assert gaps[0] < gaps[len(gaps) // 2]
        assert gaps[-1] < gaps[len(gaps) // 2]


class TestComponentGrid:
    def test_cut_off_components_are_geometric_from_the_finite_end(self):
        m = 20
        for lo, hi, end in ((-1000.0, 0.0, 0.0), (1.0, 1001.0, 1.0)):
            grid = component_grid(RegionKind.A1_NEGATIVE, lo, hi, m)
            assert len(grid) == m
            assert grid == sorted(grid)
            assert all(lo < x < hi for x in grid)
            gaps = sorted(abs(x - end) for x in grid)
            for k, gap in enumerate(gaps, start=1):
                assert gap == pytest.approx(1000.0 ** (k / (m + 1)) - 1.0, rel=1e-12)
        # the first point of (1, 1001) is within 0.4 of y = 1, where
        # graded_grid puts it near 7.6
        assert component_grid(RegionKind.A1_NEGATIVE, 1.0, 1001.0, m)[0] < 1.4
        assert graded_grid(1.0, 1001.0, m)[0] > 7.5

    def test_other_components_keep_the_graded_grid(self):
        for region in (RegionKind.A1_POSITIVE, RegionKind.A1_SIGN_CHANGING):
            for lo, hi in ((0.0, 0.5), (0.0, oracle.UNBOUNDED_FIBER_CUTOFF)):
                assert component_grid(region, lo, hi, 17) == graded_grid(lo, hi, 17)


class TestCycleCounting:
    def test_one_cycle_between_the_invariant_curves(self):
        # x' = x (2x - 1)(x - 1): interior equilibrium 1/2 is a cycle
        rep = count_cycles_in_V(constants(1, 2, 1), CFG, grid_density=100)
        assert rep.count == 1
        cycle = rep.cycles[0]
        assert abs(cycle.x_star - 0.5) < 1e-8
        assert cycle.stability == "Stable"
        expected = math.exp(-0.5 * math.pi) - 1
        assert abs(cycle.dprime - expected) < 1e-8
        assert not rep.heuristic_cutoff

    def test_no_cycle_when_displacement_is_one_signed(self):
        rep = count_cycles_in_V(constants(1, -1, 1), CFG, grid_density=100)
        assert rep.count == 0
        assert rep.sign_changes == 0

    def test_two_component_scan_finds_the_wraparound_cycle(self):
        rep = count_cycles_in_V(constants(-1, 1, 1), CFG, grid_density=120)
        assert rep.region == "A1Negative"
        assert rep.count == 1
        cycle = rep.cycles[0]
        assert cycle.component == "y<0 (x>0)"
        assert abs(cycle.x_star - (-1.0)) < 1e-8
        assert cycle.stability == "Stable"
        assert len(rep.components) == 2

    def test_finds_the_cycle_next_to_the_finite_end_of_a_cut_off_component(self):
        # (a1, a2, b2) = (-2, 1, -2) keeps the stable cycle x = -2, which is
        # y = a1 x = 4 in the chart, 3 from the finite end of (1, 1001)
        rep = count_cycles_in_V(constants(-2, 1, -2), CFG, grid_density=20)
        assert rep.region == "A1Negative"
        assert rep.count == 1
        cycle = rep.cycles[0]
        assert cycle.component == "y>1 (x<1/a1)"
        assert abs(cycle.x_star - 4.0) < 1e-8
        assert cycle.stability == "Stable"

    def test_cherkas_pipeline_runs_in_rho_coordinates(self):
        sys2 = HomogeneousSystem.of(1, 3, {(3, 0): 1, (2, 1): -1}, {(0, 3): -1})
        f = cherkas_transform(sys2)
        rep = count_cycles_in_V(f, CFG, grid_density=60)
        assert rep.total_samples >= 60
        assert rep.sign_changes == rep.sign_changes  # report is well formed
        assert isinstance(rep.to_json()["cycles"], list)

    def test_no_bracket_across_an_escaped_sample(self, monkeypatch):
        # d > 0, escaped, d < 0: the sign change is not between grid
        # neighbours, so it brackets nothing and nothing is refined
        def sweep(eq, grid, cfg=CFG):
            x0s = list(grid)[:3]
            return [
                DisplacementSample(x0s[0], 0.1, 0.0, False),
                DisplacementSample(x0s[1], math.nan, math.nan, True),
                DisplacementSample(x0s[2], -0.1, 0.0, False),
            ]

        def refine(*args):
            raise AssertionError("a bracket across an escaped sample was refined")

        monkeypatch.setattr(oracle, "displacement_map", sweep)
        monkeypatch.setattr(oracle, "_refine_bracket", refine)
        rep = count_cycles_in_V(constants(1, 2, 1), CFG, grid_density=3)
        assert rep.count == 0
        assert rep.sign_changes == 0
        assert rep.escaped_samples == 1

    def test_report_json_shape(self):
        rep = count_cycles_in_V(constants(1, 2, 1), CFG, grid_density=60)
        data = rep.to_json()
        assert data["count"] == 1
        assert data["region"] == "A1Positive"
        assert data["cycles"][0]["stability"] == "Stable"
        assert data["cycles"][0]["bracket"][0] <= data["cycles"][0]["x_star"]


def bisection_reference(field, left, right, cfg):
    """Bisection to BISECTION_WIDTH, then one more solve at the midpoint for
    d': how brackets were refined before safeguarded Newton. Returns x*, d',
    the bracket and the number of solves."""
    lo, hi, d_lo = left.x0, right.x0, left.d
    solves = 0
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        x, z, esc, _ = oracle._integrate_batch(field, 0.0, field.period, [mid], cfg)
        solves += 1
        if esc[0]:
            break
        d_mid = float(x[0]) - mid
        if d_mid == 0.0:
            lo = hi = mid
            break
        if (d_mid > 0) == (d_lo > 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    x, z, esc, _ = oracle._integrate_batch(field, 0.0, field.period, [x_star], cfg)
    solves += 1
    dprime = float(z[0]) - 1.0 if not esc[0] else math.nan
    return x_star, dprime, (lo, hi), solves


REFINE_CASES = {
    "constant-one-component": (constants(1, 2, 1), 100),
    "constant-two-component": (constants(-1, 1, 1), 120),
    "constant-cut-off": (constants(-2, 1, -2), 20),
    **{
        f"near-constant-{n}": (near_constant(Fraction(*e), Fraction(*d)), 10)
        for n, (e, d) in enumerate(
            (((1, 8), (-1, 8)), ((-1, 4), (1, 4)), ((1, 4), (1, 8)), ((-1, 8), (-1, 4)),
             # Newton converges on this cycle from one side
             ((1, 8), (1, 8)))
        )
    },
}


def by_round(solve, rounds: list):
    """`solve` as a stand-in for _integrate_one that appends the x0 of each
    call to `rounds`, one list per solve round of _refine_bracket: a round
    is one `probes` list there, so the end-game pair is one round, as it was
    one batch of two."""
    def recorded(field, t0, t1, x0, cfg):
        probes = sys._getframe(1).f_locals["probes"]
        if not rounds or rounds[-1][0] is not probes:
            rounds.append((probes, []))
        rounds[-1][1].append(x0)
        return solve(field, t0, t1, x0, cfg)

    return recorded


@pytest.fixture(scope="module", params=list(REFINE_CASES), ids=list(REFINE_CASES))
def refined(request):
    """Per bracket of the instance's sweep: the field, the refined cycle and
    the x0 of its solves per round, and the bisection reference."""
    f, grid = REFINE_CASES[request.param]
    region = classify_region(f).kind
    out = []
    for _, eq, lo, hi in oracle.fiber_components(f)[0]:
        field = CubicField(eq)
        samples = displacement_map(field, component_grid(region, lo, hi, grid), CFG)
        for left, right in zip(samples, samples[1:]):
            if left.escaped or right.escaped or (left.d > 0) == (right.d > 0):
                continue
            rounds = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_integrate_one", by_round(oracle._integrate_one, rounds))
                result = oracle._refine_bracket(field, left, right, CFG)
            solves = [x0s for _, x0s in rounds]
            out.append((field, result, solves, bisection_reference(field, left, right, CFG)))
    assert out
    return out


class TestRefinement:
    def test_bracket_contract(self, refined):
        for field, (x_star, dprime, (lo, hi), stopped), _, (ref_x, ref_dprime, _, _) in refined:
            assert stopped == ""
            assert 0.0 <= hi - lo <= BISECTION_WIDTH
            # one solve per end, as the refinement solves: a batch of two
            # shares its steps and rounds d differently
            d_lo, d_hi = (displacement_map(field, [x], CFG)[0].d for x in (lo, hi))
            if lo == hi:
                assert d_lo == 0.0
            else:
                assert (d_lo > 0) != (d_hi > 0) and d_lo != 0.0 and d_hi != 0.0
            assert x_star == 0.5 * (lo + hi)
            assert abs(x_star - ref_x) <= 1e-10
            assert oracle._classify(dprime) == oracle._classify(ref_dprime)

    def test_solve_count(self, refined):
        for _, _, rounds, (_, _, _, ref_solves) in refined:
            assert 1 <= len(rounds) <= 6
            assert len(rounds) <= ref_solves
            # one solve per round, and two in at most one: the end-game pair
            assert all(len(x0s) in (1, 2) for x0s in rounds)
            assert sum(len(x0s) == 2 for x0s in rounds) <= 1

    @staticmethod
    def exact(field, t0, t1, x0, cfg):
        """d = x^2 - 2 without integration error, as _integrate_one returns it."""
        return x0 + (x0 * x0 - 2.0), 1.0 + 2.0 * x0, False, ""

    @staticmethod
    def sample(x):
        return DisplacementSample(x, x * x - 2.0, 2.0 * x, False)

    @pytest.mark.parametrize("left, right", [(1.0, 2.0), (1.41, 1.42), (0.1, 10.0)])
    def test_exact_displacement(self, left, right, monkeypatch):
        # from (0.1, 10) the first Newton step leaves the bracket, so the
        # next point is the midpoint
        rounds = []
        monkeypatch.setattr(oracle, "_integrate_one", by_round(self.exact, rounds))
        field = CubicField(linear_equation())
        x_star, dprime, (lo, hi), stopped = oracle._refine_bracket(
            field, self.sample(left), self.sample(right), CFG
        )
        assert stopped == ""
        assert 0.0 < hi - lo <= BISECTION_WIDTH
        assert lo * lo - 2.0 < 0.0 < hi * hi - 2.0
        assert x_star == 0.5 * (lo + hi)
        assert abs(dprime - 2.0 * math.sqrt(2.0)) < 1e-9
        assert len(rounds) <= 8
        if left == 0.1:
            assert rounds[0][1] == [0.5 * (left + right)]

    def test_converged_iterate_closes_the_bracket_in_one_batch(self, monkeypatch):
        # once Newton's predicted error is below an eighth of the width, the
        # end-game's two one-sample solves at r -/+ a quarter width around
        # the predicted root r (one round, once one batch of two) are the
        # last round, and they are the ends
        rounds = []
        monkeypatch.setattr(oracle, "_integrate_one", by_round(self.exact, rounds))
        field = CubicField(linear_equation())
        x_star, _, (lo, hi), stopped = oracle._refine_bracket(
            field, self.sample(1.0), self.sample(2.0), CFG
        )
        assert stopped == ""
        assert [len(x0s) for _, x0s in rounds] == [1] * (len(rounds) - 1) + [2]
        probes, pair = rounds[-1]
        assert pair == probes == [lo, hi]
        assert hi - lo == pytest.approx(0.5 * BISECTION_WIDTH, rel=1e-3)
        root = 0.5 * (lo + hi)
        quarter = 0.25 * BISECTION_WIDTH
        assert pair == [root - quarter, root + quarter]
        assert abs(root - math.sqrt(2.0)) < 0.125 * BISECTION_WIDTH
        assert lo * lo - 2.0 < 0.0 < hi * hi - 2.0
        assert x_star == root

    def test_an_escaping_probe_stops_the_refinement_and_says_so(self, monkeypatch):
        # the near-constant cycle of the golden pin, with its second
        # refinement solve escaping
        f = near_constant(Fraction(-1, 8), Fraction(1, 8))
        solve, calls = oracle._integrate_one, []

        def escaping(field, t0, t1, x0, cfg):
            calls.append(x0)
            if len(calls) == 2:
                return x0, 1.0, True, "left the x_max window"
            return solve(field, t0, t1, x0, cfg)

        monkeypatch.setattr(oracle, "_integrate_one", escaping)
        rep = count_cycles_in_V(f, CFG, grid_density=10)
        assert len(calls) == 2
        (cycle,) = rep.cycles
        lo, hi = cycle.bracket
        assert hi - lo > BISECTION_WIDTH
        assert cycle.x_star == 0.5 * (lo + hi)
        d_lo, d_hi = (displacement_map(f, [x], CFG)[0].d for x in (lo, hi))
        assert (d_lo > 0) != (d_hi > 0)
        assert rep.notes == (
            f"refinement of the cycle near {cycle.x_star!r} on 0<x<1/a1(0) stopped "
            f"at width {hi - lo!r}: left the x_max window"
        )


def assert_sweep_invariants(eq, grid: list[float]):
    field = CubicField(eq)
    u, z, escaped, _ = oracle._integrate_batch(field, 0.0, field.period, grid, CFG)
    bounded = ~escaped
    assert (z[bounded] > 0.0).all()
    assert (np.diff(u[bounded]) >= 0.0).all()
    flags, k = escaped.tolist(), int(escaped.sum())
    assert flags in ([True] * k + [False] * (len(grid) - k),
                     [False] * (len(grid) - k) + [True] * k)


def gate6_draws(n: int) -> list[FactoredAbel]:
    rng = random.Random(6)
    return [random_instance(rng) for _ in range(n)]


class TestSweepInvariants:
    """u(T, .) is increasing where it is defined (comparison principle), so
    per component z = du(T)/dx0 > 0, u(T, .) does not decrease along the
    grid, and the escaping samples are an end segment. The checks read u(T)
    and z from the sweep's batch: d' = z - 1 is exactly -1 once z <= 2^-54
    (draw 20 of gate 6's generator gets there at grid 20), and x0 + d
    rounds again."""

    CONSTANTS = ((1, 2, 1), (1, -1, 1), (-1, 1, 1), (-2, 1, -2), (-2, -1, 0))

    @pytest.mark.parametrize(
        "f, grid",
        [(constants(*c), 40) for c in CONSTANTS]
        # the first 24 draws of gate 6's generator, certified or not
        + [(f, 10) for f in gate6_draws(24)],
        ids=[f"constants{c}" for c in CONSTANTS] + [f"gate6-draw{n}" for n in range(24)],
    )
    def test_per_component(self, f, grid):
        region = classify_region(f).kind
        for _, eq, lo, hi in oracle.fiber_components(f)[0]:
            assert_sweep_invariants(eq, component_grid(region, lo, hi, grid))

    def test_gallery1_bounded_start(self):
        # the start of gallery 1's cut-off fiber: bounded, then escaping
        grid = graded_grid(0.0, 0.01, 20)
        assert_sweep_invariants(EX1, grid)
        samples = displacement_map(EX1, grid, CFG)
        assert not samples[0].escaped and samples[-1].escaped


MONOMIALS = [(i, j) for i in range(5) for j in range(5 - i)]


def without_blowup_bound(monkeypatch):
    """Zero the lower bound of C3 on every arc, so nothing is certified."""
    arc_bounds = oracle._arc_bounds

    def no_rate(coeffs):
        a1, a2, m = arc_bounds(coeffs)
        return a1, a2, np.zeros_like(m)

    monkeypatch.setattr(oracle, "_arc_bounds", no_rate)


def arc_rates(c1, c2, c3) -> np.ndarray:
    eq = AbelEquation.from_coefficients(c1, c2, c3)
    _, _, m = oracle._arc_bounds(CubicField(eq).coeffs)
    return m


class TestBlowUpBound:
    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.sampled_from(MONOMIALS), st.integers(-6, 6), st.integers(1, 4)
            ),
            max_size=6,
        ),
        arc=st.integers(0, oracle._ARCS - 1),
        points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_arc_range_bounds_the_polynomial(self, terms, arc, points):
        compiled = tuple((i, j, float(Fraction(n, d))) for (i, j), n, d in terms)
        lo, hi = oracle._arc_range(compiled)
        for u in points:
            t = (arc + u) * oracle._ARC
            c, s = math.cos(t), math.sin(t)
            value = math.fsum(co * c**i * s**j for i, j, co in compiled)
            assert lo[arc] <= value <= hi[arc]

    def test_arc_bounds_bound_the_coefficients(self):
        cw, sw, const = TrigPoly.coswave, TrigPoly.sinwave, TrigPoly.constant
        c1 = TrigRational(sw(1, 3), const(2) + cw(1, 1))
        c2 = TrigRational(const(1) - sw(2, 4), const(-3) + sw(1, 2))
        c3 = TrigRational(const(2) + sw(1, 1), const(3) + cw(2, -2))
        field = CubicField(AbelEquation.from_coefficients(c1, c2, c3))
        a1, a2, m = oracle._arc_bounds(field.coeffs)
        assert (m > 0).all()
        for k in range(oracle._ARCS):
            for u in (0.0, 0.3, 0.7, 1.0):
                v1, v2, v3 = field.values((k + u) * oracle._ARC)
                assert abs(v1) <= a1[k] and abs(v2) <= a2[k] and v3 >= m[k]

    def test_constant_blow_up_is_certified_at_the_start(self, monkeypatch):
        # in the y = a1 x chart C3 = a2/a1 = 1/2 and C1 = 0, so both
        # samples of grid 1 (y = -500 and y = 501) blow up within 1e-5
        f = constants(-2, -1, 0)
        calls = []
        field_call = CubicField.__call__

        def counting(self, t, x, z):
            calls.append(t)
            return field_call(self, t, x, z)

        monkeypatch.setattr(CubicField, "__call__", counting)
        rep = count_cycles_in_V(f, CFG, grid_density=1)
        assert rep.total_samples == 2
        assert rep.escaped_samples == 2
        assert len(calls) <= 2
        monkeypatch.undo()
        for _, eq, lo, hi in oracle.fiber_components(f)[0]:
            x0 = graded_grid(lo, hi, 1)[0]
            _, _, esc, reasons = oracle._integrate_batch(
                CubicField(eq), 0.0, eq.period.value_float, [x0], CFG
            )
            assert esc[0]
            assert reasons[0] == BLOWUP_REASON

    def test_certifies_only_inside_the_window_and_before_t1(self):
        # x' = x^3/2 from x0 blows up at 1/x0^2; a window is 4 arcs long
        half = TrigRational.constant(Fraction(1, 2))
        field = CubicField(
            AbelEquation.from_coefficients(TrigRational.zero(), TrigRational.zero(), half)
        )
        arc = oracle._ARC
        assert oracle._WINDOW == 4

        def lasting(arcs):  # x0 that blows up after this many arcs
            return 1.0 / math.sqrt(0.5 * arcs * arc)

        x = np.array([lasting(2), -lasting(2), lasting(3.75), lasting(8), 0.0])
        assert field.blows_up(0.0, 2 * math.pi, x).tolist() == [
            True, True, True, False, False
        ]
        # from the middle of an arc the window ends 3.5 arcs later
        assert field.blows_up(0.5 * arc, 2 * math.pi, x).tolist() == [
            True, True, False, False, False
        ]
        # and nothing is certified past t1
        assert not field.blows_up(0.0, arc, x).any()

    def test_gate6_sweeps_agree_with_the_bound_switched_off(self, monkeypatch):
        # A1Negative draws of gate 6's generator: the first (every sample is
        # certified), the first with one component escaping and the other
        # bounded, and the first whose batch mixes escaping and bounded
        # samples, where the shared step differs between the two runs
        rng = random.Random(6)
        draws = []
        while len(draws) < 19:
            f = random_instance(rng)
            if classify_region(f).kind is RegionKind.A1_NEGATIVE:
                draws.append(f)
        for f in (draws[0], draws[3], draws[18]):
            comps = oracle.fiber_components(f)[0]
            assert any(
                (CubicField(eq).rate > 0).any() for _, eq, _, _ in comps
            )
            on = count_cycles_in_V(f, CFG, grid_density=20)
            with monkeypatch.context() as patch:
                without_blowup_bound(patch)
                off = count_cycles_in_V(f, CFG, grid_density=20)
            assert on.count == off.count
            assert [s.escaped for s in on.samples] == [s.escaped for s in off.samples]
            assert on.escaped_samples > 0
            for a, b in zip(on.samples, off.samples):
                if not b.escaped:
                    assert abs(a.d - b.d) <= 1e-12 * max(1.0, abs(b.d))

    def test_no_rate_where_c3_is_not_positive(self):
        one = TrigRational.constant(1)
        for c3 in (
            TrigRational.constant(-1),
            TrigRational.zero(),
            TrigRational.from_poly(TrigPoly.constant(-1) - TrigPoly.sinwave(2, 1)),
        ):
            assert not arc_rates(one, one, c3).any()
        # 1 - cos t >= 0 touches zero at t = 0: no rate on the two arcs
        # that meet there, a rate on the far side
        touching = TrigPoly.constant(1) - TrigPoly.coswave(1, 1)
        m = arc_rates(one, one, TrigRational.from_poly(touching))
        assert m[0] == m[-1] == 0.0
        assert m[oracle._ARCS // 2] > 0.0

    def test_no_rate_next_to_a_pole(self):
        # C2 = 1/cos t has poles at pi/2 and 3pi/2, the ends of arcs
        # N/4 - 1 | N/4 and 3N/4 - 1 | 3N/4; C3 = 1 is positive
        n = oracle._ARCS
        pole = TrigRational(TrigPoly.constant(1), TrigPoly.coswave(1, 1))
        m = arc_rates(TrigRational.zero(), pole, TrigRational.constant(1))
        for k in (n // 4 - 1, n // 4, 3 * n // 4 - 1, 3 * n // 4):
            assert m[k] == 0.0
        assert m[0] > 0.0 and m[n // 2] > 0.0
        # and so no window that holds those arcs certifies anything
        field = CubicField(
            AbelEquation.from_coefficients(TrigRational.zero(), pole, TrigRational.constant(1))
        )
        for k in range(n // 4 - oracle._WINDOW, n // 4 + 1):
            assert field.rate[k] == 0.0
            assert not field.blows_up(k * oracle._ARC, 10.0, np.array([1e300])).any()
        # a pole in C3 itself: no rate next to it either
        m = arc_rates(TrigRational.zero(), TrigRational.zero(), pole)
        for k in (n // 4 - 1, n // 4, 3 * n // 4 - 1, 3 * n // 4):
            assert m[k] == 0.0

    def test_rate_where_a_negative_denominator_meets_a_negative_numerator(self):
        # C3 = (cos + 1/2)/(cos - 1/2) is stored as (-1 - 2 cos)/(1 - 2 cos):
        # both negative near t = 0, where C3 = 3
        n = oracle._ARCS
        half = TrigPoly.constant(Fraction(1, 2))
        c3 = TrigRational(TrigPoly.coswave(1, 1) + half, TrigPoly.coswave(1, 1) - half)
        num, den = oracle._compile_rational(c3)
        # at t = 0 (cos = 1, sin = 0) only the terms without sin count
        assert sum(co for _, j, co in den if j == 0) < 0
        assert sum(co for _, j, co in num if j == 0) < 0
        m = arc_rates(TrigRational.zero(), TrigRational.zero(), c3)
        assert m[0] > 0.0 and m[-1] > 0.0 and m[n // 2] > 0.0
        # its pole at pi/3 and its zero at 2pi/3 get none
        assert m[n // 6] == 0.0 and m[n // 3] == 0.0

    def test_certifies_only_beyond_the_radius(self):
        # x' = x^2 (x/2 - 1000) falls from x = 1000 although 1/(m x^2) is
        # short; past the radius 4 A2/m = 8000 it blows up
        field = CubicField(
            AbelEquation.from_coefficients(
                TrigRational.zero(),
                TrigRational.constant(-1000),
                TrigRational.constant(Fraction(1, 2)),
            )
        )
        assert 8000.0 < field.radius[0] < 8000.001
        x = np.array([1000.0, 7999.0, 8001.0, -8001.0])
        assert field.blows_up(0.0, 2 * math.pi, x).tolist() == [False, False, True, True]


class TestInvariance:
    def test_zero_curve_is_exact(self):
        assert verify_invariance(EX1, "zero", CFG) == 0.0

    def test_gallery_a1_curve_tracks_below_tolerance(self):
        dev = verify_invariance(
            EX1, "a1", CFG, theta_range=(math.pi / 8, 3 * math.pi / 8)
        )
        assert dev < 1e-6

    def test_constant_a1_curve_tracks_tightly(self):
        f = constants(1, 2, 1)
        dev = verify_invariance(f, "a1", CFG)
        assert dev < 1e-10

    def test_rejects_unknown_curve(self):
        with pytest.raises(ValueError):
            verify_invariance(EX1, "boundary", CFG)

    def test_rejects_start_on_a_zero_of_a1(self):
        with pytest.raises(ValueError):
            verify_invariance(EX1, "a1", CFG, theta_range=(0.0, 1.0))


def stability_integral_reference(f: FactoredAbel, eta: float = 0.0, panels: int = 4096) -> float:
    """stability_integral as it was written with a1' rebuilt at every panel."""
    period = f.period.value_float

    def value(theta: float) -> float:
        a1v = f.a1.evaluate_float(theta)
        b2n = f.b2.num.evaluate_float(theta)
        b2d = f.b2.den.evaluate_float(theta)
        a2n = f.a2.num.evaluate_float(theta)
        a2d = f.a2.den.evaluate_float(theta)
        da1 = f.a1.derivative().evaluate_float(theta)
        return a1v * b2n / b2d - a2n / a2d + eta * da1 / a1v

    total = 0.0
    h = period / panels
    for k in range(panels):
        total += value((k + 0.5) * h) * h
    return math.exp(total) - 1.0


class TestStabilityIntegral:
    def test_bitwise_equal_to_the_per_panel_derivative(self):
        a1 = TrigPoly.constant(2) + TrigPoly.coswave(1, 1)
        wavy = FactoredAbel.from_parts(
            a1,
            TrigRational.from_poly(TrigPoly.sinwave(1, 1)),
            TrigRational(TrigPoly.constant(1), TrigPoly.constant(3) + TrigPoly.sinwave(2, 1)),
        )
        for f, eta in ((constants(-1, 1, 1), 0.0), (wavy, 0.0), (wavy, 0.5), (wavy, -1.0)):
            assert stability_integral(f, eta) == stability_integral_reference(f, eta)

    def test_sign_matches_measured_a1_curve_stability(self):
        f = constants(-1, 1, 1)
        predicted = stability_integral(f)
        # in the y = a1 x chart the a1 curve sits at y = 1
        from abelcycles.abel import negative_component_transform

        g = negative_component_transform(f)
        x, z, esc, _ = oracle._integrate_batch(
            CubicField(g), 0.0, g.period.value_float, [1.0], CFG
        )
        assert not esc[0]
        assert abs(x[0] - 1.0) < 1e-9
        measured = z[0] - 1.0
        assert (predicted > 0) == (measured > 0)
        assert abs(predicted - measured) < 1e-6


FAMILY_G = TrigPoly.constant(1) + TrigPoly.sinwave(1, Fraction(1, 2))  # mean 1


@functools.lru_cache(maxsize=None)
def family_report(a1c: int, a1w: Fraction, alpha: int, beta: int):
    a1 = TrigPoly.constant(a1c) + TrigPoly.coswave(1, a1w)
    return count_cycles_in_V(family_member(a1, FAMILY_G, alpha, beta), CFG, 40)


def assert_d_is_the_closed_form(samples, alpha, beta, a10=1.0):
    """d of every bounded sample within 1e-9 relative of the closed form,
    with x = y / a10 (y = a1 x, and a1(T) = a1(0))."""
    bounded = [s for s in samples if not s.escaped]
    assert bounded
    for s in bounded:
        u = family_flow(alpha, beta, 2 * math.pi, a10 * s.x0)
        assert u is not None
        exact = float((u - a10 * s.x0) / a10)
        assert abs(s.d - exact) <= 1e-9 * abs(exact)


class TestClosedFormFamily:
    """a2 = alpha g a1 and b2 = beta g give y' = g y (y - 1)(alpha y - beta)
    in the chart y = a1 x: u(T, y0) solves H(u) = H(y0) + T mean(g), the
    cycle is y* = beta/alpha, and d'(y*) = exp(alpha y* (y* - 1) T mean(g)) - 1.
    T mean(g) = 2 pi here."""

    def test_a1positive_displacement(self):
        # a1 = 2 + cos t/2, alpha = 2, beta = 1: the fiber (0, 1/a1(0)) is
        # y in (0, 1), where nothing escapes
        report = family_report(2, Fraction(1, 2), 2, 1)
        assert report.region == "A1Positive" and report.escaped_samples == 0
        assert_d_is_the_closed_form(report.samples, 2, 1, a10=2.5)

    def test_a1positive_cycle(self):
        # y* = 1/2 is x* = 1/2 / a1(0) = 0.2, with d' = exp(-pi) - 1
        report = family_report(2, Fraction(1, 2), 2, 1)
        (cycle,) = report.cycles
        assert cycle.stability == "Stable"
        assert abs(cycle.x_star - 0.2) <= 1e-9
        assert abs(cycle.dprime - (math.exp(-math.pi) - 1.0)) <= 1e-8

    def test_a1negative_displacement(self):
        # a1 = -2 - cos t, alpha = 1, beta = -1: the unstable cycle y* = -1;
        # most samples escape, and the count is left to the escape rules
        report = family_report(-2, Fraction(-1), 1, -1)
        assert report.region == "A1Negative"
        assert_d_is_the_closed_form(report.samples, 1, -1)
