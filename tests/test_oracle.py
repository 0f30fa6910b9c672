"""Displacement-map oracle: integrator accuracy, cycle counting, invariance."""

import csv
import math

import pytest

from abelcycles import oracle
from abelcycles.abel import AbelEquation, FactoredAbel
from abelcycles.oracle import (
    DisplacementSample,
    IntegratorConfig,
    count_cycles_in_V,
    displacement_map,
    graded_grid,
    integrate,
    stability_integral,
    verify_invariance,
    write_displacement_csv,
)
from abelcycles.planar import HomogeneousSystem, cherkas_transform
from abelcycles.trig import TrigPoly, TrigRational

from data import EX1_A1, EX1_A2, EX1_B2

CFG = IntegratorConfig()

EX1 = FactoredAbel.from_parts(EX1_A1, EX1_A2, EX1_B2)


def constants(a1c, a2c, b2c) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c), TrigRational.constant(a2c), TrigRational.constant(b2c)
    )


def linear_equation() -> AbelEquation:
    return AbelEquation.from_coefficients(
        TrigRational.constant(1), TrigRational.zero(), TrigRational.zero()
    )


class TestIntegrator:
    def test_linear_growth_matches_exp(self):
        r = integrate(linear_equation(), 1.0, 0.0, 1.0, CFG)
        assert not r.escaped
        assert abs(r.value - math.e) < 1e-8

    def test_tolerance_halving_improves_accuracy(self):
        loose = IntegratorConfig(rtol=1e-6, atol=1e-8)
        tight = IntegratorConfig(rtol=1e-12, atol=1e-14)
        err_loose = abs(integrate(linear_equation(), 1.0, 0.0, 1.0, loose).value - math.e)
        err_tight = abs(integrate(linear_equation(), 1.0, 0.0, 1.0, tight).value - math.e)
        assert err_tight < err_loose
        assert err_tight < 1e-10

    def test_autonomous_cubic_moves_up_from_half(self):
        # x' = x (1 - x^2) pushes (0, 1) upward, so d(0.5) > 0
        f = constants(1, -1, 1)
        r = integrate(f, 0.5, 0.0, f.period.value_float, CFG)
        assert not r.escaped
        assert r.value - 0.5 > 0.1

    def test_zero_is_fixed_exactly(self):
        for f in (EX1, constants(1, 2, 1), constants(-1, 1, 1)):
            s = displacement_map(f, [0.0], CFG)[0]
            assert s.d == 0.0

    def test_escape_is_flagged_not_raised(self):
        # riding the a1 curve of the gallery instance into the blow-up
        x0 = 1.0 / EX1_A1.evaluate_float(math.pi / 4)
        r = integrate(EX1, x0, math.pi / 4, math.pi, CFG)
        assert r.escaped
        assert r.reason

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_tolerances(self, tol):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=tol)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=tol)


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


class TestStabilityIntegral:
    def test_sign_matches_measured_a1_curve_stability(self):
        f = constants(-1, 1, 1)
        predicted = stability_integral(f)
        # in the y = a1 x chart the a1 curve sits at y = 1
        from abelcycles.abel import negative_component_transform

        g = negative_component_transform(f)
        r = integrate(g, 1.0, 0.0, g.period.value_float, CFG)
        assert not r.escaped
        assert abs(r.value - 1.0) < 1e-9
        measured = r.variation - 1.0
        assert (predicted > 0) == (measured > 0)
        assert abs(predicted - measured) < 1e-6
