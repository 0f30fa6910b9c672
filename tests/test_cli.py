"""Command-line interface and input-schema handling."""

import argparse
import csv
import gc
import json
import time
from fractions import Fraction

import pytest

from abelcycles import oracle
from abelcycles.abel import FactoredAbel, classify_region
from abelcycles.cli import main
from abelcycles.criteria import Witness
from abelcycles.gallery import (
    example1_factored,
    example1_input,
    example2_input,
    reproduce,
)
from abelcycles.oracle import component_grid, displacement_map, fiber_components
from abelcycles.serialize import SchemaError, detect_schema, dumps, parse_input
from abelcycles.trig import TrigPoly, TrigRational

from identities import witness_sign


@pytest.fixture
def gallery1(tmp_path):
    path = tmp_path / "gallery1.json"
    path.write_text(dumps(example1_input()))
    return str(path)


@pytest.fixture
def gallery2(tmp_path):
    path = tmp_path / "gallery2.json"
    path.write_text(dumps(example2_input()))
    return str(path)


def constants(a1c, a2c, b2c) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c), TrigRational.constant(a2c), TrigRational.constant(b2c)
    )


def constants_factored_json() -> dict:
    return constants(1, 2, 1).to_json()


class TestSchemas:
    def test_detects_all_four(self):
        assert detect_schema(example1_input()) == "planar"
        assert detect_schema(example2_input()) == "homogeneous"
        assert detect_schema(constants_factored_json()) == "factored"
        abel = {"C1": [], "C2": [], "C3": []}
        assert detect_schema(abel) == "abel"

    def test_rejects_unknown_keys(self):
        with pytest.raises(SchemaError):
            detect_schema({"foo": 1})
        with pytest.raises(SchemaError):
            detect_schema({})

    def test_round_trips_factored(self):
        parsed = parse_input(constants_factored_json())
        assert parsed.kind == "factored"
        assert parsed.model.to_json() == constants_factored_json()

    def test_planar_carries_the_a1_candidate(self):
        parsed = parse_input(example1_input())
        assert parsed.kind == "planar"
        assert parsed.a1_candidate == TrigPoly.from_terms([(3, 3, 1)])

    def test_malformed_terms_raise(self):
        one = [{"i": 0, "j": 0, "c": "1"}]
        with pytest.raises(SchemaError):
            parse_input({"a1": "not-a-term-list", "a2": [], "b2": []})
        with pytest.raises(SchemaError):
            parse_input({"a1": [{"i": 0, "j": 0, "c": "1/0"}], "a2": one, "b2": one})
        with pytest.raises(SchemaError):
            parse_input({"a1": one, "a2": {"num": one, "den": []}, "b2": one})


class TestCheck:
    def test_gallery1_bundle_and_exit(self, gallery1, capsys):
        code = main(["check", "--input", gallery1])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        by_id = {v["criterion"]: v for v in bundle["verdicts"]}
        assert by_id["at_most_one"]["outcome"] == "Holds"
        assert by_id["at_most_one"]["bound"] == "AtMostOne"
        assert by_id["at_most_one"]["eta"] == "-1/1"
        assert by_id["normalized_bound"]["outcome"] == "Fails"

    def test_gallery2_bundle_and_exit(self, gallery2, capsys):
        code = main(["check", "--input", gallery2])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        by_id = {v["criterion"]: v for v in bundle["verdicts"]}
        assert by_id["planar_no_cycle"]["outcome"] == "Holds"
        assert by_id["planar_no_cycle"]["bound"] == "NoNontrivialCycle"
        assert bundle["obstructions"]["all_hold"] is True

    def test_all_fail_selection_exits_one(self, gallery1):
        assert main(["check", "--input", gallery1, "--criteria", "no_cycle"]) == 1

    def test_eta_override(self, gallery1, capsys):
        code = main(
            ["check", "--input", gallery1, "--criteria", "at_most_one", "--eta", "-1"]
        )
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["verdicts"][0]["eta"] == "-1/1"

    def test_empty_input_exits_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}\n")
        assert main(["check", "--input", str(path)]) == 2

    def test_unparseable_input_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["check", "--input", str(path)]) == 2

    def test_unknown_criterion_exits_two(self, gallery1):
        assert main(["check", "--input", gallery1, "--criteria", "sturmish"]) == 2

    def test_missing_input_flag_exits_two(self):
        assert main(["check"]) == 2

    def test_byte_identical_reruns(self, gallery1, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["check", "--input", gallery1, "--out", str(out1)])
        main(["check", "--input", gallery1, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def _term(i, j, c):
    return {"i": i, "j": j, "c": c}


# Inputs whose multiplier search ends on the constraint at theta = pi: the
# normalized criterion for the factored one, the weighted-product obstruction
# for the homogeneous one. Its witness once had no circle coordinates, and
# serialising it crashed the command.
THETA_PI_INPUTS = {
    "factored": {
        "a1": [_term(0, 0, "1")],
        "a2": [_term(0, 0, "-1"), _term(0, 1, "-3"), _term(1, 0, "3"), _term(2, 0, "1")],
        "b2": [_term(0, 0, "1"), _term(0, 1, "-2"), _term(1, 0, "3"), _term(2, 0, "-2")],
    },
    "homogeneous": {
        "a": "2",
        "n": 2,
        "P": [_term(1, 1, "-2"), _term(2, 0, "-1")],
        "Q": [_term(1, 1, "-1"), _term(2, 0, "2")],
    },
}


class TestTrigDegreeCap:
    @staticmethod
    def _check(tmp_path, a2_terms):
        one = [_term(0, 0, "1")]
        path = tmp_path / "input.json"
        path.write_text(dumps({"a1": one, "a2": a2_terms, "b2": one}))
        t0 = time.perf_counter()
        code = main(["check", "--input", str(path)])
        return code, time.perf_counter() - t0

    def test_term_above_the_cap_exits_two_at_once(self, tmp_path, capsys):
        code, seconds = self._check(tmp_path, [_term(0, 200, "2"), _term(1, 0, "-1")])
        out, err = capsys.readouterr()
        assert code == 2
        assert seconds < 1.0
        assert out == ""
        assert err.startswith("error:") and "exceeds cap 16" in err

    def test_term_at_the_cap_gets_a_verdict(self, tmp_path, capsys):
        code, _ = self._check(tmp_path, [_term(16, 0, "1")])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert err == ""
        assert {v["criterion"] for v in json.loads(out)["verdicts"]} == {
            "no_cycle", "at_most_one", "definite_a2", "normalized_bound"
        }


class TestOversizedCoefficient:
    DIGITS = "1" * 5001

    @pytest.mark.parametrize("as_string", [True, False], ids=["string", "number"])
    def test_exits_two_with_a_plain_message(self, as_string, tmp_path, capsys):
        big = f'"{self.DIGITS}"' if as_string else self.DIGITS
        one = '[{"i": 0, "j": 0, "c": "1"}]'
        path = tmp_path / "input.json"
        path.write_text(f'{{"a1": [{{"i": 0, "j": 0, "c": {big}}}], "a2": {one}, "b2": {one}}}')
        code = main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "more than 4300 digits" in err
        assert "sys." not in err


def _witness_from_json(data: dict) -> Witness:
    circle = data.get("circle")
    return Witness(
        data["condition"],
        data["chart"],
        point=Fraction(data["point"]) if "point" in data else None,
        interval=tuple(map(Fraction, data["interval"])) if "interval" in data else None,
        circle=(Fraction(circle["cos"]), Fraction(circle["sin"])) if circle else None,
    )


class TestThetaPiConstraint:
    @pytest.mark.parametrize("kind", sorted(THETA_PI_INPUTS))
    def test_real_verdict_with_revalidated_witnesses(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_text(dumps(THETA_PI_INPUTS[kind]))
        code = main(["check", "--input", str(path)])
        bundle = json.loads(capsys.readouterr().out)
        assert code == bundle["exit"] == 1
        model = parse_input(THETA_PI_INPUTS[kind]).model
        if kind == "factored":
            functions = (model.a1, model.a2, model.b2)
        else:
            psi, phi = model.psi(), model.phi()
            functions = (psi, phi, (psi.scale(model.a) - phi) * phi)
        groups = bundle["verdicts"] + bundle.get("obstructions", {}).get("checks", [])
        witnesses = [w for g in groups for w in g["witnesses"]]
        at_pi = [w for w in witnesses if w["condition"] == "the combination at theta = pi"]
        assert at_pi and all(w["circle"] == {"cos": "-1/1", "sin": "0/1"} for w in at_pi)
        for data in witnesses:
            w = _witness_from_json(data)
            assert w.to_json() == data
            for f in functions:
                approx = f.evaluate_float(w.theta())
                if abs(approx) > 1e-9:
                    assert witness_sign(f, w) == (1 if approx > 0 else -1)

    def test_point_witness_needs_circle(self):
        with pytest.raises(ValueError):
            Witness("somewhere", "point")


class TestTransform:
    def test_rigid_route_matches_expected_factored_form(self, gallery1, capsys):
        code = main(["transform", "--input", gallery1])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert FactoredAbel.from_json(data).to_json() == example1_factored().to_json()

    def test_homogeneous_route_lands_on_psi(self, gallery2, capsys):
        code = main(["transform", "--input", gallery2])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        f = FactoredAbel.from_json(data)
        from abelcycles.gallery import example2_system

        assert f.a1 == example2_system().psi()

    def test_plain_cubic_input_passes_through(self, tmp_path, capsys):
        eq = {
            "C1": [{"i": 0, "j": 0, "c": "6/1"}],
            "C2": [],
            "C3": [{"i": 2, "j": 0, "c": "1/1"}],
        }
        path = tmp_path / "abel.json"
        path.write_text(dumps(eq))
        code = main(["transform", "--input", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"C1", "C2", "C3"}
        assert data["C1"]["num"] == eq["C1"]

    def test_rigid_route_without_candidate_exits_two(self, tmp_path):
        data = example1_input()
        del data["a1"]
        path = tmp_path / "bare.json"
        path.write_text(dumps(data))
        assert main(["transform", "--input", str(path)]) == 2

    def test_non_invariant_candidate_prints_residual(self, tmp_path, capsys):
        data = example1_input()
        data["a1"] = [{"i": 1, "j": 0, "c": "1/1"}]
        path = tmp_path / "wrong.json"
        path.write_text(dumps(data))
        assert main(["transform", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not invariant" in err
        assert "residual" in err


class TestOracle:
    @pytest.mark.parametrize(
        "f, x_star",
        [(constants(1, 2, 1), 0.5), (constants(-1, 1, 1), -1.0)],
        ids=["one-component", "two-component"],
    )
    def test_writes_json_and_csv(self, f, x_star, tmp_path, capsys, monkeypatch):
        path = tmp_path / "constants.json"
        path.write_text(dumps(f.to_json()))
        out = tmp_path / "report.json"
        sweeps = []

        def counting_sweep(*args, **kwargs):
            sweeps.append(args)
            return displacement_map(*args, **kwargs)

        monkeypatch.setattr(oracle, "displacement_map", counting_sweep)
        code = main(
            ["oracle", "--input", str(path), "--grid", "60", "--out", str(out)]
        )
        monkeypatch.undo()
        assert code == 0
        report = json.loads(out.read_text())
        assert out.read_text() == capsys.readouterr().out
        assert report["count"] == 1
        assert abs(report["cycles"][0]["x_star"] - x_star) < 1e-8
        # one sweep per component: the CSV reuses the count's samples
        assert len(sweeps) == len(report["components"])
        with open(tmp_path / "report.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x0", "d", "dprime", "escaped"]
        region = classify_region(f).kind
        expected = [
            [repr(s.x0), repr(s.d), repr(s.dprime), str(int(s.escaped))]
            for _, eq, lo, hi in fiber_components(f)[0]
            for s in displacement_map(eq, component_grid(region, lo, hi, 60))
        ]
        assert len(expected) == 60 * len(report["components"])
        assert rows[1:] == expected

    def test_grid_density_does_not_change_the_count(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(dumps(constants_factored_json()))
        counts = []
        for grid in ("50", "400"):
            main(["oracle", "--input", str(path), "--grid", grid])
            counts.append(json.loads(capsys.readouterr().out)["count"])
        assert counts[0] == counts[1] == 1

    @pytest.mark.parametrize(
        "option, value",
        [("--grid", "0"), ("--grid", "-3"), ("--rtol", "0"), ("--atol", "-1"),
         ("--rtol", "nan")],
    )
    def test_bad_numbers_exit_two(self, option, value, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(dumps(constants_factored_json()))
        assert main(["oracle", "--input", str(path), option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--grid", "5"],
        ["check", "--pipeline", "abel"],
        ["transform", "--eta", "1"],
        ["oracle", "--criteria", "no_cycle"],
    ],
    ids=["check-grid", "check-pipeline", "transform-eta", "oracle-criteria"],
)
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", "unused.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestReproduce:
    def test_example1_passes(self, capsys):
        assert main(["reproduce", "example1"]) == 0
        out = capsys.readouterr().out
        assert "ok: example1" in out
        assert "FAIL" not in out

    def test_example2_passes(self, capsys):
        assert main(["reproduce", "example2"]) == 0
        out = capsys.readouterr().out
        assert "ok: example2" in out
        assert "FAIL" not in out

    def test_unknown_example_exits_two(self):
        assert main(["reproduce", "bogus"]) == 2


class TestUnwritableOut:
    """--out under a missing directory is an input error: exit 2 and an
    error line, with no exception out of main and nothing on stdout."""

    @pytest.mark.parametrize("command", ["check", "transform", "oracle", "reproduce"])
    def test_exits_two_with_nothing_on_stdout(self, command, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(dumps(constants_factored_json()))
        out = tmp_path / "missing" / "out.json"
        if command == "reproduce":
            argv = ["reproduce", "example2"]
        else:
            argv = [command, "--input", str(path)]
        if command == "oracle":
            argv += ["--grid", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_reproduce_writes_its_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["reproduce", "example2", "--out", str(out)]) == 0
        assert out.read_text() == dumps(reproduce("example2").to_json())
        assert capsys.readouterr().out.endswith("ok: example2\n")


class TestNoReferenceCycles:
    """The parser is built once, so repeated calls of `main` leave no parser
    for the cyclic collector to free."""

    def test_repeated_main_leaves_no_parser_in_cyclic_garbage(self, gallery1, capsys):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                assert main(["transform", "--input", gallery1]) == 0
            gc.collect()
            left = [o for o in gc.garbage
                    if isinstance(o, (argparse.ArgumentParser, argparse.HelpFormatter))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []
