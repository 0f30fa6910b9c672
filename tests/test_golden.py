"""`abel-cycles` output pinned byte for byte on a small corpus.

The corpus holds one input of each schema: gallery case 1 (planar), gallery
case 2 (homogeneous, with the obstruction report; also a quarter turn on,
`gallery2-homogeneous-quarter-turn`, the slowest `check` of the benchmark's
certify pool), a cubic-coefficient equation, and a factored equation whose witnesses fall in all four charts
('half', 'tan', 'tan2' and an exact 'point'). Small constant and homogeneous
inputs pin the branches of the factored and planar sign criteria that these
miss: a Holds in each A1Negative region note (`a1neg-*`), a NegativeBranch
Holds, a Fails of the whole-circle requirement, the neutral-curve and the
equality-only Inapplicable, and the planar whole-circle Fails, neutral and
equality-only Inapplicable (`planar-*`). `normalized-eta-beyond-defaults`
pins a normalized-form multiplier (eta = -12) that lies outside the
default multiplier list. `pole-at-pi` (a1 = 1 + cos t, a2 = b2 = -2) pins
a pole at t = pi alone: a1'/a1 = -sin t/(1 + cos t) has a simple pole
there and nowhere else, so the multiplier search must see that pole; read
without it, the no_cycle and at_most_one verdicts move from eta 0 to
eta -1. Each input pins what `check` and
`transform` print, and the two gallery reproductions are pinned too.

`golden/oracle/` pins the displacement-map oracle: what `oracle` prints and
the per-sample CSV it writes, at the grid of `ORACLE_GRIDS`.
`a1positive-sweep` is a clean A1Positive sweep with no cycle, so it pins
every step of the integrator bit for bit. `near-constant-locate` (a1 = 1,
a2 = 3/2 - sin t/8, b2 = 1 + cos t/8) has one stable cycle near x = 0.66,
so it also pins the bracket that cycle refinement ends with. Both have a
positive constant a1, so C1 = b2 - a1'/a1 compiles with a constant
denominator. `a1positive-varying-a1` (a1 = 2 + cos t/2, a2 = -1 + sin t/2,
b2 = 1 - cos t/2; A1Positive, no cycle, no escapes) pins a C1 whose
reduced form has a varying denominator. `constant-a1neg-locate` (a1 = -2,
a2 = 1, b2 = -2, the locate pool's constant A1Negative input) goes through
the reduction of `negative_component_transform`, scans both components in
the y = a1 x chart, and pins the stable cycle y = 4.

An expected file changes only with an intended output change; regenerate
it with

    abel-cycles check --input tests/golden/NAME.json > tests/golden/NAME.out
    abel-cycles transform --input tests/golden/NAME.json > tests/golden/NAME.transform.out
    abel-cycles reproduce EXAMPLE > tests/golden/reproduce-EXAMPLE.out
    abel-cycles oracle --input tests/golden/oracle/NAME.json --grid GRID \
        --out SCRATCH/NAME.json > tests/golden/oracle/NAME.out
    cp SCRATCH/NAME.csv tests/golden/oracle/NAME.csv

where SCRATCH is any other directory. `ORACLE_FIELD_CALLS` bounds the
CubicField evaluations of each oracle pin, a cost that does not depend on
the machine; lower it when a change makes a pin cheaper.
"""

from pathlib import Path

import pytest

from abelcycles import poly
from abelcycles.cli import main
from abelcycles.oracle import CubicField

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))
ORACLE_GRIDS = {
    "a1positive-sweep": 40,
    "a1positive-varying-a1": 20,
    "constant-a1neg-locate": 10,
    "near-constant-locate": 10,
}


# CubicField evaluations of each oracle pin, counted when the pins were last
# regenerated: a count that does not depend on the machine's speed
ORACLE_FIELD_CALLS = {
    "a1positive-sweep": 865,
    "a1positive-varying-a1": 766,
    "constant-a1neg-locate": 5400,
    "near-constant-locate": 1404,
}


@pytest.mark.parametrize("name", NAMES)
def test_check_output_is_byte_identical(name, capsys):
    main(["check", "--input", str(GOLDEN / f"{name}.json")])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_a_second_check_in_one_process_reuses_nothing(capsys):
    # the benchmark runs its ops through main in one process: each call must
    # print the pinned output and leave no run scope behind for the next
    for _ in range(2):
        for name in NAMES:
            main(["check", "--input", str(GOLDEN / f"{name}.json")])
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
            assert poly._RUN_CACHE.get() is None


@pytest.mark.parametrize("name", NAMES)
def test_transform_output_is_byte_identical(name, capsys):
    assert main(["transform", "--input", str(GOLDEN / f"{name}.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.transform.out").read_text()


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_reproduce_output_is_byte_identical(example, capsys):
    assert main(["reproduce", example]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"reproduce-{example}.out").read_text()


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_oracle_output_is_byte_identical(name, capsys, tmp_path):
    out = tmp_path / "out.json"
    argv = ["oracle", "--input", str(GOLDEN / "oracle" / f"{name}.json"),
            "--grid", str(ORACLE_GRIDS[name]), "--out", str(out)]
    assert main(argv) == 0
    expected = (GOLDEN / "oracle" / f"{name}.out").read_text()
    assert capsys.readouterr().out == expected
    assert out.read_text() == expected
    assert (tmp_path / "out.csv").read_bytes() == (GOLDEN / "oracle" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_oracle_field_evaluations_within_the_recorded_count(name, monkeypatch, tmp_path):
    calls = 0
    evaluate = CubicField.__call__

    def counted(self, t, x, z):
        nonlocal calls
        calls += 1
        return evaluate(self, t, x, z)

    monkeypatch.setattr(CubicField, "__call__", counted)
    argv = ["oracle", "--input", str(GOLDEN / "oracle" / f"{name}.json"),
            "--grid", str(ORACLE_GRIDS[name]), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert calls <= ORACLE_FIELD_CALLS[name]
