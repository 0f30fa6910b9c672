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
equality-only Inapplicable (`planar-*`). Each input pins what `check` and
`transform` print, and the two gallery reproductions are pinned too. An
expected file changes only with an intended output change; regenerate it with

    abel-cycles check --input tests/golden/NAME.json > tests/golden/NAME.out
    abel-cycles transform --input tests/golden/NAME.json > tests/golden/NAME.transform.out
    abel-cycles reproduce EXAMPLE > tests/golden/reproduce-EXAMPLE.out
"""

from pathlib import Path

import pytest

from abelcycles.cli import main

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_check_output_is_byte_identical(name, capsys):
    main(["check", "--input", str(GOLDEN / f"{name}.json")])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", NAMES)
def test_transform_output_is_byte_identical(name, capsys):
    assert main(["transform", "--input", str(GOLDEN / f"{name}.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.transform.out").read_text()


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_reproduce_output_is_byte_identical(example, capsys):
    assert main(["reproduce", example]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"reproduce-{example}.out").read_text()
