"""`abel-cycles check` output pinned byte for byte on a small corpus.

The corpus holds one input of each schema: gallery case 1 (planar), gallery
case 2 (homogeneous, with the obstruction report), a cubic-coefficient
equation, and a factored equation whose witnesses fall in all four charts
('half', 'tan', 'tan2' and an exact 'point'). An expected file changes only
with an intended output change; regenerate it with

    abel-cycles check --input tests/golden/NAME.json > tests/golden/NAME.out
"""

from pathlib import Path

import pytest

from abelcycles.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_check_output_is_byte_identical(name, capsys):
    main(["check", "--input", str(GOLDEN / f"{name}.json")])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
