"""The studies in `scripts/` still import and run against the library.

Each script is loaded under a name other than `__main__`, so its imports
run but its `main` does not: a library name the script imports that no
longer exists fails here instead of only when someone runs the study.
"""

import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name", ["output_hashes.py", "reproduce_all.py", "search_attaining.py"]
)
def test_script_imports(name):
    namespace = runpy.run_path(str(SCRIPTS / name), run_name="scripts_smoke")
    assert callable(namespace["main"])


def test_search_attaining_runs_on_a_small_scan(capsys):
    namespace = runpy.run_path(
        str(SCRIPTS / "search_attaining.py"), run_name="scripts_smoke"
    )
    # "-2,1" after a space would parse as an option, so it takes the = form
    assert namespace["main"](["--values=-2,1", "--grid", "10"]) == 0
    assert "attaining instance(s)" in capsys.readouterr().out


def test_output_hashes_are_stable_and_compare_flags_a_difference(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "output_hashes.py"), run_name="scripts_smoke")["main"]
    # the goldens and reproduce only: no pool is built
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--out", str(a)]) == 0
    assert main(["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    hashes = json.loads(a.read_text())
    assert "golden/check/gallery1-planar" in hashes
    assert "golden/transform/gallery1-planar" in hashes
    assert "reproduce/example2" in hashes
    capsys.readouterr()
    assert main(["--compare", str(a), str(b)]) == 0
    assert f"0 of {len(hashes)} keys differ" in capsys.readouterr().out
    planted = dict(hashes, **{"reproduce/example1": "0" * 64})
    b.write_text(json.dumps(planted))
    assert main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs: reproduce/example1" in out
    assert f"1 of {len(hashes)} keys differ" in out
