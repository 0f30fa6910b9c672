"""The studies in `scripts/` still import and run against the library.

Each script is loaded under a name other than `__main__`, so its imports
run but its `main` does not: a library name the script imports that no
longer exists fails here instead of only when someone runs the study.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["reproduce_all.py", "search_attaining.py"])
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
