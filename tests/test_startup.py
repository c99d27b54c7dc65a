"""Importing the CLI loads only what the `hk` commands run.

Every `hk` command is a fresh process, so each module that
`import reeshk.cli` pulls in costs every command.  `dataclasses` brings
`inspect`, `ast`, `dis` and `tokenize` with it, and `csv` and `json`
serve `--format csv` and `--format json` alone, which import them when
they render.

The package root imports nothing, so importing one module loads only
the package modules it imports itself.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_AT_STARTUP = ["dataclasses", "inspect", "csv", "json"]


def _loaded(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs code, with src/ on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def startup():
    """The modules that importing reeshk.cli and building its parser adds to a bare interpreter."""
    return _loaded("import reeshk.cli\nreeshk.cli.build_parser()") - _loaded("pass")


def test_startup_loads_the_cli(startup):
    assert "reeshk.cli" in startup


@pytest.mark.parametrize("module", NOT_AT_STARTUP)
def test_startup_does_not_load(startup, module):
    assert module not in startup


# each module -> the package modules that importing it alone loads, itself included
LIBRARY = {"polynomials", "hk_formulas", "monomial_algebra", "binomial_groebner", "rees_oracle"}
IMPORTS = {
    "polynomials": {"polynomials"},
    "hk_formulas": {"hk_formulas", "polynomials"},
    "monomial_algebra": {"monomial_algebra", "hk_formulas", "polynomials"},
    "binomial_groebner": {"binomial_groebner", "monomial_algebra", "hk_formulas", "polynomials"},
    "rees_oracle": LIBRARY,
    "cli": LIBRARY | {"cli"},
}


@pytest.mark.parametrize("module", IMPORTS)
def test_a_module_loads_only_what_it_imports(module):
    loaded = _loaded(f"import reeshk.{module}")
    assert {name for name in loaded if name.split(".")[0] == "reeshk"} == {
        "reeshk", *(f"reeshk.{name}" for name in IMPORTS[module])
    }
