"""The --format json output of fixed hk commands stays byte-identical to tests/golden/."""
from pathlib import Path

import pytest

from reeshk.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "oracle_groebner.json": [
        "oracle", "groebner", "--vars", "3", "--a", "5", "--gens", "8,0,0;0,8,0;0,0,8",
    ],
    "compare_dim1.json": [
        "compare", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..6",
    ],
    "example_fermat5.json": ["example", "fermat5", "--e", "2..5"],
    "compare_cm_sop.json": ["compare", "cm-sop", "--exponents", "1,2,3", "--s", "1..5"],
    "example_three_vars.json": ["example", "three-vars", "--n", "2,2,3", "--s", "2..4"],
    "fit_ehk.json": ["fit", "ehk", "--exponents", "1,1", "--s", "2..9"],
    "oracle_groebner_2vars.json": [
        "oracle", "groebner", "--vars", "2", "--a", "5", "--gens", "9,2;2,9;0,14;14,0",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_is_byte_identical(capsys, name):
    assert main(COMMANDS[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
