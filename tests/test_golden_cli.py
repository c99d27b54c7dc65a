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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_is_byte_identical(capsys, name):
    assert main(COMMANDS[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
