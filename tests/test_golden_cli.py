"""The output of fixed hk commands stays byte-identical to tests/golden/, in every format."""
from pathlib import Path

import pytest

from reeshk.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "oracle_groebner": [
        "oracle", "groebner", "--a", "5", "--gens", "8,0,0;0,8,0;0,0,8",
    ],
    "compare_dim1": [
        "compare", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..6",
    ],
    "example_fermat5": ["example", "fermat5", "--e", "2..5"],
    "compare_cm_sop": ["compare", "cm-sop", "--exponents", "1,2,3", "--s", "1..5"],
    "example_three_vars": ["example", "three-vars", "--n", "2,2,3", "--s", "2..4"],
    "fit_ehk": ["fit", "ehk", "--exponents", "1,1", "--s", "2..9"],
    "oracle_groebner_2vars": [
        "oracle", "groebner", "--a", "5", "--gens", "9,2;2,9;0,14;14,0",
    ],
    "formula_dim1_fermat5": ["formula", "dim1", "--preset", "fermat5"],
    "formula_cm_sop": ["formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "2..5"],
    # graded tail cap 2a = 14; the dim1-fermat5 benchmark runs this command
    "fit_dim1_a7": [
        "fit", "dim1", "--a", "7", "--p", "2", "--variant", "rees-of-m", "--e", "2..7",
        "--holdout", "0",
    ],
    "oracle_dim1_p3": [
        "oracle", "dim1", "--a", "3", "--p", "3", "--variant", "rees-of-m", "--e", "1..3",
    ],
    # q = 32..4096 lie past the window q < 2a - 1 = 25, in eight distinct classes mod 13,
    # so they are read off their class's closed form, not summed; captured from the per-q sum
    "oracle_dim1_a13": [
        "oracle", "dim1", "--a", "13", "--p", "2", "--variant", "rees-of-m", "--e", "1..12",
    ],
    # at s = 3 the graded tail runs past t = s - 1, beyond the pieces the head counted
    "oracle_monomial_d4": ["oracle", "monomial", "--exponents", "2,1,1,1", "--s", "1..3"],
    "formula_sop_dim1": ["formula", "sop-dim1", "--e0", "5", "--alpha=-4,-6"],
    # r < rho + 1: the postulation number is past r - 1, the general branch of dim1_hk
    "formula_dim1_rho_past_r": [
        "formula", "dim1", "--e0", "1", "--e1", "-1", "--r", "1", "--rho", "1",
        "--lengths", "0,1", "--alpha=0,-1",
    ],
}

# golden file extension -> --format
FORMATS = {"json": "json", "csv": "csv", "txt": "table"}


def golden_files(*extensions):
    return sorted(f"{stem}.{ext}" for stem in COMMANDS for ext in extensions)


def check(capsys, golden):
    stem, ext = golden.rsplit(".", 1)
    assert main(COMMANDS[stem] + ["--format", FORMATS[ext]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", golden_files("json"))
def test_json_output_is_byte_identical(capsys, golden):
    check(capsys, golden)


@pytest.mark.parametrize("golden", golden_files("csv", "txt"))
def test_table_and_csv_output_is_byte_identical(capsys, golden):
    check(capsys, golden)
