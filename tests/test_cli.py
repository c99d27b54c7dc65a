"""End-to-end CLI: golden values, formats, exit codes."""
import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import reeshk
from reeshk import cli, hk_formulas
from reeshk.cli import (
    COMMANDS, GROUPS, RunReport, build_parser, main, parse_range, render_csv, render_json,
)
from reeshk.hk_formulas import Dim1Input, dim1_hk


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestFormula:
    def test_cm_sop_csv_golden(self, capsys):
        code, out, _ = run(
            capsys, "formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "2..5",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["s"] for r in rows] == ["2", "3", "4", "5"]
        assert [r["formula"] for r in rows] == ["23", "123", "397", "980"]

    def test_cm_sop_d2_csv(self, capsys):
        # e0 (4s^3 - s) / 3 at e0 = 2, the d = 2 closed form through the CLI
        code, out, _ = run(
            capsys, "formula", "cm-sop", "--d", "2", "--e0", "2", "--s", "2..5",
            "--format", "csv",
        )
        assert code == 0
        assert [r["formula"] for r in csv_rows(out)] == ["20", "70", "168", "330"]

    def test_ehk(self, capsys):
        code, out, _ = run(capsys, "formula", "ehk", "--d", "2", "--e0", "3")
        assert code == 0
        assert " 4" in out

    def test_ehk_rational_in_json(self, capsys):
        code, out, _ = run(
            capsys, "formula", "ehk", "--d", "3", "--e0", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["formula"] == "13/8"

    def test_dim1_preset(self, capsys):
        code, out, _ = run(capsys, "formula", "dim1", "--preset", "fermat5")
        assert code == 0
        assert "5*q^2" in out and "5*q^2 - 10" in out

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "formula", "dim1", "--preset", "cubic7")
        assert code == 2
        assert "preset" in err

    def test_dim1_custom_invariants(self, capsys):
        code, out, _ = run(
            capsys, "formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4",
            "--lengths", "0,1,3,6", "--alpha=-4,-6;-3,-5;-2,-3;-1,-1",
        )
        assert code == 0
        assert "5*q^2" in out and "5*q^2 - 10" in out

    def test_dim1_custom_missing_flags(self, capsys):
        code, _, err = run(capsys, "formula", "dim1", "--e0", "5")
        assert code == 2
        assert "--e1" in err

    def test_dim1_with_rho(self, capsys):
        # r < rho + 1: the branch that dim1_hk has and cordim1_hk does not
        code, out, _ = run(
            capsys, "formula", "dim1", "--e0", "1", "--e1", "-1", "--r", "1", "--rho", "1",
            "--lengths", "0,1", "--alpha=0,-1", "--format", "json",
        )
        assert code == 0
        inp = Dim1Input(e0=1, e1=-1, r=1, rho=1, lengths=(0, 1), alpha=((0, -1),))
        doc = json.loads(out)
        assert [r["formula"] for r in doc["rows"]] == dim1_hk(inp).format()
        assert doc["instance"]["period"] == "2"

    def test_sop_dim1(self, capsys):
        code, out, _ = run(
            capsys, "formula", "sop-dim1", "--e0", "5", "--alpha=-4,-6"
        )
        assert code == 0
        assert "5*q^2 - 4*q" in out and "5*q^2 - 6*q" in out

    def test_stanley_reisner(self, capsys):
        code, out, _ = run(
            capsys, "formula", "stanley-reisner", "--d", "3", "--facets", "8"
        )
        assert code == 0
        assert " 13" in out


class TestOracle:
    def test_monomial(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "monomial", "--exponents", "1,1,1", "--s", "2",
            "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[0]["oracle"] == "23"

    def test_dim1_both_variants(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
            "--e", "3", "--format", "csv",
        )
        assert code == 0 and csv_rows(out)[0]["oracle"] == "272"
        code, out, _ = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
            "--e", "4", "--format", "csv",
        )
        assert code == 0 and csv_rows(out)[0]["oracle"] == "1280"

    def test_groebner(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "groebner", "--a", "5",
            "--gens", "8,0,0;0,8,0;0,0,8", "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0]["oracle"] == "0,0,8;0,8,0;3,5,0;5,0,0"
        assert rows[1]["oracle"] == "272"

    def test_groebner_large_exponents(self, capsys):
        # the walk follows the generators, so a box of 10^15 points is cheap
        code, out, _ = run(
            capsys, "oracle", "groebner", "--a", "5",
            "--gens", "100000,0,0;0,100000,0;0,0,100000", "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[1]["oracle"] == "50000000000"

    @pytest.mark.parametrize(
        "gens,dim",
        [("8,0;0,8", 2), ("8,0,0;0,8,0;0,0,8", 3), ("8,0,0,0;0,8,0,0;0,0,8,0;0,0,0,8", 4)],
    )
    def test_groebner_takes_the_variables_from_the_gens(self, capsys, gens, dim):
        code, out, _ = run(capsys, "oracle", "groebner", "--a", "5", "--gens", gens)
        assert code == 0
        assert f"# vars: {dim}\n" in out


class TestCompare:
    def test_cm_sop(self, capsys):
        code, out, _ = run(
            capsys, "compare", "cm-sop", "--exponents", "1,2", "--s", "1..4",
            "--format", "csv",
        )
        assert code == 0
        assert all(r["match"] == "true" for r in csv_rows(out))

    def test_cm_sop_large_exponents(self, capsys):
        # the cap counts the monomials the sweep walks, which the exponents do not change
        code, out, _ = run(
            capsys, "compare", "cm-sop", "--exponents", "300,300,300", "--s", "1..9",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 9 and all(r["match"] == "true" for r in rows)

    def test_dim1_rees_of_x_large_q(self, capsys):
        # q = 4096 is within the q cap; nothing else refuses the 3-variable count
        code, out, _ = run(
            capsys, "compare", "dim1", "--a", "7", "--p", "2",
            "--variant", "rees-of-x", "--e", "2..12", "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 11 and all(r["match"] == "true" for r in rows)

    def test_dim1_rees_of_x(self, capsys):
        code, out, _ = run(
            capsys, "compare", "dim1", "--a", "5", "--p", "2",
            "--variant", "rees-of-x", "--e", "2..6", "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["oracle"] for r in rows] == ["64", "272", "1216", "4928", "20224"]
        assert all(r["match"] == "true" for r in rows)

    def test_dim1_rees_of_m_needs_preset_invariants(self, capsys):
        code, _, err = run(
            capsys, "compare", "dim1", "--a", "3", "--p", "2",
            "--variant", "rees-of-m", "--e", "2..3",
        )
        assert code == 2
        assert "only --a 5 --p 2" in err

    def test_dim1_rees_of_m(self, capsys):
        code, out, _ = run(
            capsys, "compare", "dim1", "--a", "5", "--p", "2",
            "--variant", "rees-of-m", "--e", "3..5", "--format", "csv",
        )
        assert code == 0
        assert [r["formula"] for r in csv_rows(out)] == ["310", "1280", "5110"]


class TestFit:
    def test_dim1_fit(self, capsys):
        code, out, _ = run(
            capsys, "fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
            "--e", "2..7", "--holdout", "0", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instance"]["valid_from_e"] == "2"
        polys = [r["formula"] for r in doc["rows"] if "residue" in r["point"]]
        assert polys == ["5*q^2", "5*q^2 - 10"]

    def test_dim1_fit_wrong_period_exits_one(self, capsys):
        # rees-of-x has period 2 in e; one polynomial cannot fit both classes
        code, _, err = run(
            capsys, "fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
            "--e", "2..9", "--period", "1", "--force",
        )
        assert code == 1
        assert "does not match" in err

    def test_dim1_fit_off_its_rows_is_a_mismatch(self, capsys):
        # the fit holds from e = 6 on; below that its exact value is not
        # even an integer, and such a row is a mismatch, not a crash
        code, out, err = run(
            capsys, "fit", "dim1", "--a", "9", "--p", "2", "--variant", "rees-of-m",
            "--e", "1..9", "--period", "1", "--holdout", "1", "--force", "--format", "json",
        )
        assert code == 1
        assert "Traceback" not in err
        doc = json.loads(out)
        assert doc["instance"]["valid_from_e"] == "6"
        rows = {r["point"]["e"]: r for r in doc["rows"] if "e" in r["point"]}
        assert rows["1"]["formula"] == "157161/1024" and rows["1"]["match"] is False
        assert all(rows[str(e)]["match"] for e in range(6, 10))

    def test_ehk_oracle_source(self, capsys):
        code, out, _ = run(
            capsys, "fit", "ehk", "--exponents", "1,1", "--s", "2..7",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["instance"]["estimate"] == "4/3"


class TestExamples:
    def test_fermat5(self, capsys):
        code, out, _ = run(capsys, "example", "fermat5", "--e", "2..4")
        assert code == 0
        assert "verdict: pass" in out

    def test_three_vars(self, capsys):
        code, out, _ = run(
            capsys, "example", "three-vars", "--n", "2,2,3", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0]["formula"] == "276"
        assert all(r["match"] == "true" for r in rows)


class TestFormats:
    def test_csv_json_agree(self, capsys):
        args = ["compare", "cm-sop", "--exponents", "1,1", "--s", "1..4"]
        code, out_csv, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        code, out_json, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(out_json)
        for row_csv, row_json in zip(csv_rows(out_csv), doc["rows"], strict=True):
            assert row_csv["s"] == row_json["point"]["s"]
            assert row_csv["formula"] == row_json["formula"]
            assert row_csv["oracle"] == row_json["oracle"]
            assert row_csv["match"] == str(row_json["match"]).lower()

    def test_rows_sorted_by_parameter(self, capsys):
        _, out, _ = run(
            capsys, "oracle", "monomial", "--exponents", "2,1", "--s", "1..5",
            "--format", "csv",
        )
        assert [r["s"] for r in csv_rows(out)] == ["1", "2", "3", "4", "5"]


# (argv, exit code, a fragment of stderr): one case per exception class
EXIT_CODE_MATRIX = {
    # both variants are capped on q a alone
    "q_cap": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "16"],
        3, "q a = 2^16*5 exceeds the cap 262144; rerun with --force",
    ),
    # refused before p**e is formed: no huge q printed, no int-to-text limit hit
    "q_cap_huge_e": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "1..1000000"],
        3, "q a = 2^1000000*5 exceeds the cap 262144; rerun with --force",
    ),
    # the rees-of-x count and the alpha table meet the q a cap through a as well
    "a_cap": (
        ["oracle", "dim1", "--a", "200000", "--p", "2", "--variant", "rees-of-x", "--e", "1"],
        3, "q a = 2^1*200000 exceeds the cap 262144; rerun with --force",
    ),
    # refused from the range's last element, before its e values are listed
    "q_cap_huge_range": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
         "--e", "1..1000000000000"],
        3, "q a = 2^1000000000000*5 exceeds the cap 262144; rerun with --force",
    ),
    # C(301, 3) monomials of degree at most 298 = 3 (100 - 1) + 1
    "monomial_cap": (
        ["oracle", "monomial", "--exponents", "1,1,1", "--s", "1..100"],
        3, "s = 100 in 3 variables: a walk of 4499950 monomials exceeds the cap 100000; "
           "rerun with --force",
    ),
    # C(31, 5): one s past the d = 5 frontier
    "monomial_cap_d5": (
        ["oracle", "monomial", "--exponents", "1,1,1,1,1", "--s", "6"], 3, "169911 monomials",
    ),
    "value_error": (
        ["oracle", "monomial", "--exponents", "1,1", "--s", "3..2"], 2, "empty range",
    ),
    "insufficient_samples": (
        ["fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "2..3"],
        2, "need 4 samples, have 1",
    ),
    "infinite_colength": (
        ["oracle", "groebner", "--a", "5", "--gens", "8,0,0;0,8,0"],
        2, "no pure power of every variable",
    ),
    # the generators fix the number of variables, and the relation needs two
    "one_variable_gens": (
        ["oracle", "groebner", "--a", "5", "--gens", "8"], 2, "two variables",
    ),
    # the relation X_0^a - X_1^a needs a >= 2: a = 0 would divide by zero, a = 1 pass
    **{
        f"groebner_a_{a}": (
            ["oracle", "groebner", "--a", a, "--gens", "8,0;0,8"],
            2, "error: hypersurface exponent must be at least 2\n",
        )
        for a in ("0", "1")
    },
    # refused before the formula side runs, which would crash on q = p^e < 1
    **{
        f"negative_e_{name}": (argv, 2, "error: e must be positive\n")
        for name, argv in [
            ("compare_rees_of_m",
             ["compare", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e=-2..3"]),
            ("compare_rees_of_x",
             ["compare", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e=-2..3"]),
            ("example_fermat5", ["example", "fermat5", "--e=-1..3"]),
        ]
    },
    # an s below 1 is invalid input before the walk cap sums the range from its top
    "negative_s_before_monomial_cap": (
        ["oracle", "monomial", "--exponents", "1,1", "--s=-5..1000"],
        2, "error: s must be positive\n",
    ),
    # formula cm-sop checks d, e0 and the range's first s before the row cap
    "cm_sop_d_before_row_cap": (
        ["formula", "cm-sop", "--d", "1", "--e0", "1", "--s", "1..20000"],
        2, "error: d must be at least 2\n",
    ),
    "cm_sop_e0_before_row_cap": (
        ["formula", "cm-sop", "--d", "3", "--e0", "0", "--s", "1..20000"],
        2, "error: e0 must be positive\n",
    ),
    "cm_sop_s_before_row_cap": (
        ["formula", "cm-sop", "--d", "3", "--e0", "1", "--s=-5..20000"],
        2, "error: s must be positive\n",
    ),
    # a row weighs d^2 (d + 200) // 22000 rows: one row at d = 1000 is past the cap,
    # and so are 100 rows at d = 100, each weighing 136
    "cm_sop_row_cost_cap": (
        ["formula", "cm-sop", "--d", "1000", "--e0", "1", "--s", "3"],
        3, "error: a range of 1 values of s at 54545 rows' cost each (d = 1000) exceeds the cap "
           "10000; rerun with --force\n",
    ),
    "cm_sop_weighted_rows": (
        ["formula", "cm-sop", "--d", "100", "--e0", "1", "--s", "1..100"],
        3, "a range of 100 values of s at 136 rows' cost each (d = 100) exceeds the cap 10000",
    ),
    "cm_sop_e0_before_row_cost_cap": (
        ["formula", "cm-sop", "--d", "1000", "--e0", "0", "--s", "3"],
        2, "error: e0 must be positive\n",
    ),
    # formula dim1 has one row per residue class, lcm(7, 11, 13, 17) = 17017 of them,
    # refused before any is built; invalid lengths exit 2 before the cap
    "dim1_period_cap": (
        ["formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4", "--lengths", "0,1,3,6",
         "--alpha=" + ";".join(",".join("0" * n) for n in (7, 11, 13, 17))],
        3, "the lcm 17017 of the alpha periods exceeds the cap 10000; rerun with --force",
    ),
    "dim1_lengths_before_period_cap": (
        ["formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4", "--lengths", "1,1,3,6",
         "--alpha=" + ";".join(",".join("0" * n) for n in (7, 11, 13, 17))],
        2, "error: lengths[0] is the length of R/R and must be 0\n",
    ),
    # a parse error names the text and the form it expected
    "empty_alpha": (
        ["formula", "sop-dim1", "--e0", "5", "--alpha="],
        2, "bad integer list '': expected integers such as 1,2,3",
    ),
    "trailing_semicolon_alpha": (
        ["formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4",
         "--lengths", "0,1,3,6", "--alpha=-4,-6;-3,-5;-2,-3;-1,-1;"],
        2, "bad integer list '': expected integers such as 1,2,3",
    ),
    "bad_gens_tuple": (
        ["oracle", "groebner", "--a", "5", "--gens", "8,0;x"],
        2, "bad ideal text '8,0;x': expected exponent tuples such as 2,0;1,3;0,4",
    ),
    "empty_gens": (
        ["oracle", "groebner", "--a", "5", "--gens", ""],
        2, "bad ideal text '': expected exponent tuples such as 2,0;1,3;0,4",
    ),
    "list_as_range": (
        ["formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "2,3"],
        2, "bad range '2,3': expected N or LO..HI",
    ),
    "open_range": (
        ["formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "3.."],
        2, "bad range '3..': expected N or LO..HI",
    ),
    "three_vars_two_exponents": (
        ["example", "three-vars", "--n", "1,2"], 2, "error: --n takes three exponents n1,n2,n3\n",
    ),
    "stanley_reisner_no_facets": (
        ["formula", "stanley-reisner", "--d", "3", "--facets", "0"],
        2, "error: facet count must be positive\n",
    ),
    "inconsistent_samples": (
        ["fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "2..9",
         "--period", "1", "--force"],
        1, "does not match",
    ),
    # the fit's own parameters name themselves and their values
    **{
        f"fit_{flag}": (
            ["fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..7",
             f"--{flag}", value],
            2, f"{message}, got {value}\n",
        )
        for flag, value, message in [
            ("period", "0", "a periodic value needs a period of at least 1"),
            ("holdout", "-1", "the holdout must be nonnegative"),
        ]
    },
}
# the cap on q a and the primality of the characteristic p, decided from the inputs
EXIT_CODE_MATRIX |= {
    "qa_cap_oracle": (
        ["oracle", "dim1", "--a", "128", "--p", "2", "--variant", "rees-of-m", "--e", "1..12"],
        3, "q a = 2^12*128 exceeds the cap 262144; rerun with --force",
    ),
    "qa_cap_fit": (
        ["fit", "dim1", "--a", "4096", "--p", "2", "--variant", "rees-of-m", "--e", "1..12"],
        3, "q a = 2^12*4096 exceeds the cap 262144; rerun with --force",
    ),
    # a small p is tested for primality first: invalid input, not a cap
    "non_prime_p_past_q_cap": (
        ["oracle", "dim1", "--a", "5", "--p", "4", "--variant", "rees-of-x", "--e", "7"],
        2, "error: p = 4 is not prime\n",
    ),
    # --force lifts the q a cap, not the primality test: the oracle reads no p, so the CLI
    # is where a composite p is refused
    **{
        f"non_prime_p_forced_{group}": (
            [group, "dim1", "--a", "2", "--p", "262146", "--variant", "rees-of-x", "--e", "1",
             "--force"],
            2, "error: p = 262146 is not prime\n",
        )
        for group in ("oracle", "compare", "fit")
    },
    # the q a cap comes before the primality test of a huge p, on either variant
    "q_cap_huge_p": (
        ["oracle", "dim1", "--a", "5", "--p", "100000000000031", "--variant", "rees-of-x",
         "--e", "1"],
        3, "q a = 100000000000031^1*5 exceeds the cap 262144; rerun with --force",
    ),
    "qa_cap_huge_p": (
        ["oracle", "dim1", "--a", "5", "--p", "100000000000031", "--variant", "rees-of-m",
         "--e", "1"],
        3, "q a = 100000000000031^1*5 exceeds the cap 262144; rerun with --force",
    ),
    # the exponent a is checked before every cap: a = 1 is invalid input whatever q is
    **{
        f"a_1_before_{variant}_cap": (
            ["oracle", "dim1", "--a", "1", "--p", "2", "--variant", variant, "--e", e],
            2, "error: hypersurface exponent must be at least 2\n",
        )
        for variant, e in [("rees-of-x", "13"), ("rees-of-m", "20")]
    },
    # on rees-of-m a p up to the q a cap is tested first, though q a is past that cap
    "non_prime_p_past_qa_cap": (
        ["oracle", "dim1", "--a", "5", "--p", "4097", "--variant", "rees-of-m", "--e", "3"],
        2, "error: p = 4097 is not prime\n",
    ),
}
# the generator cap counts the text's tuples; a bad --a is invalid input before it
EXIT_CODE_MATRIX |= {
    "gens_cap": (
        ["oracle", "groebner", "--a", "5", "--gens", "1,0;" * 10000 + "0,1"],
        3, "10001 generators exceeds the cap 10000; rerun with --force",
    ),
    "groebner_a_before_gens_cap": (
        ["oracle", "groebner", "--a", "1", "--gens", "1,0;" * 10000 + "0,1"],
        2, "error: hypersurface exponent must be at least 2\n",
    ),
}
# the preset fixes every invariant, so any instance flag is refused
EXIT_CODE_MATRIX |= {
    f"preset_with_{flag}_{value}": (
        ["formula", "dim1", "--preset", "fermat5", f"--{flag}={value}"], 2, f"--{flag}",
    )
    for flag, value in [("e0", 5), ("e1", 10), ("r", 4), ("rho", 1), ("lengths", "0,1,3,6"),
                        ("alpha", "-4,-6")]
}
# a closed form knows no characteristic: a formula command has no --p, whatever its value
NO_P_MATRIX = {
    f"{name}_p_{p}": [*argv, "--p", p]
    for name, argv in [
        ("formula_dim1", ["formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4",
                          "--lengths", "0,1,3,6", "--alpha=-4,-6;-3,-5;-2,-3;-1,-1"]),
        ("formula_sop_dim1", ["formula", "sop-dim1", "--e0", "5", "--alpha=-4,-6"]),
        ("preset_with", ["formula", "dim1", "--preset", "fermat5"]),
    ]
    for p in ("2", "3", "4", "1")
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CODE_MATRIX))
    def test_exit_code_matrix(self, capsys, case):
        argv, expected, fragment = EXIT_CODE_MATRIX[case]
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize("case", sorted(NO_P_MATRIX))
    def test_formula_commands_take_no_p(self, capsys, case):
        argv = NO_P_MATRIX[case]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --p {argv[-1]}" in err

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("boom"), KeyError("boom"), ValueError("boom")],
        ids=["RuntimeError", "KeyError", "ValueError"],
    )
    def test_internal_error_exits_four(self, capsys, monkeypatch, error):
        def broken(*args):
            raise error

        monkeypatch.setattr(cli, "cm_sop_hk", broken)
        code, out, err = run(capsys, "formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("Traceback") and f"{type(error).__name__}: " in err

    def test_each_exception_has_one_exit_code(self):
        # no key of EXIT_CODES is a subclass of another, so each error the package
        # defines meets exactly one of them and their order decides nothing
        modules = [
            importlib.import_module(f"reeshk.{info.name}")
            for info in pkgutil.iter_modules(reeshk.__path__)
        ]
        codes = {
            cls.__name__: [code for key, code in cli.EXIT_CODES.items() if issubclass(cls, key)]
            for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, BaseException)
            and cls.__module__ == module.__name__
        }
        assert codes == {
            "InvalidInput": [2],
            "InfiniteColength": [2],
            "InsufficientSamples": [2],
            "OracleError": [1],
            "InconsistentSamples": [1],
            "StabilizationNotReached": [1],
            "ResourceCapExceeded": [3],
        }

    def test_exit_code_reaches_the_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "reeshk.cli", "oracle", "dim1", "--a", "5", "--p", "2",
             "--variant", "rees-of-x", "--e", "16"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")

    def test_invalid_arguments(self, capsys):
        code, out, err = run(capsys, "formula", "cm-sop", "--d", "3", "--e0", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ")
        assert "error: the following arguments are required: --s" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the relation is X_0^a - X_1^a; other indices only permute the exponents
            ["oracle", "groebner", "--a", "5", "--gens", "8,0,0;0,8,0;0,0,8", "--u", "2"],
            # the generators fix the number of variables
            ["oracle", "groebner", "--a", "5", "--gens", "8,0,0;0,8,0;0,0,8", "--vars", "3"],
            # the paper's quasi-polynomials have degree 2
            ["fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..7",
             "--degree", "1"],
            # the exponents fix d and e0
            ["fit", "ehk", "--exponents", "1,1", "--s", "2..9", "--d", "3"],
            ["fit", "ehk", "--exponents", "1,1", "--s", "2..9", "--e0", "7"],
        ],
        ids=["groebner_u", "groebner_vars", "fit_dim1_degree", "fit_ehk_d", "fit_ehk_e0"],
    )
    def test_fixed_values_take_no_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            # fit ehk fits oracle lengths only, so its exponents are required
            (["fit", "ehk", "--d", "3", "--e0", "1", "--s", "3..9"],
             "the following arguments are required: --exponents"),
            # its one closed form against another is a test, not a command
            (["example", "xy-zn", "--e0", "2", "--s", "2..5"],
             "argument which: invalid choice: 'xy-zn'"),
        ],
        ids=["fit_ehk_d_e0", "example_xy_zn"],
    )
    def test_closed_form_sources_are_not_commands(self, capsys, argv, fragment):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and fragment in err

    def test_flag_prefix_is_not_a_flag(self, capsys):
        # one spelling per flag: --form is not taken for --format
        code, out, err = run(capsys, "formula", "ehk", "--d", "2", "--e0", "3", "--form", "csv")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --form csv" in err

    def test_invalid_dimension(self, capsys):
        code, _, err = run(
            capsys, "formula", "cm-sop", "--d", "1", "--e0", "1", "--s", "2"
        )
        assert code == 2
        assert "at least 2" in err

    def test_q_cap(self, capsys):
        code, _, err = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
            "--e", "16",
        )
        assert code == 3
        assert "--force" in err

    def test_q_cap_force_override(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
            "--e", "16", "--force", "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[0]["oracle"] == str(5 * 65536**2 - 4 * 65536)

    def test_rees_of_m_forced_far_past_the_cap(self, capsys):
        # past its window rees-of-m reads q off its class's closed form, so
        # q = 2^40 costs no more than q = 2^4; 2^40 = 1 mod 5 reads 5 q^2
        code, out, err = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
            "--e", "40", "--force", "--format", "json",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["rows"][0]["oracle"] == str(5 * 2**80)

    def test_a_cap_force_override(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "dim1", "--a", "200000", "--p", "2", "--variant", "rees-of-x",
            "--e", "1", "--force",
        )
        assert code == 0

    @pytest.mark.parametrize("a, e, value", [
        # q a = 2^13*5, a large q within the cap; r = q mod 5 = 2 gives 5 q^2 - r (5 - r) q
        ("5", "13", 5 * 8192**2 - 6 * 8192),
        # q a = 2*5000, a large a within the cap; a > q, so this is q len(k[X,Y]/(X^q, Y^q))
        ("5000", "1", 2 * 2**2),
    ])
    def test_rees_of_x_within_the_q_a_cap_runs(self, capsys, a, e, value):
        code, out, err = run(
            capsys, "oracle", "dim1", "--a", a, "--p", "2", "--variant", "rees-of-x",
            "--e", e, "--format", "csv",
        )
        assert code == 0 and err == ""
        assert csv_rows(out)[0]["oracle"] == str(value)

    def test_rees_of_m_is_capped_on_q_a_alone(self, capsys):
        # a = 5000 is large, but q a = 10000 is within the q a cap: the
        # sweep takes a few hundredths of a second, so it is not refused
        code, out, err = run(
            capsys, "oracle", "dim1", "--a", "5000", "--p", "2", "--variant", "rees-of-m",
            "--e", "1", "--format", "csv",
        )
        assert code == 0 and err == ""
        assert [row["e"] for row in csv_rows(out)] == ["1"]

    def test_qa_cap(self, capsys, monkeypatch):
        # refused from the inputs alone, before the oracle walks anything
        def walked(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "rees_colength_dim1", walked)
        code, out, err = run(
            capsys, "compare", "dim1", "--a", "4096", "--p", "2", "--variant", "rees-of-m",
            "--e", "1..12",
        )
        assert code == 3 and out == ""
        assert "q a = 2^12*4096 exceeds the cap 262144" in err

    def test_qa_cap_force_override(self, capsys, monkeypatch):
        # q a = 4 * 13 = 52: both variants are refused, and --force runs them
        monkeypatch.setattr(cli, "QA_CAP", 51)
        argv = ["oracle", "dim1", "--a", "13", "--p", "2", "--e", "1..2", "--format", "csv"]
        for variant in ("rees-of-m", "rees-of-x"):
            code, out, err = run(capsys, *argv, "--variant", variant)
            assert code == 3 and out == "" and "q a = 2^2*13 exceeds the cap 51" in err
            code, out, _ = run(capsys, *argv, "--variant", variant, "--force")
            assert code == 0 and len(csv_rows(out)) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "dim1", "--a", "5", "--p", "100000000000031", "--variant", "rees-of-x",
             "--e", "1"],
            ["oracle", "dim1", "--a", "5", "--p", "100000000000031", "--variant", "rees-of-m",
             "--e", "1"],
        ],
        ids=["q_cap", "qa_cap"],
    )
    def test_huge_p_is_refused_before_its_primality_test(self, capsys, monkeypatch, argv):
        def tested(p):
            raise AssertionError("p was tested for primality")

        monkeypatch.setattr(hk_formulas, "_is_prime", tested)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.endswith("rerun with --force\n")

    def test_gens_cap_force_override(self, capsys, monkeypatch):
        # refused before parse_ideal minimalises the generators, and run with --force
        monkeypatch.setattr(cli, "GENS_CAP", 2)
        parse = cli.parse_ideal
        monkeypatch.setattr(cli, "parse_ideal", lambda text: pytest.fail("parsed"))
        argv = ["oracle", "groebner", "--a", "5", "--gens", "8,0,0;0,8,0;0,0,8", "--format", "csv"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "3 generators exceeds the cap 2; rerun with --force" in err
        monkeypatch.setattr(cli, "parse_ideal", parse)
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and csv_rows(out)[1]["oracle"] == "272"

    def test_monomial_cap(self, capsys, monkeypatch):
        # refused from the inputs alone, before the oracle walks anything
        def walked(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "rees_colength_monomial", walked)
        code, _, _ = run(capsys, "oracle", "monomial", "--exponents", "1,1,1", "--s", "1..100")
        assert code == 3

    def test_monomial_cap_sums_the_sweep(self, capsys, monkeypatch):
        # each s builds its own products: 223 alone walks C(447, 2) = 99681
        # monomials, the sweep 1..223 walks 7467824; refused before the oracle runs
        def walked(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "rees_colength_monomial", walked)
        code, out, err = run(capsys, "compare", "cm-sop", "--exponents", "1,1", "--s", "1..223")
        assert code == 3 and out == ""
        assert (
            "s = 222..223 in 2 variables: a walk of 198471 monomials exceeds the cap 100000"
            in err
        )

    def test_huge_ranges_are_not_listed(self, capsys):
        # neither range is listed: the first is refused at its largest s, the
        # second walks only s = 1..3 and is refused at its first s
        argv = ["oracle", "monomial", "--exponents", "1,1"]
        code, _, err = run(capsys, *argv, "--s", "1..1000000000000")
        assert code == 3 and "s = 1000000000000 in 2 variables" in err
        code, _, err = run(capsys, *argv, "--s=-1000000000000..3")
        assert code == 2 and "s must be positive" in err
        code, _, err = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
            "--e=-1000000000000..3",
        )
        assert code == 2 and "e must be positive" in err

    def test_monomial_cap_refuses_a_range_of_accepted_values(self, capsys, monkeypatch):
        # s = 1 and s = 2 in 3 variables walk C(4, 3) = 4 and C(7, 3) = 35 monomials
        monkeypatch.setattr(cli, "MONOMIAL_CAP", 35)
        argv = ["oracle", "monomial", "--exponents", "1,1,1", "--format", "csv"]
        for s in ("1", "2"):
            assert run(capsys, *argv, "--s", s)[0] == 0
        code, _, err = run(capsys, *argv, "--s", "1..2")
        assert code == 3
        assert "s = 1..2 in 3 variables: a walk of 39 monomials exceeds the cap 35" in err

    def test_monomial_cap_force_override(self, capsys, monkeypatch):
        # inputs past the real cap are slow by design, so the cap is lowered:
        # s = 2 in 3 variables walks C(7, 3) = 35 monomials
        monkeypatch.setattr(cli, "MONOMIAL_CAP", 10)
        argv = ["oracle", "monomial", "--exponents", "1,1,1", "--s", "2", "--format", "csv"]
        code, _, err = run(capsys, *argv)
        assert code == 3 and "a walk of 35 monomials exceeds the cap 10; rerun with --force" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and csv_rows(out)[0]["oracle"] == "23"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "cm-sop", "--exponents", "1,1,1", "--s", "2"],
            ["fit", "ehk", "--exponents", "1,1,1", "--s", "2"],
            ["example", "three-vars", "--n", "1,1,1", "--s", "2"],
        ],
        ids=["compare_cm_sop", "fit_ehk", "example_three_vars"],
    )
    def test_every_monomial_command_is_capped(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "MONOMIAL_CAP", 10)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.endswith("rerun with --force\n")

    # the one command whose rows come from a closed form alone
    ROW_COMMANDS = {"formula_cm_sop": ["formula", "cm-sop", "--d", "3", "--e0", "1"]}

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    def test_row_cap(self, capsys, command):
        # refused from the range's ends, before any row is built
        code, out, err = run(capsys, *self.ROW_COMMANDS[command], "--s", "2..1000000000001")
        assert code == 3 and out == ""
        assert err.endswith(
            "a range of 1000000000000 values of s exceeds the cap 10000; rerun with --force\n"
        )
        # wider than a C ssize_t, which len() of the range could not report
        assert run(capsys, *self.ROW_COMMANDS[command], "--s", f"2..{10**30}")[0] == 3

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    def test_row_cap_force_override(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "ROW_CAP", 6)
        argv = [*self.ROW_COMMANDS[command], "--s", "3..9", "--format", "csv"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "a range of 7 values of s exceeds the cap 6" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and len(csv_rows(out)) >= 7

    def test_digit_bound_is_above_the_value(self):
        # the digit cap reads the digits of e0 d s^(d+1), so the value stays below it
        assert all(
            hk_formulas.cm_sop_hk(d, 1, s) < d * s ** (d + 1)
            for d in range(2, 25) for s in range(1, 25)
        )

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_value_past_the_digit_limit_exits_three(self, capsys, monkeypatch):
        # e0 d s^(d+1) bounds the value: 4872 digits at d = 540 and s = 10^9, past the
        # interpreter's limit, so it is refused before any row rather than failing to
        # print as invalid input; 3790 at s = 10^7, under it; forced, it prints in full
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            argv = ["formula", "cm-sop", "--d", "540", "--e0", "1", "--format", "json", "--s"]
            code, out, _ = run(capsys, *argv, "10000000")
            assert code == 0 and json.loads(out)["rows"][0]["formula"]
            monkeypatch.setattr(cli, "cm_sop_hk", lambda *a: pytest.fail("a row was built"))
            code, out, err = run(capsys, *argv, "1000000000")
            assert code == 3 and out == ""
            assert err == (
                "error: a value of up to 4872 digits exceeds the cap 4300; rerun with --force\n"
            )
            # a row that raises leaves the limit as it was
            monkeypatch.setattr(cli, "cm_sop_hk", lambda *a: 1 // 0)
            assert run(capsys, *argv, "1000000000", "--force")[0] == 4
            assert sys.get_int_max_str_digits() == 4300
            monkeypatch.undo()
            code, out, err = run(capsys, *argv, "1000000000", "--force")
            assert code == 0 and err == ""
            assert sys.get_int_max_str_digits() == 4300  # restored after the rows
            sys.set_int_max_str_digits(0)
            value = hk_formulas.cm_sop_hk(540, 1, 10**9)
            assert json.loads(out)["rows"][0]["formula"] == str(value)
            assert len(str(value)) in range(4301, 4873)
            # with no limit nothing is refused
            assert run(capsys, *argv, "1000000000")[1] == out
        finally:
            sys.set_int_max_str_digits(limit)

    def test_parse_range_lists_nothing(self):
        assert parse_range("2..5") == range(2, 6)
        assert parse_range("3") == range(3, 4)

    def test_report_with_nothing_compared_is_unchecked(self, capsys):
        report = RunReport({"check": "unit"}, "formula")
        report.add({"s": 1}, formula=3)
        report.add({"s": 2}, oracle=4)
        assert report.verdict == "unchecked"
        assert json.loads(render_json(report))["verdict"] == "unchecked"
        code, out, _ = run(capsys, "formula", "ehk", "--d", "2", "--e0", "3")
        assert code == 0 and out.endswith("verdict: unchecked\n")

    def test_mismatch_report_exits_one(self):
        report = RunReport({"check": "unit"}, "compare")
        report.add({"s": 1}, formula=3, oracle=4)
        assert report.verdict == "fail"
        assert json.loads(render_json(report))["verdict"] == "fail"
        assert csv_rows(render_csv(report))[0]["match"] == "false"


def _choices(parser):
    """The subparsers of a parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _required(flags):
    """A value argparse accepts for each required flag of a COMMANDS entry."""
    tail = []
    for flag, spec in flags.items():
        if isinstance(spec, type):
            tail += [flag, "1"]
        elif isinstance(spec, dict) and spec.get("required"):
            tail += [flag, spec.get("choices", ["1"])[0]]
    return tail


def parsed(capsys, parse, argv):
    """Exit code (None when argv parses), stdout, stderr and namespace of parse(argv)."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    return (code, *capsys.readouterr(), args)


# argument tails after a command's name; all but "help", "missing" and "dashdash_first"
# carry every required flag as a flag
TAILS = {
    "help": lambda required: ["-h"],
    "help_after_required": lambda required: required + ["-h"],
    "valid": lambda required: required,
    "repeated_format": lambda required: required + ["--format", "json", "--format", "csv"],
    "dashdash_first": lambda required: ["--", *required],
    "dashdash_last": lambda required: required + ["--"],
    "missing": lambda required: [],
    "unknown_flag": lambda required: required + ["--bogus"],
    "bad_format": lambda required: required + ["--format", "xml"],
    **{
        f"non_integer_{flag}": lambda required, flag=flag: required + [f"--{flag}", "x"]
        for flag in ("a", "d", "e0")
    },
    "extra_positional": lambda required: required + ["extra"],
}


def _built(monkeypatch):
    """The ArgumentParsers constructed from here on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestParser:
    @pytest.mark.parametrize("tail", sorted(TAILS))
    @pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
    def test_one_leaf_parses_as_the_full_tree(self, capsys, command, tail):
        argv = [*command, *TAILS[tail](_required(COMMANDS[command][1]))]
        tree = build_parser()
        assert parsed(capsys, cli._parse, argv) == parsed(capsys, tree.parse_args, argv)

    @pytest.mark.parametrize(
        "argv, usage",
        [
            # the usage line lists every group, or every command of the group named
            ([], "hk [-h] {formula,oracle,compare,fit,example} ..."),
            (["-h"], "hk [-h] {formula,oracle,compare,fit,example} ..."),
            (["bogus"], "hk [-h] {formula,oracle,compare,fit,example} ..."),
            (["compare"], "hk compare [-h] {cm-sop,dim1} ..."),
            (["compare", "-h"], "hk compare [-h] {cm-sop,dim1} ..."),
            (["compare", "bogus"], "hk compare [-h] {cm-sop,dim1} ..."),
            # argparse versions differ on a "--" before a command's name
            (["compare", "--", "dim1"], "usage: hk compare"),
        ],
        ids=["empty", "help", "bogus", "group", "group_help", "group_bogus", "dashdash"],
    )
    def test_argv_naming_no_command_gets_the_full_tree(self, capsys, argv, usage):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == parsed(capsys, build_parser().parse_args, argv)[:3]
        assert code in (0, 2) and usage in out + err

    @pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
    def test_the_standalone_leaf_has_the_tree_leafs_help(self, monkeypatch, command):
        built = _built(monkeypatch)
        cli._parse([*command, *_required(COMMANDS[command][1])])
        (leaf,) = built
        group, name = command
        assert leaf.prog == f"hk {group} {name}"
        assert leaf.format_help() == _choices(_choices(build_parser())[group])[name].format_help()

    @pytest.mark.parametrize(
        "command, extra, count",
        [
            *(pytest.param(c, [], 1, id="-".join(c)) for c in sorted(COMMANDS)),
            *(pytest.param(c, ["--bogus"], 21, id="-".join(c) + "-bogus") for c in COMMANDS),
            pytest.param(None, [], 20, id="full_tree"),
        ],
    )
    def test_parsers_built(self, monkeypatch, command, extra, count):
        # a named command that parses builds its leaf alone; leftover arguments
        # add the full tree of 20 (root, five groups, 14 leaves); no argv builds only that
        built = _built(monkeypatch)
        if command is None:
            build_parser()
        else:
            with contextlib.suppress(SystemExit):
                cli._parse([*command, *_required(COMMANDS[command][1]), *extra])
        assert len(built) == count

    @pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
    def test_unknown_flag_prints_the_root_usage(self, capsys, command):
        code, out, err = run(capsys, *command, *_required(COMMANDS[command][1]), "--bogus")
        assert code == 2 and out == ""
        assert err.startswith("usage: hk [-h] {formula,oracle,compare,fit,example} ...\n")

    def test_no_command_builds_every_leaf(self):
        groups = _choices(build_parser())
        leaves = [(group, name) for group, sub in groups.items() for name in _choices(sub)]
        assert sorted(leaves) == sorted(COMMANDS)


# one small argv per command, run after its group and name
SAMPLES = {
    ("formula", "cm-sop"): ["--d", "3", "--e0", "1", "--s", "2..5"],
    ("formula", "ehk"): ["--d", "2", "--e0", "3"],
    ("formula", "stanley-reisner"): ["--d", "3", "--facets", "8"],
    ("formula", "dim1"): ["--preset", "fermat5"],
    ("formula", "sop-dim1"): ["--e0", "5", "--alpha=-4,-6"],
    ("oracle", "monomial"): ["--exponents", "1,1", "--s", "1..3"],
    ("oracle", "dim1"): ["--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "2..4"],
    ("oracle", "groebner"): ["--a", "5", "--gens", "8,0,0;0,8,0;0,0,8"],
    ("compare", "cm-sop"): ["--exponents", "1,2", "--s", "1..4"],
    ("compare", "dim1"): ["--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..4"],
    ("fit", "dim1"): ["--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "2..7",
                      "--holdout", "0"],
    ("fit", "ehk"): ["--exponents", "1,1", "--s", "2..9"],
    ("example", "fermat5"): ["--e", "2..4"],
    ("example", "three-vars"): ["--n", "2,2,3"],
}
# every oracle the commands reach, as cli names it
ORACLES = ("rees_colength_monomial", "rees_colength_dim1", "alpha_table", "initial_ideal")


class TestEveryPassHasAnOracle:
    def test_every_command_has_a_sample(self):
        assert sorted(SAMPLES) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
    def test_no_pass_without_an_oracle(self, capsys, monkeypatch, command):
        argv = [*command, *SAMPLES[command], "--format", "json"]
        # the sample runs, so a sample that exits 2 cannot meet the guard below
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["verdict"] in ("pass", "unchecked")

        def unavailable(*args):
            raise RuntimeError("the oracle ran")

        for name in ORACLES:
            monkeypatch.setattr(cli, name, unavailable)
        code, out, _ = run(capsys, *argv)
        assert not (code == 0 and json.loads(out)["verdict"] == "pass")
