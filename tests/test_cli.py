"""End-to-end CLI: golden values, formats, exit codes."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reeshk import cli
from reeshk.cli import RunReport, main, parse_range, render_csv, render_json
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
        inp = Dim1Input(e0=1, e1=-1, r=1, rho=1, lengths=(0, 1), alpha=((0, -1),), p=2)
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

    def test_ehk_formula_source(self, capsys):
        code, out, _ = run(
            capsys, "fit", "ehk", "--d", "4", "--e0", "1", "--s", "4..11",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instance"]["estimate"] == "61/30"
        assert doc["instance"]["eto-yoshida"] == "equal"

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

    def test_xy_zn(self, capsys):
        code, out, _ = run(
            capsys, "example", "xy-zn", "--e0", "2", "--s", "2..5", "--format", "csv"
        )
        assert code == 0
        assert [r["formula"] for r in csv_rows(out)] == ["20", "70", "168", "330"]

    def test_xy_zn_small_s_rejected(self, capsys):
        code, _, _ = run(capsys, "example", "xy-zn", "--e0", "2", "--s", "1..3")
        assert code == 2

    def test_xy_zn_huge_bad_range_is_not_listed(self, capsys):
        # refused at the range's first s, before the row cap looks at its width
        code, out, err = run(capsys, "example", "xy-zn", "--e0", "2", "--s=-1000000000000..1")
        assert code == 2 and out == ""
        assert "s >= 2" in err


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
    "q_cap": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "13"],
        3, "q = 2^13 exceeds the cap 4096",
    ),
    # refused before p**e is formed: no huge q printed, no int-to-text limit hit
    "q_cap_huge_e": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m", "--e", "1..1000000"],
        3, "q = 2^1000000 exceeds the cap 4096; rerun with --force",
    ),
    # the dim-1 oracles allocate and walk lists of length a
    "a_cap": (
        ["oracle", "dim1", "--a", "5000", "--p", "2", "--variant", "rees-of-m", "--e", "1"],
        3, "a = 5000 exceeds the cap 4096; rerun with --force",
    ),
    # refused from the range's last element, before its e values are listed
    "q_cap_huge_range": (
        ["oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-m",
         "--e", "1..1000000000000"],
        3, "q = 2^1000000000000 exceeds the cap 4096; rerun with --force",
    ),
    # C(301, 3) monomials of degree at most 298 = 3 (100 - 1) + 1
    "monomial_cap": (
        ["oracle", "monomial", "--exponents", "1,1,1", "--s", "1..100"],
        3, "s = 100 in 3 variables walks 4499950 monomials, over the cap 100000; "
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
    "inconsistent_samples": (
        ["fit", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x", "--e", "2..9",
         "--period", "1", "--force"],
        1, "does not match",
    ),
}
# p is the characteristic, so a non-prime --p is refused on both dim1 formula paths
EXIT_CODE_MATRIX |= {
    f"{name}_p_{p}": (argv + ["--p", p], 2, f"p = {p} is not prime")
    for name, argv in [
        ("formula_dim1", ["formula", "dim1", "--e0", "5", "--e1", "10", "--r", "4",
                          "--lengths", "0,1,3,6", "--alpha=-4,-6;-3,-5;-2,-3;-1,-1"]),
        ("formula_sop_dim1", ["formula", "sop-dim1", "--e0", "5", "--alpha=-4,-6"]),
    ]
    for p in ("4", "1")
}
# the exponents fix d and e0, so fit ehk refuses either flag beside them, naming it
EXIT_CODE_MATRIX |= {
    f"fit_ehk_exponents_with_{flag}": (
        ["fit", "ehk", "--exponents", "1,1", f"--{flag}", value, "--s", "2..9"],
        2, f"--exponents fixes d and e0; drop --{flag}\n",
    )
    for flag, value in [("d", "3"), ("e0", "7")]
}
# the preset fixes every invariant, p included, so any instance flag is refused
EXIT_CODE_MATRIX |= {
    f"preset_with_{flag}_{value}": (
        ["formula", "dim1", "--preset", "fermat5", f"--{flag}={value}"], 2, f"--{flag}",
    )
    for flag, value in [("e0", 5), ("e1", 10), ("r", 4), ("rho", 1), ("lengths", "0,1,3,6"),
                        ("alpha", "-4,-6"), ("p", 3), ("p", 2)]
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CODE_MATRIX))
    def test_exit_code_matrix(self, capsys, case):
        argv, expected, fragment = EXIT_CODE_MATRIX[case]
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize(
        "error", [RuntimeError("boom"), KeyError("boom")], ids=["RuntimeError", "KeyError"]
    )
    def test_internal_error_exits_four(self, capsys, monkeypatch, error):
        def broken(*args):
            raise error

        monkeypatch.setattr(cli, "cm_sop_hk", broken)
        code, out, err = run(capsys, "formula", "cm-sop", "--d", "3", "--e0", "1", "--s", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("Traceback") and f"{type(error).__name__}: " in err

    def test_exit_code_reaches_the_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "reeshk.cli", "oracle", "dim1", "--a", "5", "--p", "2",
             "--variant", "rees-of-x", "--e", "13"],
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
        ],
        ids=["groebner_u", "groebner_vars", "fit_dim1_degree"],
    )
    def test_fixed_values_take_no_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

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
            "--e", "13",
        )
        assert code == 3
        assert "--force" in err

    def test_q_cap_force_override(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
            "--e", "13", "--force", "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[0]["oracle"] == str(5 * 8192**2 - 6 * 8192)

    def test_a_cap_force_override(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "dim1", "--a", "5000", "--p", "2", "--variant", "rees-of-m",
            "--e", "1", "--force",
        )
        assert code == 0

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
        assert "s = 222..223 in 2 variables walks 198471 monomials, over the cap 100000" in err

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
        assert code == 3 and "s = 1..2 in 3 variables walks 39 monomials, over the cap 35" in err

    def test_monomial_cap_force_override(self, capsys, monkeypatch):
        # inputs past the real cap are slow by design, so the cap is lowered:
        # s = 2 in 3 variables walks C(7, 3) = 35 monomials
        monkeypatch.setattr(cli, "MONOMIAL_CAP", 10)
        argv = ["oracle", "monomial", "--exponents", "1,1,1", "--s", "2", "--format", "csv"]
        code, _, err = run(capsys, *argv)
        assert code == 3 and "35 monomials, over the cap 10" in err
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

    ROW_COMMANDS = {
        "formula_cm_sop": ["formula", "cm-sop", "--d", "3", "--e0", "1"],
        "fit_ehk": ["fit", "ehk", "--d", "3", "--e0", "1"],
        "example_xy_zn": ["example", "xy-zn", "--e0", "2"],
    }

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    def test_row_cap(self, capsys, command):
        # refused from the range's ends, before any row is built; from s = 2,
        # since example xy-zn refuses s = 1 as invalid input first
        code, out, err = run(capsys, *self.ROW_COMMANDS[command], "--s", "2..1000000000001")
        assert code == 3 and out == ""
        assert "1000000000000 values of s exceed the cap of 10000 rows; rerun with --force" in err
        # wider than a C ssize_t, which len() of the range could not report
        assert run(capsys, *self.ROW_COMMANDS[command], "--s", f"2..{10**30}")[0] == 3

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    def test_row_cap_force_override(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "ROW_CAP", 6)
        argv = [*self.ROW_COMMANDS[command], "--s", "3..9", "--format", "csv"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "7 values of s exceed the cap of 6 rows" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and len(csv_rows(out)) >= 7

    def test_parse_range_lists_nothing(self):
        assert parse_range("2..5") == range(2, 6)
        assert parse_range("3") == range(3, 4)

    def test_mismatch_report_exits_one(self):
        report = RunReport({"check": "unit"}, "compare")
        report.add({"s": 1}, formula=3, oracle=4)
        assert report.verdict is False
        assert json.loads(render_json(report))["verdict"] == "fail"
        assert csv_rows(render_csv(report))[0]["match"] == "false"
