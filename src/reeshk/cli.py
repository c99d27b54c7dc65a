"""Command line front end: evaluate formulas, run oracles, compare and fit.

Exit codes: 0 no mismatch (verdict pass, or unchecked when no row has a
formula and an oracle), 1 mismatch or golden failure, 2 invalid input, 3
resource cap exceeded, 4 internal error (traceback on stderr, nothing on
stdout).  Numbers are emitted as exact decimal strings; rationals as 'num/den'.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from math import lcm, prod
from typing import Optional, Sequence

from .hk_formulas import (
    Dim1Input,
    QuasiPolynomialHK,
    binomial,
    check_invariants,
    check_positive,
    check_prime,
    cm_sop_hk,
    compare_to_eto_yoshida,
    cordim1_hk,
    dim1_hk,
    ehk_cm_sop,
    sop_dim1_hk,
    stanley_reisner_ehk,
)
from .binomial_groebner import check_exponent, initial_ideal
from .monomial_algebra import (
    InfiniteColength,
    MonomialIdeal,
    format_ideal,
    parse_ideal,
)
from .rees_oracle import (
    InsufficientSamples,
    OracleError,
    VARIANTS,
    alpha_table,
    estimate_ehk,
    fit_quasi_polynomial,
    parameter_ideal,
    rees_colength_dim1,
    rees_colength_monomial,
)

MONOMIAL_CAP = 10**5
# rees-of-m sums a q below its window 2a - 1 at about 1-3 us per unit of q a, and steps a
# later q up its class mod a from the sum at its base; up to q a = 2^18 a sweep takes
# 3-20 ms for a <= 64 and at most about 0.8 s (a = 362, q = 719, in the window); rees-of-x,
# the 3-variable count and the alpha table, takes at most 0.2 s there
QA_CAP = 2**18
# `oracle groebner --gens`: an n-bit mask per generator; 10^4 random ones: 0.06 s, 41 MiB peak
GENS_CAP = 10**4
# rows of a closed form: `formula cm-sop`, one per s, and `formula dim1`, one per
# residue class; 10^4 rows of `formula cm-sop --d 3 --e0 1` take about 0.09 s
# in-process, and a dim1 class 13-18 us and 0.8-1.5 KiB, by output format
ROW_CAP = 10**4
# `formula cm-sop` weighs a row at d as max(1, d^2 (d + 200) // CM_SOP_SCALE) rows of
# 9.6 us, the in-process cost of a row at d = 3 over s = 1..10^4; at s = 10^4, rows at
# d = 33, 100, 400 and 1000 took 0.15 ms, 1.3 ms, 40 ms and 0.52 s, within 25% of that
CM_SOP_SCALE = 22_000


class ResourceCapExceeded(Exception):
    """A command's inputs ask for more work than its cap allows; `hk --force` lifts it."""


# Known invariants of the maximal ideal of the Fermat quintic ring
# k[[X,Y]]/(X^5-Y^5), p = +-2 mod 5.  Its multiplicity e0 is the exponent a = 5.
FERMAT5 = Dim1Input(
    e0=5,
    e1=10,
    r=4,
    rho=None,
    lengths=(0, 1, 3, 6),
    alpha=((-4, -6), (-3, -5), (-2, -3), (-1, -1)),
)
FERMAT5_P = 2  # the characteristic at which FERMAT5's alpha table was read


class RunReport:
    """What a command found.

    Each row is already in its JSON form: a point, then a formula and an
    oracle value where the row has them, then whether they match (None
    unless both are there).
    """

    def __init__(self, instance: dict[str, str], mode: str) -> None:
        self.instance = instance
        self.mode = mode
        self.rows: list[dict[str, object]] = []

    @property
    def verdict(self) -> str:
        """'fail' if a row mismatches, 'unchecked' if no row compares anything, else 'pass'."""
        matches = {row["match"] for row in self.rows}
        return "fail" if False in matches else "pass" if True in matches else "unchecked"

    def add(
        self,
        point: dict[str, object],
        formula: object = None,
        oracle: object = None,
    ) -> None:
        # Fractions render as 'num/den', everything else as decimal text
        row: dict[str, object] = {"point": {k: str(v) for k, v in point.items()}}
        if formula is not None:
            row["formula"] = str(formula)
        if oracle is not None:
            row["oracle"] = str(oracle)
        both = formula is not None and oracle is not None
        row["match"] = row["formula"] == row["oracle"] if both else None
        self.rows.append(row)


def _grid(report: RunReport) -> list[list[str]]:
    """Header and one line per row: the point keys in order of first use, then the values."""
    keys = list(dict.fromkeys(k for row in report.rows for k in row["point"]))
    grid = [keys + ["formula", "oracle", "match"]]
    for row in report.rows:
        match = "" if row["match"] is None else str(row["match"]).lower()
        grid.append(
            [row["point"].get(k, "") for k in keys]
            + [row.get("formula", ""), row.get("oracle", ""), match]
        )
    return grid


def render_table(report: RunReport) -> str:
    out = io.StringIO()
    print(f"# mode: {report.mode}", file=out)
    for key, value in report.instance.items():
        print(f"# {key}: {value}", file=out)
    grid = _grid(report)
    widths = [max(map(len, column)) for column in zip(*grid)]
    for line in grid:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip(), file=out)
    print(f"verdict: {report.verdict}", file=out)
    return out.getvalue()


def render_csv(report: RunReport) -> str:
    import csv  # here, not at the top: only --format csv needs it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(_grid(report))
    return out.getvalue()


def render_json(report: RunReport) -> str:
    doc = {
        "instance": report.instance,
        "mode": report.mode,
        "rows": report.rows,
        "verdict": report.verdict,
    }
    return json.dumps(doc, indent=2) + "\n"


RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def parse_range(text: str) -> range:
    """'3' -> range(3, 4); '2..5' -> range(2, 6), ascending and nonempty."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}: expected N or LO..HI") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def parse_int_tuple(text: str) -> tuple[int, ...]:
    """'1,2,3' -> (1, 2, 3)."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}: expected integers such as 1,2,3") from exc


def _report(args: argparse.Namespace, *echo: str, **fields: object) -> RunReport:
    """An empty report of the command in args.

    The mode is the command's group.  The instance opens with group: name,
    then the arguments named in echo, then the fields, all as text.
    """
    values = {name: getattr(args, name) for name in echo} | fields
    instance = {k: str(v) for k, v in values.items()}
    return RunReport({args.command: args.which, **instance}, args.command)


def _monomial_setup(
    exponents: tuple[int, ...], s_text: str, force: bool
) -> tuple[MonomialIdeal, range]:
    """The parameter ideal and its s range, refused past the cap on its walk unless forced.

    Each s of a sweep builds its own products I^[s] I^n up to n = d (s - 1) + 1,
    the first power with I^[s] I^(n-s) = I^n; their time follows their
    generators, the C(n + d, d) monomials of degree at most n.  The cap
    bounds the sum over the sweep.  It is sized for the walk on the
    unreduced ideal and stays so, though the oracle divides the exponents
    out and runs (x_1, ..., x_d) on the orbit ring, which is faster.
    """
    ideal = parameter_ideal(exponents)  # invalid input exits 2 before the cap
    ss = parse_range(s_text)
    check_positive(ss[0], "s")  # the range ascends, so nothing is listed
    if not force:
        d, top, walk = len(exponents), ss[-1], 0
        # from the largest s down, so a huge range is refused without being listed
        for s in reversed(ss):
            walk += binomial(d * (s - 1) + 1 + d, d)
            span = s if s == top else f"{s}..{top}"
            text = f"s = {span} in {d} variables: a walk of {walk} monomials"
            _cap(text, walk, MONOMIAL_CAP, force)
    return ideal, ss


def _dim1_setup(a: int, p: int, e_text: str, force: bool) -> dict[int, int]:
    """{e: p^e} over the e range, refused past the cap on q a unless forced; p is checked here."""
    check_exponent(a)  # invalid input exits 2 even where a cap would refuse it
    es = parse_range(e_text)
    # refused before the formula side runs; the range ascends, so nothing is listed
    check_positive(es[0], "e")
    if p <= QA_CAP or force:  # a larger p meets the cap before its slow primality test
        check_prime(p)
    e = es[-1]
    # p >= 2, so p^e is past the cap once e reaches its bit length; a larger e is refused unformed
    q = p**e if e < QA_CAP.bit_length() else QA_CAP + 1
    _cap(f"q a = {p}^{e}*{a}", q * a, QA_CAP, force)
    return {e: p**e for e in es}


def _cap(text: str, value: int, cap: int, force: bool) -> int:
    """value, refused past cap unless forced; text names it.  Every cap refuses here."""
    if value > cap and not force:
        raise ResourceCapExceeded(f"{text} exceeds the cap {cap}; rerun with --force")
    return value


def _residue_rows(report: RunReport, qp: QuasiPolynomialHK) -> RunReport:
    """One formula row per residue class of the quasi-polynomial."""
    for residue, poly in enumerate(qp.format()):
        report.add({"residue": residue}, formula=poly)
    return report


def cmd_formula_cm_sop(args: argparse.Namespace) -> RunReport:
    ss = parse_range(args.s)
    # invalid input exits 2 before the cap; the range ascends, so nothing is listed
    check_invariants(args.d, 2, args.e0, ss[0])
    rows = ss.stop - ss.start  # the width from the range's ends, never its length
    weight = max(1, args.d**2 * (args.d + 200) // CM_SOP_SCALE)  # a row's cost in d
    each = f" at {weight} rows' cost each (d = {args.d})" if weight > 1 else ""
    _cap(f"a range of {rows} values of s{each}", rows * weight, ROW_CAP, args.force)
    # digits of e0 d s^(d+1), which bounds the value; log10(2) < 0.30103
    digits = (args.e0 * args.d * ss[-1] ** (args.d + 1)).bit_length() * 30103 // 100000 + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, as before 3.10.7
    _cap(f"a value of up to {digits} digits", digits, limit or digits, args.force)
    report = _report(args, "d", "e0")
    lift = 0 < limit < digits  # forced past the limit, the value prints in full
    try:
        if lift:
            sys.set_int_max_str_digits(0)
        for s in ss:
            report.add({"s": s}, formula=cm_sop_hk(args.d, args.e0, s))
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    return report


def cmd_formula_ehk(args: argparse.Namespace) -> RunReport:
    report = _report(args, "d", "e0")
    report.add({"d": args.d, "e0": args.e0}, formula=ehk_cm_sop(args.d, args.e0))
    return report


def cmd_formula_stanley_reisner(args: argparse.Namespace) -> RunReport:
    report = _report(args, "d", "facets")
    report.add(
        {"d": args.d, "facets": args.facets},
        formula=stanley_reisner_ehk(args.d, args.facets),
    )
    return report


def cmd_formula_dim1(args: argparse.Namespace) -> RunReport:
    if args.preset is not None:
        flags = ("e0", "e1", "r", "rho", "lengths", "alpha")
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"--preset fixes the instance; drop {', '.join(given)}")
        inp = FERMAT5
        report = _report(args, "preset")
    else:
        required = {"--e0": args.e0, "--e1": args.e1, "--r": args.r}
        missing = [flag for flag, value in required.items() if value is None]
        if missing:
            raise ValueError(f"need --preset or all of: {', '.join(sorted(missing))}")
        alpha = (
            tuple(parse_int_tuple(chunk) for chunk in args.alpha.split(";"))
            if args.alpha
            else ()
        )
        inp = Dim1Input(
            e0=args.e0,
            e1=args.e1,
            r=args.r,
            rho=args.rho,
            lengths=parse_int_tuple(args.lengths) if args.lengths else (),
            alpha=alpha,
        )
        report = _report(args, "e0", "e1", "r")
    # one row per residue class; Dim1Input has refused invalid input before the cap
    period = lcm(*map(len, inp.alpha))
    _cap(f"the lcm {period} of the alpha periods", period, ROW_CAP, args.force)
    qp = dim1_hk(inp) if inp.rho is not None else cordim1_hk(inp)
    report.instance["period"] = str(qp.period)
    return _residue_rows(report, qp)


def cmd_formula_sop_dim1(args: argparse.Namespace) -> RunReport:
    qp = sop_dim1_hk(args.e0, parse_int_tuple(args.alpha))
    return _residue_rows(_report(args, "e0", period=qp.period), qp)


def cmd_oracle_monomial(args: argparse.Namespace) -> RunReport:
    exponents = parse_int_tuple(args.exponents)
    ideal, ss = _monomial_setup(exponents, args.s, args.force)
    report = _report(args, "exponents", e0=prod(exponents))
    for s, value in rees_colength_monomial(ideal, ss).items():
        report.add({"s": s}, oracle=value)
    return report


def cmd_oracle_dim1(args: argparse.Namespace) -> RunReport:
    qs = _dim1_setup(args.a, args.p, args.e, args.force)
    report = _report(args, "a", "p", "variant")
    lengths = rees_colength_dim1(args.a, args.variant, [*qs.values()])
    for e, q in qs.items():
        report.add({"e": e, "q": q}, oracle=lengths[q])
    return report


def cmd_oracle_groebner(args: argparse.Namespace) -> RunReport:
    check_exponent(args.a)  # invalid input exits 2 even where the cap would refuse it
    gens = args.gens.count(";") + 1  # counted before parse_ideal minimalises them
    _cap(f"{gens} generators", gens, GENS_CAP, args.force)
    ideal = parse_ideal(args.gens)
    initial = initial_ideal(args.a, ideal)
    report = _report(args, "a", vars=ideal.ambient_dim, gens=format_ideal(ideal))
    report.add({"result": "initial-ideal"}, oracle=format_ideal(initial))
    report.add({"result": "colength"}, oracle=initial.colength())
    return report


def cmd_compare_cm_sop(args: argparse.Namespace) -> RunReport:
    exponents = parse_int_tuple(args.exponents)
    ideal, ss = _monomial_setup(exponents, args.s, args.force)
    d, e0 = len(exponents), prod(exponents)
    report = _report(args, "exponents", d=d, e0=e0)
    for s, value in rees_colength_monomial(ideal, ss).items():
        report.add({"s": s}, formula=cm_sop_hk(d, e0, s), oracle=value)
    return report


def cmd_compare_dim1(args: argparse.Namespace) -> RunReport:
    qs = _dim1_setup(args.a, args.p, args.e, args.force)
    report = _report(args, "a", "p", "variant")
    if args.variant == "rees-of-x":
        # formula side: q^2 e0(m) + q alpha(q), alpha taken from the
        # plane quotient lengths, independent of the 3-variable count
        alpha = alpha_table(args.a, 0, [*qs.values()])[0]
        formula = {e: args.a * q * q + alpha[q] * q for e, q in qs.items()}
    elif (args.a, args.p) == (FERMAT5.e0, FERMAT5_P):
        qp = cordim1_hk(FERMAT5)
        formula = {e: qp.poly_for(e)(q) for e, q in qs.items()}
    else:
        raise ValueError(
            "compare dim1 --variant rees-of-m needs the known invariant set; "
            "only --a 5 --p 2 is supported"
        )
    lengths = rees_colength_dim1(args.a, args.variant, [*qs.values()])
    for e, q in qs.items():
        report.add({"e": e, "q": q}, formula=formula[e], oracle=lengths[q])
    return report


def cmd_fit_dim1(args: argparse.Namespace) -> RunReport:
    qs = _dim1_setup(args.a, args.p, args.e, args.force)
    lengths = rees_colength_dim1(args.a, args.variant, [*qs.values()])
    values = {e: lengths[q] for e, q in qs.items()}
    # the paper's quasi-polynomials in q have degree 2, leading term e0 q^2
    degree = 2
    qp = fit_quasi_polynomial(values, args.p, degree, args.period, holdout=args.holdout)
    report = _report(
        args, "a", "p", "variant", degree=degree, period=args.period, valid_from_e=qp.valid_from_e
    )
    _residue_rows(report, qp)
    for e, q in qs.items():
        # the fit's exact value: below valid_from_e it may be a non-integral
        # Fraction, which prints as num/den and does not match
        report.add({"e": e, "q": q}, formula=qp.poly_for(e)(q), oracle=values[e])
    return report


def cmd_fit_ehk(args: argparse.Namespace) -> RunReport:
    exponents = parse_int_tuple(args.exponents)
    ideal, ss = _monomial_setup(exponents, args.s, args.force)
    d, e0 = len(exponents), prod(exponents)
    values = rees_colength_monomial(ideal, ss)
    estimate = estimate_ehk(values, d)
    verdict = compare_to_eto_yoshida(estimate, d, e0)
    report = _report(
        args, source="oracle", d=d, e0=e0, estimate=estimate, **{"eto-yoshida": verdict}
    )
    for s, value in values.items():
        report.add({"s": s}, oracle=value)
    report.add({"s": "limit"}, formula=ehk_cm_sop(d, e0), oracle=estimate)
    return report


def cmd_example_fermat5(args: argparse.Namespace) -> RunReport:
    a, p = FERMAT5.e0, FERMAT5_P
    qs = _dim1_setup(a, p, args.e, args.force)
    sweep = [*qs.values()]
    report = _report(args, ring="k[[X,Y]]/(X^5-Y^5)", p=p)
    # alpha table vs the known periodic values
    table = alpha_table(a, len(FERMAT5.alpha) - 1, sweep)
    for n, seq in enumerate(FERMAT5.alpha):
        for e, q in qs.items():
            report.add(
                {"check": "alpha", "n": n, "e": e},
                formula=seq[e % len(seq)],
                oracle=table[n][q],
            )
    # (m, mt) in R(m) and (m, It) in R(I): each quasi-polynomial against
    # its known residue polynomials, then the oracle lengths against it
    legs = {
        "rees-of-m": (cordim1_hk(FERMAT5), ("5*q^2", "5*q^2 - 10")),
        "rees-of-x": (sop_dim1_hk(a, FERMAT5.alpha[0]), ("5*q^2 - 4*q", "5*q^2 - 6*q")),
    }
    for variant, (qp, golden) in legs.items():
        for residue, poly in enumerate(qp.format()):
            report.add(
                {"check": f"{variant}-poly", "residue": residue},
                formula=poly,
                oracle=golden[residue],
            )
    lengths = {variant: rees_colength_dim1(a, variant, sweep) for variant in legs}
    for e, q in qs.items():
        for variant, (qp, _) in legs.items():
            report.add(
                {"check": variant, "e": e, "q": q},
                formula=qp.poly_for(e)(q),
                oracle=lengths[variant][q],
            )
    return report


def cmd_example_three_vars(args: argparse.Namespace) -> RunReport:
    exps = parse_int_tuple(args.n)
    if len(exps) != 3:
        raise ValueError("--n takes three exponents n1,n2,n3")
    ideal, ss = _monomial_setup(exps, args.s, args.force)
    e0 = prod(exps)
    report = _report(args, "n", e0=e0)
    # known value at s = 2: 23 n1 n2 n3
    report.add({"check": "golden", "s": 2}, formula=cm_sop_hk(3, e0, 2), oracle=23 * e0)
    for s, value in rees_colength_monomial(ideal, ss).items():
        report.add({"check": "oracle", "s": s}, formula=cm_sop_hk(3, e0, s), oracle=value)
    return report


# A flag maps to int or str for a required flag of that type, to its
# default for an optional one, or to the keyword arguments of add_argument.
INT = {"type": int}
DIM1 = {"--a": int, "--p": int, "--variant": {"choices": VARIANTS, "required": True}, "--e": str}

GROUPS = {
    "formula": "evaluate closed forms",
    "oracle": "run brute-force oracles",
    "compare": "formula vs oracle",
    "fit": "fit quasi-polynomials and multiplicities",
    "example": "reproduce the worked examples",
}

# (group, name) -> (handler, flags)
COMMANDS = {
    ("formula", "cm-sop"): (cmd_formula_cm_sop, {"--d": int, "--e0": int, "--s": str}),
    ("formula", "ehk"): (cmd_formula_ehk, {"--d": int, "--e0": int}),
    ("formula", "stanley-reisner"): (cmd_formula_stanley_reisner, {"--d": int, "--facets": int}),
    ("formula", "dim1"): (cmd_formula_dim1, {
        "--preset": {"choices": ["fermat5"]},
        "--e0": INT,
        "--e1": INT,
        "--r": INT,
        "--rho": INT,
        "--lengths": {"help": "lengths of R/I^n from n = 0, e.g. 0,1,3,6"},
        "--alpha": {"help": "one periodic tuple per n, e.g. --alpha=-4,-6;-3,-5"},
    }),
    ("formula", "sop-dim1"): (cmd_formula_sop_dim1, {
        "--e0": int,
        "--alpha": {"required": True, "help": "periodic values, e.g. --alpha=-4,-6"},
    }),
    ("oracle", "monomial"): (cmd_oracle_monomial, {"--exponents": str, "--s": str}),
    ("oracle", "dim1"): (cmd_oracle_dim1, DIM1),
    ("oracle", "groebner"): (cmd_oracle_groebner, {
        "--a": int,
        "--gens": {"required": True, "help": "ideal text form, e.g. '8,0,0;0,8,0;0,0,8'"},
    }),
    ("compare", "cm-sop"): (cmd_compare_cm_sop, {"--exponents": str, "--s": str}),
    ("compare", "dim1"): (cmd_compare_dim1, DIM1),
    ("fit", "dim1"): (cmd_fit_dim1, {**DIM1, "--period": 2, "--holdout": 1}),
    ("fit", "ehk"): (cmd_fit_ehk, {"--exponents": str, "--s": str}),
    ("example", "fermat5"): (cmd_example_fermat5, {"--e": "2..5"}),
    ("example", "three-vars"): (cmd_example_three_vars, {"--n": "1,1,1", "--s": "2"}),
}

# Exit code of each error; the first class the error is an instance of wins,
# so InsufficientSamples (an OracleError) counts as invalid input.  Any
# other exception is a bug in the program and exits 4.
EXIT_CODES = {
    ResourceCapExceeded: 3,
    ValueError: 2,
    InsufficientSamples: 2,
    InfiniteColength: 2,
    OracleError: 1,
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The `hk` parser: every group, and the leaf of the command that argv[:2] names.

    Any other argv, or none, gets every leaf.  All five groups stay, so the
    root usage line in an "unrecognized arguments" error lists them all.
    """
    parser = argparse.ArgumentParser(
        prog="hk",
        description="Exact Hilbert-Kunz functions of Rees algebra ideals.",
        allow_abbrev=False,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=sorted(RENDERERS), default="table", help="output format"
    )
    common.add_argument("--force", action="store_true", help="bypass resource caps")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {
        group: sub.add_parser(group, help=text, allow_abbrev=False).add_subparsers(
            dest="which", required=True
        )
        for group, text in GROUPS.items()
    }
    chosen = tuple(argv or ())[:2]
    commands = {chosen: COMMANDS[chosen]} if chosen in COMMANDS else COMMANDS
    for (group, name), (handler, flags) in commands.items():
        # one spelling per flag: no unique prefix stands in for it
        leaf = groups[group].add_parser(name, parents=[common], allow_abbrev=False)
        leaf.set_defaults(handler=handler)
        for flag, spec in flags.items():
            if isinstance(spec, dict):
                leaf.add_argument(flag, **spec)
            elif isinstance(spec, type):
                leaf.add_argument(flag, type=spec, required=True)
            else:
                leaf.add_argument(flag, type=type(spec), default=spec)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one `hk` command on argv (default sys.argv[1:]) and return its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.handler(args)
        text = RENDERERS[args.format](report)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    except Exception:
        import traceback  # here, not at the top: startup time stays as it was

        traceback.print_exc()
        return 4
    sys.stdout.write(text)
    return 1 if report.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
