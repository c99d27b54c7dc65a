"""The benchmark's workloads: fixed `hk` command lists, the rows each must
verify, and one repetition of a workload (`run_repetition`).

A workload seed permutes the variable order of every monomial exponent
tuple and the order of the commands.  A permutation keeps e0 and every
exact answer but changes the staircase walk, so its time can differ by
a quarter from one order to another.  To keep that spread out of the
run-to-run figures, repetition r of a run also rotates each permuted
tuple by r places: a run of several repetitions visits every position
of every variable.  The dim1 inputs are fixed by (a, p, e).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
from typing import NamedTuple

from calibrate import SpeedProbe
from spans import Tracer, layer_metrics


class Command(NamedTuple):
    argv: tuple[str, ...]
    rows: int  # rows with match: true at the seed commit
    tuple_flag: str | None = None  # flag whose comma-separated value is permuted


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # The rees-of-m q^2 loop: many small 2-variable Groebner completions and
    # minimalize/product calls; the rees-of-x leg is the only 3-variable
    # Groebner load.  The staircase colength is a few percent here.
    "dim1-fermat5": (
        Command(("example", "fermat5", "--e", "2..8"), 46),
        Command(
            ("compare", "dim1", "--a", "5", "--p", "2", "--variant", "rees-of-x",
             "--e", "2..16", "--force"),
            15,
        ),
        Command(
            ("fit", "dim1", "--a", "7", "--p", "2", "--variant", "rees-of-m",
             "--e", "2..7", "--holdout", "0"),
            6,
        ),
    ),
    # Equal exponents: the staircase colength dominates and no Groebner
    # code runs, so a Groebner change should show no effect here.
    "monomial-uniform": (
        Command(("compare", "cm-sop", "--exponents", "1,1,1", "--s", "1..9"), 9, "--exponents"),
        Command(("compare", "cm-sop", "--exponents", "1,1,1,1", "--s", "1..4"), 4, "--exponents"),
        Command(("fit", "ehk", "--exponents", "1,1", "--s", "2..20"), 1, "--exponents"),
    ),
    # Mixed-degree generators: minimalize runs on thousands of generators per
    # call (dim1-fermat5 runs it on tens), then the staircase colength.
    "monomial-skewed": (
        Command(("compare", "cm-sop", "--exponents", "2,1,1,1", "--s", "1..4"), 4, "--exponents"),
        Command(("compare", "cm-sop", "--exponents", "1,2,3", "--s", "1..7"), 7, "--exponents"),
        Command(("example", "three-vars", "--n", "2,2,3", "--s", "2..6"), 6, "--n"),
    ),
}


def commands(workload: str, seed: int, rep: int) -> list[Command]:
    """The command list of one repetition, every argv ending in --format json."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for cmd in WORKLOADS[workload]:
        argv = list(cmd.argv)
        if cmd.tuple_flag is not None:
            at = argv.index(cmd.tuple_flag) + 1
            values = argv[at].split(",")
            rng.shuffle(values)
            shift = rep % len(values)
            argv[at] = ",".join(values[shift:] + values[:shift])
        out.append(cmd._replace(argv=(*argv, "--format", "json")))
    rng.shuffle(out)
    return out


def check(cmd: Command, code: int, out: str) -> tuple[int, str]:
    """Rows verified by one command, and why it failed ('' if it did not)."""
    if code != 0:
        return 0, f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return 0, "output is not JSON"
    verified = sum(1 for row in doc["rows"] if row.get("match") is True)
    if doc.get("verdict") != "pass":
        return verified, f"verdict {doc.get('verdict')!r}"
    if any(row.get("match") is False for row in doc["rows"]):
        return verified, "a row has match: false"
    if verified != cmd.rows:
        return verified, f"{verified} verified rows, expected {cmd.rows}"
    return verified, ""


def run_repetition(cli, spec: dict) -> dict:
    """Run one repetition's commands through cli.main in this process and check them.

    wall_s and cpu_s are at reference speed: each command is timed under
    a SpeedProbe, which also samples the machine's speed while it runs;
    raw_wall_s and raw_cpu_s are the same times unscaled.  peak_rss_mib
    adds the largest child process's peak to this process's.
    """
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    cmds = commands(spec["workload"], spec["seed"], spec["rep"])
    results, probes = [], []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        with SpeedProbe() as probe:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except Exception as exc:  # a crash is a failed command, not a failed run
                    code = f"uncaught {type(exc).__name__}: {exc}"
        results.append((cmd, code, out.getvalue(), err.getvalue()))
        probes.append(probe)
    if tracer is not None:
        tracer.uninstall()

    verified_rows, failures, digests = 0, [], []
    for cmd, code, out, err in results:
        rows, why = check(cmd, code, out) if isinstance(code, int) else (0, code)
        verified_rows += rows
        if why:
            failures.append(f"{' '.join(cmd.argv)}: {why} {err.strip()[:200]}".rstrip())
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    report = {
        "wall_s": sum(p.wall_s * p.scale for p in probes),
        "cpu_s": sum(p.cpu_s * p.scale for p in probes),
        "raw_wall_s": sum(p.wall_s for p in probes),
        "raw_cpu_s": sum(p.cpu_s for p in probes),
        "slice_s": sum(p.slice_s for p in probes) / len(probes),
        "scaled_from_around": sum(not p.during for p in probes),
        "peak_rss_mib": sum(
            resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024,
        "verified_rows": verified_rows,
        "attempted": len(cmds),
        "failures": failures,
        "digests": digests,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans, [p.scale for p in probes])
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as fh:
                json.dump([list(span) for span in tracer.spans], fh)
    return report
