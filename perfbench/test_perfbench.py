"""Tests of the benchmark itself: the gate, the seeding and the traced run.

Run from the repository root with `python3 -m pytest perfbench`.  They
are not part of the package's own suite (pyproject's testpaths is
tests/); they take about half a minute, because each workload runs
once untraced and once traced.
"""
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reeshk.cli  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, Command, check, commands, run_repetition  # noqa: E402

GROEBNER = ("buchberger", "quotient_colength", "ideals_equal")

# the layers each workload is meant to stress; every one must be called there
STRESSED = {
    "dim1-fermat5": [
        "monomial_algebra.minimalize", "monomial_algebra.product",
        *(f"binomial_groebner.{name}" for name in GROEBNER),
        "rees_oracle.rees_colength_dim1", "rees_oracle.alpha_table",
        "rees_oracle.fit_quasi_polynomial", "polynomials.interpolate",
        "hk_formulas.cordim1_hk", "hk_formulas.sop_dim1_hk", "cli.main",
    ],
    "monomial-uniform": [
        "monomial_algebra.colength", "rees_oracle.rees_colength_monomial",
        "rees_oracle.estimate_ehk", "polynomials.interpolate", "hk_formulas.cm_sop_hk",
    ],
    "monomial-skewed": [
        "monomial_algebra.minimalize", "monomial_algebra.colength",
        "rees_oracle.rees_colength_monomial", "hk_formulas.cm_sop_hk",
    ],
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Per workload: the untraced and traced reports of run_repetition, and the spans."""
    result = {}
    for workload in WORKLOADS:
        spec = {"workload": workload, "seed": 0, "rep": 0, "trace": False}
        plain = run_repetition(reeshk.cli, spec)
        spans_out = tmp_path_factory.mktemp("spans") / f"{workload}.json"
        traced = run_repetition(reeshk.cli, {**spec, "trace": True, "spans_out": str(spans_out)})
        spans = [Span(*span) for span in json.loads(spans_out.read_text())]
        result[workload] = (plain, traced, spans)
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_output_is_byte_identical(runs, workload):
    plain, traced, _ = runs[workload]
    assert plain["failures"] == traced["failures"] == []
    assert traced["digests"] == plain["digests"]


@pytest.mark.parametrize("workload", sorted(STRESSED))
def test_stressed_layers_are_called(runs, workload):
    metrics = runs[workload][1]["layers"]
    for layer in STRESSED[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer


@pytest.mark.parametrize("workload", ["monomial-uniform", "monomial-skewed"])
def test_monomial_workloads_never_reach_groebner(runs, workload):
    metrics = runs[workload][1]["layers"]
    for name in GROEBNER:
        assert metrics[f"binomial_groebner.{name}.calls"] == 0


def test_wrappers_see_calls_through_imported_names(runs):
    # binomial_groebner and rees_oracle import these functions by name
    _, traced, spans = runs["dim1-fermat5"]
    metrics = traced["layers"]
    parents = {(spans[s.parent].name, s.name) for s in spans if s.parent >= 0}
    assert ("binomial_groebner.buchberger", "monomial_algebra.minimalize") in parents
    assert ("binomial_groebner.quotient_colength", "binomial_groebner.buchberger") in parents
    assert ("rees_oracle.rees_colength_dim1", "binomial_groebner.ideals_equal") in parents
    assert metrics["rees_oracle.rees_colength_dim1.tail_steps"] > 0
    commands_seen = {s.command for s in spans}
    assert commands_seen == set(range(len(WORKLOADS["dim1-fermat5"])))


def test_every_per_layer_metric_is_produced(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set().union(*(traced["layers"] for _, traced, _ in runs.values()))
    # taken in run.py from the untraced and traced repetitions
    produced |= {"trace.overhead_s", "calibration.slice_s", "calibration.raw_wall_s",
                 "calibration.scaled_from_around"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("reeshk")}
    tracer = Tracer()
    tracer.install()
    assert reeshk.binomial_groebner.minimalize is not before["reeshk.binomial_groebner"]["minimalize"]
    tracer.uninstall()
    for name, attrs in before.items():
        assert dict(vars(sys.modules[name])) == attrs
    assert "product" in vars(reeshk.monomial_algebra.MonomialIdeal)
    assert not hasattr(reeshk.monomial_algebra.MonomialIdeal.product, "__wrapped__")


def test_seed_permutes_tuples_and_reps_rotate_them():
    for workload, cmds in WORKLOADS.items():
        assert commands(workload, 7, 0) == commands(workload, 7, 0)
        for rep in range(3):
            got = commands(workload, 7, rep)
            assert sorted(c.rows for c in got) == sorted(c.rows for c in cmds)
            for cmd in got:
                assert cmd.argv[-2:] == ("--format", "json")
    # over four repetitions the exponent 2 of 2,1,1,1 visits every variable
    positions = set()
    for rep in range(4):
        cmd = next(c for c in commands("monomial-skewed", 3, rep) if c.argv[3].count(",") == 3)
        positions.add(cmd.argv[3].split(",").index("2"))
    assert positions == {0, 1, 2, 3}
    orders = {tuple(c.argv for c in commands("monomial-skewed", seed, 0)) for seed in range(20)}
    assert len(orders) > 1


def _doc(rows, verdict="pass"):
    return json.dumps({"rows": [{"match": m} for m in rows], "verdict": verdict})


def test_gate_counts_each_kind_of_failure():
    cmd = Command(("compare",), rows=2)
    assert check(cmd, 0, _doc([True, True, None])) == (2, "")
    assert check(cmd, 1, _doc([True, True]))[1].startswith("exit code")
    assert check(cmd, 0, _doc([True, True], verdict="fail"))[1].startswith("verdict")
    assert check(cmd, 0, _doc([True, True, False], verdict="pass"))[1] == "a row has match: false"
    assert check(cmd, 0, _doc([True]))[1] == "1 verified rows, expected 2"
    assert check(cmd, 0, "not json")[1] == "output is not JSON"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monomial-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_during_a_serial_block():
    with SpeedProbe() as probe:
        _busy(0.3)
    assert probe.during and len(probe.samples) >= 3
    assert probe.slice_s == sum(probe.samples) / len(probe.samples)
    assert 0.25 < probe.wall_s < 0.35


def test_probe_never_samples_while_the_program_has_company():
    # a thread or a child process of the program must not slow the slice
    with SpeedProbe() as probe:
        done = threading.Event()
        worker = threading.Thread(target=done.wait)
        worker.start()
        _busy(0.3)  # the main thread takes every alarm while the other one lives
        done.set()
        worker.join()
    assert not probe.during and probe.samples == []
    assert probe.slice_s == sum(probe.around) / len(probe.around)

    child = [sys.executable, "-c", "import time\nend = time.process_time() + 0.3\n"
             "while time.process_time() < end: pass"]
    with SpeedProbe() as probe:
        subprocess.run(child, check=True)
    assert not probe.during
    assert probe.cpu_s > 0.25  # the child's CPU time counts
