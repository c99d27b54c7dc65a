"""The reeshk benchmark: verified `hk` sweeps, timed end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dim1-fermat5 --seed 1 --seconds 36 --trace 0

Load shape: a closed loop of one client.  Each repetition is a fresh,
single-threaded Python process (perfbench/worker.py) that imports
reeshk from ./src, then runs the workload's commands one after another
through `reeshk.cli.main(argv + ["--format", "json"])` and checks every
row.  Repetitions run until --seconds is used up (at least MIN_REPS);
each metric is the median over them, and times are scaled to a
reference machine speed (calibrate.py).  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates an
untraced and a traced repetition of the same inputs and reports the
per-layer metrics, the tracing overhead, and fails if tracing changed
any command's output.

The last line of output is one JSON object: correct, attempted,
failed (commands) and metrics.  The last line of standard error is one
JSON object with the untraced repetitions' median raw (unscaled) wall
and CPU time and slice time.  The exit code is 0 only if no command
failed; 2 means the program could not be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SETUP_SAMPLES = 15  # setup_s is a median over at least this many fresh processes
WORKER_TIMEOUT_S = 150


class RunError(Exception):
    """The program could not be started or a repetition crashed."""


def spawn(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"repetition ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_program() -> None:
    """Fail unless reeshk imports from this checkout's src/ (also warms its bytecode)."""
    if not (ROOT / "src" / "reeshk" / "__init__.py").is_file():
        raise RunError(f"no reeshk package under {ROOT / 'src'}")
    found = Path(spawn({"setup_only": True})["reeshk"]).resolve()
    if ROOT / "src" not in found.parents:
        raise RunError(f"reeshk imported from {found}, not from {ROOT / 'src'}")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    spans_file = HERE / "out" / f"spans-{workload}.json"
    if trace:
        spans_file.parent.mkdir(exist_ok=True)
    plain, traced, durations, failures = [], [], [], []
    attempted = 0
    rep = 0
    while True:
        started = time.perf_counter()
        spec = {"workload": workload, "seed": seed, "rep": rep, "trace": False}
        plain.append(spawn(spec))
        if trace:
            spec.update(trace=True, spans_out=str(spans_file))
            traced.append(spawn(spec))
            pairs = zip(plain[-1]["digests"], traced[-1]["digests"])
            failures.extend(
                f"rep {rep} command {i}: traced output differs from untraced output"
                for i, (a, b) in enumerate(pairs) if a != b
            )
        for report in (plain[-1], *traced[-1:]):
            attempted += report["attempted"]
            failures.extend(report["failures"])
        durations.append(time.perf_counter() - started)
        rep += 1
        if rep >= MIN_REPS and time.perf_counter() + statistics.median(durations) > deadline:
            break

    def med(reports: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in reports)

    if trace:
        metrics = {
            name: statistics.median(r["layers"].get(name, 0) for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
        metrics["calibration.slice_s"] = med(plain, "slice_s")
        metrics["calibration.raw_wall_s"] = med(plain, "raw_wall_s")
        metrics["calibration.scaled_from_around"] = med(plain, "scaled_from_around")
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn({"setup_only": True})["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": med(plain, "wall_s"),
            "cpu_s": med(plain, "cpu_s"),
            "peak_rss_mib": med(plain, "peak_rss_mib"),
            "verified_rows": med(plain, "verified_rows"),
        }
    raw = {key: med(plain, key) for key in ("raw_wall_s", "raw_cpu_s", "slice_s")}
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "reps": rep, "raw": raw}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        check_program()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ValueError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": result["reps"], **result["raw"],
    }), file=sys.stderr)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
