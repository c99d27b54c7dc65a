"""Run every workload over several seeds and write the results to perfbench/baseline.json.

Usage (from the repository root, in a git checkout):

    python3 perfbench/record_baseline.py

Each workload runs once per seed in SEEDS with --trace 0 and once with
--trace 1 (first seed), for BENCHMARK.json's run_seconds each.  The file records
the git SHA, Python version, nproc and seeds, every run's result with
its raw (unscaled) wall, CPU and slice times, and per end-to-end metric
and raw time the median and the quartile spread (as a share of the
median) over the seeds.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if not proc.stdout.strip():
        sys.exit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = json.loads(proc.stderr.strip().splitlines()[-1])
    result["raw"] = {key: raw[key] for key in ("raw_wall_s", "raw_cpu_s", "slice_s")}
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']}", file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0}


def summary(results: list[dict]) -> dict:
    return {
        name: spread([r["metrics"][name]["value"] for r in results])
        for name in results[0]["metrics"]
    }


def main() -> None:
    seeds = list(SEEDS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {
        "git_sha": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, seed, seconds, 0) for seed in seeds]
        doc["workloads"][name] = {
            "end_to_end": summary(runs),
            "raw": {key: spread([r["raw"][key] for r in runs]) for key in runs[0]["raw"]},
            "runs": [{"seed": s, **r} for s, r in zip(seeds, runs)],
            "traced": {"seed": seeds[0], **run(name, seeds[0], seconds, 1)},
        }
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["workloads"].items():
        for metric, s in (*entry["end_to_end"].items(), *entry["raw"].items()):
            print(f"{name:17s} {metric:14s} median={s['median']:.4f} spread={s['spread']:.3f}")


if __name__ == "__main__":
    main()
