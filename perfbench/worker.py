"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, repetition index and whether to
trace; {"setup_only": true} stops after setup.  Setup is the import of
reeshk and the building of its parser, timed before the worker imports
anything else that reeshk also imports.  The repetition itself is
`workloads.run_repetition`.  The last line of output is one JSON object.
"""
import sys

from calibrate import SpeedProbe


def main() -> None:
    with SpeedProbe() as probe:
        import reeshk.cli

        reeshk.cli.build_parser()

    import json

    from workloads import run_repetition

    spec = json.loads(sys.argv[1])
    report = {"setup_s": probe.wall_s * probe.scale, "reeshk": reeshk.__file__}
    if not spec.get("setup_only"):
        report.update(run_repetition(reeshk.cli, spec))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
