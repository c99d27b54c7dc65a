"""The suite's own configuration: a failing test reports and the session goes on."""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_does_not_end_the_session(pytester):
    # with the suite's conftest and pyproject, whose filterwarnings turns every warning
    # into an error; a fresh process, since this one has hypothesis's reporting loaded
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_order="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(x):
            assert x < 5

        def test_plain_runs_after_it():
            pass
    """)
    result = pytester.runpytest_subprocess("test_order.py", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
