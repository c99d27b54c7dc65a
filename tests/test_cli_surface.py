"""Every flag of every hk command is spelled out in some test.

The CLI twin of test_package_surface.py: a flag that no test names can
change or break unseen.  A flag counts as named when a string constant
in tests/*.py equals it ("--period") or starts with it and "="
("--alpha=-4,-6").  Names built at run time, such as f"--{flag}", do
not count.
"""
import ast
from pathlib import Path

from reeshk.cli import COMMANDS

TESTS = Path(__file__).resolve().parent


def _flags():
    """The flags of every command, plus the two each command shares."""
    flags = {"--format", "--force"}
    for _, spec in COMMANDS.values():
        flags.update(spec)
    return flags


def _constants():
    return {
        node.value
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_flag_is_spelled_out_in_a_test():
    constants = _constants()
    unnamed = [
        flag for flag in _flags()
        if flag not in constants and not any(c.startswith(f"{flag}=") for c in constants)
    ]
    assert sorted(unnamed) == []
