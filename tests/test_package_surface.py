"""Every function, class and method in the package has a caller in the package.

Code that only the tests reach belongs in `tests/reference.py`, so a
name defined under `src/reeshk` must be used somewhere in `src/`
outside its own definition.  A re-export in `__init__.py` is not a use.
A use is any `ast.Name` or `ast.Attribute` of that name, so a method
counts as used when any attribute of its name is read.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "reeshk"

# Names kept without a caller in src/, each with the reason.
ALLOWED = {
    "hilbert_F": "the paper's Hilbert-Samuel function F(s, n) of I^[s]; no hk command reaches it yet",
    # perfbench/spans.py LAYERS and test_uninstall_restores_every_binding name the
    # Buchberger completion, so it stays in the package, a bare completion whose
    # normal forms, membership and S-pair check live in tests/reference.py
    "buchberger": "named in perfbench LAYERS; the tests' reference completion",
    "ideals_equal": "named in perfbench LAYERS; the tests' reference equality",
}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(qualified name, module, def node): top-level functions and classes, non-dunder methods."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield node.name, module, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{node.name}.{item.name}", module, item


def _uses(modules):
    """name -> [(module, line)] for every ast.Name or ast.Attribute outside __init__.py."""
    uses = {}
    for module, tree in modules.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    return uses


def _unused():
    modules = _modules()
    uses = _uses(modules)
    unused = []
    for name, module, node in _definitions(modules):
        inside = range(node.lineno, node.end_lineno + 1)
        outside = [
            (where, line) for where, line in uses.get(node.name, [])
            if where != module or line not in inside
        ]
        if not outside:
            unused.append(name)
    return unused


def test_every_name_has_a_caller_in_the_package():
    assert [name for name in _unused() if name not in ALLOWED] == []


def test_allowlist_names_only_unused_definitions():
    assert sorted(name for name in _unused() if name in ALLOWED) == sorted(ALLOWED)


def test_caps_are_decided_at_the_command_line():
    # the library takes no cap knob: only cli.py refuses inputs as too costly
    raised = {
        module for module, tree in _modules().items() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ResourceCapExceeded"
    }
    assert raised == {"cli.py"}
