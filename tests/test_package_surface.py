"""Every function, class and method in the package has a caller in the package.

Code that only the tests reach belongs in `tests/reference.py`, so a
name defined under `src/reeshk` must be used somewhere in `src/`
outside its own definition.  `__init__.py` imports nothing, so each
name has one import path, its own module.
A use is any `ast.Name` or `ast.Attribute` of that name, so a method
counts as used when any attribute of its name is read.

Three placement rules ride along: only `cli._cap` refuses inputs as too
costly, each input rule that several functions share is raised from
one function, and only checks on values the package built itself
raise a plain `ValueError`; every input rule raises `InvalidInput`.
"""
import ast
import re
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
    """name -> [(module, line)] for every ast.Name or ast.Attribute in src/."""
    uses = {}
    for module, tree in modules.items():
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


def test_package_root_imports_nothing():
    tree = _modules()["__init__.py"]
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_allowlist_names_only_unused_definitions():
    assert sorted(name for name in _unused() if name in ALLOWED) == sorted(ALLOWED)


def test_caps_are_decided_at_the_command_line():
    # the library takes no cap knob: only cli.py refuses inputs as too costly,
    # and every cap refuses through the one raise in cli._cap
    made = {
        where for where, node in _scoped_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ResourceCapExceeded"
    }
    assert made == {"cli.py:_cap"}


# each shared input rule, by a pattern of its one message and a message it prints
RULES = {
    "p is prime": (r"is not prime", "p = 4 is not prime"),
    "d has a least value": (r"^d must be at least", "d must be at least 2"),
    "e0 >= 1": (r"^e0J? must be positive", "e0 must be positive"),
    "s >= 1": (r"^s must be positive", "s must be positive"),
    "e >= 1 in a sweep": (r"^e must be positive", "e must be positive"),
    "a >= 2": (
        r"^hypersurface exponent must be at least 2", "hypersurface exponent must be at least 2"
    ),
    "alpha has a period": (
        r"period (of|must be) at least 1", "a periodic value needs a period of at least 1, got 0"
    ),
    "e >= 0": (r"^e must be nonnegative", "e must be nonnegative, so that q = p^e is an integer"),
}
# the only raise ValueError sites: each guards a value the package built itself, so
# `hk` reports its failure as a bug (exit 4), not as invalid input (exit 2)
INTERNAL_CHECKS = {
    "monomial_algebra.py:MonomialIdeal.__new__": "generators the package formed share one shape",
    "monomial_algebra.py:MonomialIdeal.product": "the package multiplies ideals of one ring",
    "hk_formulas.py:binomial": "the package's sums take binomials with k >= 0",
    "hk_formulas.py:QuasiPolynomialHK.__new__": "the package's fits hold one degree per class",
    # polynomials cannot import hk_formulas, which imports it, so it has no InvalidInput
    "polynomials.py:interpolate": "the package interpolates at distinct sample points",
}


def _constants(modules):
    """name -> text of every module-level name bound to a string literal in src/."""
    return {
        target.id: node.value.value
        for tree in modules.values() for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }


def _message(call, constants):
    """The text of a raised exception's first argument, with "{}" for each formatted value.

    A module-level string constant stands for its text.
    """
    arg = call.args[0] if isinstance(call, ast.Call) and call.args else None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        return constants.get(arg.id, "")
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    return ""


def _prints(template, message):
    """Whether a raise whose message reads template can print message; "{}" is any text."""
    pattern = ".*".join(map(re.escape, template.split("{}")))
    return re.fullmatch(pattern, message, re.DOTALL) is not None


def _scoped_nodes():
    """(module:qualified function, node) for every node in src/; no function at module level."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            found.append((f"{module}:{'.'.join(scope)}", child))
            visit(child, module, scope)

    for module, tree in _modules().items():
        visit(tree, module, [])
    return found


def test_each_input_rule_has_one_raise_site():
    constants = _constants(_modules())
    sites = [
        (where, _message(node.exc, constants))
        for where, node in _scoped_nodes() if isinstance(node, ast.Raise)
    ]
    # a site counts when its template matches the pattern, or can print the message
    raisers = {
        rule: {
            where for where, template in sites
            if re.search(pattern, template) or _prints(template, message)
        }
        for rule, (pattern, message) in RULES.items()
    }
    counts = {rule: len(where) for rule, where in raisers.items()}
    assert counts == dict.fromkeys(RULES, 1), raisers


def test_only_internal_checks_raise_value_error():
    raised = set()
    for where, node in _scoped_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                raised.add(where)
    assert raised == set(INTERNAL_CHECKS)
