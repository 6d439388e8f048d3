"""Source-level guards over the `balmat` package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "balmat").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Runtime claims raise; `python -O` strips `assert` statements."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def _referenced(tree, path):
    """(path, line, name) for every name the module refers to: a Name, an
    Attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield path, node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield path, node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield path, node.lineno, alias.name


def _imported(tree):
    """(line, name) for every name an import statement binds, but those of
    `from __future__` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported(tree):
    """The names listed in a module-level `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name a module imports is referred to in it, or listed in its
    `__all__`: an import left behind by a deletion is dead code."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = [f"{line} {name}" for line, name in _imported(tree) if name not in used]
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_every_definition_is_used():
    """Each function and class is reached from `balmat` itself, not only from
    tests: some code outside its own body refers to it by name.  Dunders, and
    functions a decorator call registers (as `verify._check` does), are
    reached without one."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    refs = [ref for path, tree in trees.items() for ref in _referenced(tree, path)]
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if any(isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (where != path or line not in body)
                       for where, line, name in refs):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never used in balmat: {unused}"


def test_no_recursive_closures():
    """No nested function refers to its own name.  A recursive closure refers
    to itself through its cell, which keeps what it holds alive until a
    cyclic garbage collection; a recursion lives at module level instead."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    recursive = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, functions) and any(
                        isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                    recursive.add(f"{path.name}:{inner.lineno} {inner.name}")
    assert not recursive, f"recursive nested functions: {sorted(recursive)}"


# The recursive engines, each one search whose depth its input bounds; a new
# recursion must be added here on purpose, or written as a loop.
RECURSIVE = {"_balanced_vectors", "_con_value", "_matching_branch", "_psi_value"}


def _calls_itself(function):
    """Whether a function calls its own name, bare or as a method of self."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == function.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == function.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def test_recursion_only_in_the_listed_engines():
    """Every function that calls itself by name is one of RECURSIVE.  A
    recursion's depth grows with its input until Python's limit raises
    RecursionError, as `nu_oracle`'s once did on a side of 1100 vertices."""
    found = {node.name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)}
    assert found == RECURSIVE


def _is_main_guard(node):
    """Whether a statement is `if __name__ == "__main__":`."""
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in node.test.comparators))


def test_one_entry_point():
    """Only `__main__.py` runs `main` as a script: `python -m balmat` and the
    `balmat` console script are the entry points, and no module repeats them."""
    guarded = [path.name for path in SOURCES
               if any(map(_is_main_guard, ast.parse(path.read_text(), filename=str(path)).body))]
    assert guarded == ["__main__.py"], f"modules with a __main__ block: {guarded}"


def _fraction_name(node):
    return isinstance(node, ast.Name) and node.id == "Fraction"


def _rational_checks(tree):
    """(line, what) for each way a module could check or scale a rational by
    itself: reading `.numerator`, calling `checked(x, Fraction, ...)`, or
    comparing a `type(...)` with `Fraction`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "numerator":
            yield node.lineno, ".numerator"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "checked" and len(node.args) > 1
              and _fraction_name(node.args[1])):
            yield node.lineno, "checked(..., Fraction, ...)"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                   and x.func.id == "type" for x in operands) and any(map(_fraction_name, operands)):
                yield node.lineno, "type(...) compared with Fraction"


def test_only_rational_checks_and_scales_rationals():
    """`rational.exact` is the one int-or-Fraction check and
    `rational.over_lcd` the one scaling of rationals to integers; no other
    module repeats either."""
    found = [f"{path.name}:{line} {what}" for path in SOURCES if path.name != "rational.py"
             for line, what in _rational_checks(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"rationals checked or scaled outside rational.py: {found}"
