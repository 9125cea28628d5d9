"""Source hygiene of the package, checked with the standard-library ast.

Every name a module imports must be used (a package __init__ imports to
re-export, so it is exempt, but each name it re-exports must be in its
submodule's __all__), every __all__ entry must be defined at module
level, and no module may check anything with an `assert` statement,
which `python -O` strips.  No linter is needed to run this.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgcorona"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """Names bound by the module's imports, except from __future__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _defined(tree):
    """Names bound at module level by definitions, assignments and imports."""
    names = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _reexports(tree):
    """(submodule, name) for each name imported from a sibling submodule."""
    return [(node.module, a.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for a in node.names]


def _asserts(tree):
    """Line numbers of the module's assert statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported(tree) - _used(tree) - set(_all_entries(tree))
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = set(_all_entries(tree)) - _defined(tree)
    assert not missing, f"{path.name} lists undefined names in __all__: {sorted(missing)}"


def test_reexports_are_in_submodule_all():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    reexports = _reexports(init)
    assert reexports
    missing = [f"{module}.{name}" for module, name in reexports
               if name not in _all_entries(ast.parse(
                   (PACKAGE / f"{module}.py").read_text(encoding="utf-8")))]
    assert not missing, f"__init__.py re-exports names missing from __all__: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = _asserts(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_checks_catch_defects():
    source = "from x import a, b\n__all__ = ['c', 'd']\ndef d() -> 'b': pass\nassert d\n"
    tree = ast.parse(source)
    assert _reexports(ast.parse("from .x import a\nfrom . import y\nfrom z import b\n")) == [
        ("x", "a")]
    assert _imported(tree) - _used(tree) - set(_all_entries(tree)) == {"a"}
    assert set(_all_entries(tree)) - _defined(tree) == {"c"}
    assert _asserts(tree) == [4]
