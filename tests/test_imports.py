"""Import lint: every name imported in the package or the tests is used,
and every name the package exports resolves.

Built on the standard library's ``ast`` so that it runs wherever the
tests do.  A name counts as used when the module loads it anywhere, lists
it in ``__all__``, or mentions it inside a string annotation (the
``TYPE_CHECKING`` idiom).  Scopes are not tracked: a name imported in one
function and loaded in another counts as used.
"""

import ast
from pathlib import Path

import indepcount

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted((ROOT / "src" / "indepcount").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


def test_lint_sees_the_files():
    names = {p.name for p in CHECKED}
    assert {"cnf.py", "mc.py", "test_imports.py"} <= names


def test_lint_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "from collections import deque, OrderedDict\n"
        "__all__ = ['deque']\n"
        "def f(x: 'Fraction') -> None:\n"
        "    return os.sep\n",
        encoding="utf-8")
    assert unused_imports(probe) == [(2, "system"), (6, "OrderedDict")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in CHECKED for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_export_resolves():
    missing = [name for name in indepcount.__all__
               if not hasattr(indepcount, name)]
    assert not missing, f"__all__ names nothing for {missing}"
    namespace: dict = {}
    exec("from indepcount import *", namespace)
    assert set(indepcount.__all__) <= set(namespace)
