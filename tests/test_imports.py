"""Import lint: every name imported in the package or the tests is used,
every private name the package defines at module level or in the body of
a module-level class is referenced elsewhere in it, every public function
or class the package does not export is referenced from the package or
the benchmark (tests do not count), and
every name the package exports resolves, and every code reference in the
README and in the package's double-backticked spans names something that
exists.

Built on the standard library's ``ast`` so that it runs wherever the
tests do.  A name counts as used when the module loads it anywhere, lists
it in ``__all__``, or mentions it inside a string annotation (the
``TYPE_CHECKING`` idiom).  Scopes are not tracked: a name imported in one
function and loaded in another counts as used.
"""

import ast
import importlib
import itertools
import re
from collections import Counter
from pathlib import Path

import indepcount

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "indepcount").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# call-shaped README spans that are math notation, not code
MATH_CALLS = {"ln"}


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


def _private_definitions(tree: ast.Module):
    """(name, node) of each ``_``-prefixed function, class or constant at
    module level or in a module-level class body; dunder names are not
    private."""
    classes = [node.body for node in tree.body
               if isinstance(node, ast.ClassDef)]
    for node in itertools.chain(tree.body, *classes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree: ast.AST) -> Counter:
    """How often each name is loaded or read as an attribute."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _parsed(paths) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)) for path in paths}


def _total_references(trees) -> Counter:
    total: Counter = Counter()
    for tree in trees.values():
        total += _references(tree)
    return total


def unreferenced_private_names(paths) -> list[str]:
    """``file: name`` of each module-level private name that no code outside
    its own definition refers to."""
    trees = _parsed(paths)
    total = _total_references(trees)
    return sorted(f"{path.name}: {name}" for path, tree in trees.items()
                  for name, node in _private_definitions(tree)
                  if total[name] == _references(node)[name])


def unreferenced_public_names(paths, users, exported) -> list[str]:
    """``file: name`` of each module-level public function or class in
    ``paths`` that is not in ``exported`` and that no code in ``paths`` or
    ``users`` refers to outside its own definition."""
    trees = _parsed(paths)
    total = _total_references(trees) + _total_references(_parsed(users))
    return sorted(f"{path.name}: {node.name}" for path, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not node.name.startswith("_")
                  and node.name not in exported
                  and total[node.name] == _references(node)[node.name])


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


def test_lint_flags_a_dead_private_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "__version__ = '1'\n"
        "def _used(x):\n"
        "    return x < _LIMIT\n"
        "def _dead(x):\n"
        "    return _dead(x - 1) if x else 0\n"
        "class _Gone:\n"
        "    pass\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import _used\n"
        "def public(x):\n"
        "    return _used(x)\n",
        encoding="utf-8")
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py: _Gone", "a.py: _SPARE", "a.py: _dead"]


def test_lint_flags_a_dead_private_member(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Shape:\n"
        "    _CAP = 3\n"
        "    _spare: int = 4\n"
        "    def __init__(self):\n"
        "        self.n = self._CAP\n"
        "    def _used(self):\n"
        "        return self.n\n"
        "    def _dead(self):\n"
        "        return self._dead()\n"
        "def public():\n"
        "    return Shape()._used()\n",
        encoding="utf-8")
    assert unreferenced_private_names([tmp_path / "a.py"]) == [
        "a.py: _dead", "a.py: _spare"]


def test_every_private_name_is_referenced():
    found = unreferenced_private_names(PACKAGE)
    assert not found, "unreferenced private names:\n" + "\n".join(found)


def test_lint_flags_a_dead_public_helper(tmp_path):
    package, users = tmp_path / "package", tmp_path / "users"
    package.mkdir()
    users.mkdir()
    (package / "a.py").write_text(
        "def exported(x):\n"
        "    return x\n"
        "def helper(x):\n"
        "    return x + 1\n"
        "def inner(x):\n"
        "    return x - 1\n"
        "def dead(x):\n"
        "    return dead(x - 1) if x else 0\n"
        "def _private(x):\n"
        "    return x\n"
        "class Gone:\n"
        "    pass\n"
        "LIMIT = 3\n",
        encoding="utf-8")
    (package / "b.py").write_text(
        "from .a import inner\n"
        "def exported_too(x):\n"
        "    return inner(x)\n",
        encoding="utf-8")
    (users / "bench.py").write_text(
        "import a\n"
        "print(a.helper(2))\n",
        encoding="utf-8")
    # a test that calls a helper does not keep it alive
    (users / "test_a.py").write_text(
        "from a import dead\n"
        "def test_dead():\n"
        "    assert dead(3) == 0\n",
        encoding="utf-8")
    found = unreferenced_public_names(
        sorted(package.glob("*.py")), [users / "bench.py"],
        {"exported", "exported_too"})
    assert found == ["a.py: Gone", "a.py: dead"]


def test_every_unexported_public_name_is_referenced():
    found = unreferenced_public_names(PACKAGE, BENCHMARK,
                                      set(indepcount.__all__))
    assert not found, ("public names neither exported nor used by the "
                       "package or the benchmark:\n" + "\n".join(found))


def test_every_export_resolves():
    missing = [name for name in indepcount.__all__
               if not hasattr(indepcount, name)]
    assert not missing, f"__all__ names nothing for {missing}"
    namespace: dict = {}
    exec("from indepcount import *", namespace)
    assert set(indepcount.__all__) <= set(namespace)


def _package_namespaces() -> tuple[dict, dict]:
    """The package and its modules by name, and every class the package
    defines by name."""
    modules = {"indepcount": indepcount}
    for path in PACKAGE:
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(
                f"indepcount.{path.stem}")
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if isinstance(obj, type)
               and obj.__module__ == module.__name__}
    return modules, classes


def stale_code_references(text: str, modules: dict, classes: dict,
                          spans: str = r"`([^`]+)`") -> list[str]:
    """Spans of ``text`` matched by ``spans`` (by default the backticked
    spans of markdown), outside fenced blocks, that name nothing:
    ``head.name`` whose head is in ``modules`` or ``classes`` but has no
    such attribute (or dataclass field), and calls ``name(...)`` that no
    module defines, ``MATH_CALLS`` aside."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    stale = []
    for span in re.findall(spans, text):
        dotted = re.match(r"(\w+)\.(\w+)", span)
        call = re.match(r"(\w+)\(", span)
        if dotted and dotted[1] in modules:
            found = hasattr(modules[dotted[1]], dotted[2])
        elif dotted and dotted[1] in classes:
            owner = classes[dotted[1]]
            found = (hasattr(owner, dotted[2])
                     or dotted[2] in getattr(owner, "__dataclass_fields__", {}))
        elif call and call[1] not in MATH_CALLS:
            found = any(hasattr(m, call[1]) for m in modules.values())
        else:
            continue
        if not found:
            stale.append(span)
    return stale


def test_lint_flags_a_stale_readme_reference():
    modules, classes = _package_namespaces()
    probe = ("`cnf.assign`, `cnf.gone`, `Struct.model_indices()`, "
             "`Estimate.value`, `Struct.gone()`, `decide(phi).witness`, "
             "`gone(clauses, fixed)`, `ln(2/delta)`, `numpy.gone`, "
             "`tests/test_cnf.py`, `3 ln(2)`\n"
             "```python\ngone(1)\n```\n")
    assert stale_code_references(probe, modules, classes) == [
        "cnf.gone", "Struct.gone()", "gone(clauses, fixed)"]


def test_every_readme_code_reference_resolves():
    stale = stale_code_references((ROOT / "README.md").read_text(
        encoding="utf-8"), *_package_namespaces())
    assert not stale, "README names nothing for:\n" + "\n".join(stale)


def test_every_source_code_reference_resolves():
    # the package's docstrings and comments mark code with double backticks
    namespaces = _package_namespaces()
    stale = [f"{path.name}: {span}" for path in PACKAGE
             for span in stale_code_references(
                 path.read_text(encoding="utf-8"), *namespaces,
                 spans=r"``([^`]+)``")]
    assert not stale, "source names nothing for:\n" + "\n".join(stale)
