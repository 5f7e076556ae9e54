"""Each ``repro`` name has one import path: the module that defines it.

Source-level checks, in the style of ``test_lifecycle_guard.py``:

* a package ``__init__`` binds a name by import only if that file uses it
  or some file in the repository imports it from that package, and no
  ``__init__`` below the top-level facade declares ``__all__`` or a
  module ``__getattr__``;
* a ``from repro…`` import inside a function is allowed only where a
  real import cycle or an optional dependency needs it, each with its
  reason below;
* each module whose imports sit at module level loads first in a fresh
  interpreter, so no cycle hides behind import order.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: Where a package-level name may be imported from.
SEARCHED = ("src", "tests", "benchmarks", "examples", "tools", "perfbench", "docs")
FACADE = SRC / "__init__.py"

#: (module, imported module) -> why the import stays inside a function.
FUNCTION_LEVEL = {
    ("repro.exec.engine", "repro.exec.columnar"): (
        "numpy is optional: the row backend runs without it, so the "
        "columnar entry and its hash-view routing load on first use"
    ),
    ("repro.verify.differential", "repro.core.cluster"): (
        "the cluster imports the differential check for verify_execution, "
        "so the check cannot import the cluster at module level"
    ),
}

#: Modules that load first in a fresh interpreter now that their
#: ``repro`` imports sit at module level.
MODULE_LEVEL = (
    "repro.adaptive.midquery",
    "repro.bench.fedbench",
    "repro.cli",
    "repro.exec.engine",
    "repro.faults",
    "repro.faults.chaos",
    "repro.stats.estimator",
    "repro.stats.sketch_registry",
)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_inits():
    return sorted(p for p in SRC.rglob("__init__.py") if p != FACADE)


def _searched_files():
    this = Path(__file__).resolve()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".py", ".md") and path.resolve() != this:
                yield path
    yield ROOT / "README.md"


def _imported_from(package: str, skip: Path):
    """Names some searched file imports from ``package`` or reads off it."""
    from_import = re.compile(
        rf"from {re.escape(package)} import (\([^)]*\)|[^\n]*)"
    )
    attribute = re.compile(rf"\b{re.escape(package)}\.(\w+)")
    names = set()
    for path in _searched_files():
        if path == skip:
            continue
        text = path.read_text()
        for group in from_import.findall(text):
            names.update(re.findall(r"\w+", re.sub(r"#[^\n]*", "", group)))
        names.update(attribute.findall(text))
    return names


def _bound_by_import(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _used_names(tree: ast.Module):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize(
    "init", _package_inits(), ids=lambda p: _module_name(p)
)
def test_a_package_binds_only_names_that_are_used(init):
    tree = ast.parse(init.read_text())
    used = _used_names(tree)
    bound = [name for name in _bound_by_import(tree) if name not in used]
    if not bound:
        return
    imported = _imported_from(_module_name(init), skip=init)
    assert sorted(name for name in bound if name not in imported) == []


@pytest.mark.parametrize(
    "init", _package_inits(), ids=lambda p: _module_name(p)
)
def test_no_package_declares_an_export_list_or_a_lazy_hook(init):
    tree = ast.parse(init.read_text())
    assigned = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    defined = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "__all__" not in assigned
    assert "__getattr__" not in defined


def _function_level_imports():
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level == 0:
                    targets = [inner.module]
                elif isinstance(inner, ast.Import):
                    targets = [alias.name for alias in inner.names]
                else:
                    continue
                for target in targets:
                    if target == "repro" or target.startswith("repro."):
                        yield module, target


def test_function_level_repro_imports_are_the_allow_listed_ones():
    found = sorted(_function_level_imports())
    assert found == [
        ("repro.exec.engine", "repro.exec.columnar"),
        ("repro.exec.engine", "repro.exec.columnar"),
        ("repro.verify.differential", "repro.core.cluster"),
    ]
    assert set(found) == set(FUNCTION_LEVEL)
    assert all(FUNCTION_LEVEL.values())


@pytest.mark.parametrize("module", MODULE_LEVEL)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
