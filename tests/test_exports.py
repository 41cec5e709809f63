"""Every public module-level name in ``src/minorclub`` has a caller outside
the tests: code that only the tests call belongs in ``tests/genutil.py``.

A name counts as called when some library module other than ``__init__``
refers to it outside its own definition, when a benchmark script under
``perfbench/`` refers to it or names it in a string (the per-layer tracer
wraps functions by name), or when a CI step names it.

Every name that a library module (``__init__`` aside, whose imports are its
exports) or a test module imports is also read by that module, and every
name that the per-layer tracer wraps still exists in its module.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "minorclub"


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned names not starting with
    an underscore, each with the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _references(tree: ast.AST, skip: ast.AST | None = None,
                strings: bool = False) -> set[str]:
    """Names, attributes and imported names that ``tree`` refers to outside
    the subtree ``skip``; with ``strings``, string constants too."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {"graph", "club_contraction", "cli"} <= set(modules)
    outside = set(re.findall(r"\w+", (ROOT / ".github" / "workflows" / "ci.yml").read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text()), strings=True)
    refs = {stem: _references(tree) for stem, tree in modules.items()}
    uncalled = []
    for stem, tree in modules.items():
        elsewhere = outside.union(*(r for other, r in refs.items() if other != stem))
        for name, node in _public_definitions(tree).items():
            if name not in elsewhere and name not in _references(tree, node):
                uncalled.append(f"{stem}.{name}")
    assert uncalled == []


def _imported_names(tree: ast.Module) -> list[str]:
    """The names that the module's imports bind, ``__future__`` features
    aside."""
    return [(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def test_every_imported_name_is_read():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert {SRC / "cli.py", Path(__file__)} <= set(paths)
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.relative_to(ROOT)}: {name}"
                   for name in _imported_names(tree) if name not in read]
    assert unread == []


def test_every_traced_name_exists():
    """The per-layer tracer wraps ``perfbench/layertrace.WRAPPED`` by name,
    module by module, so a name that leaves its module breaks only a traced
    benchmark run; the literal is read from the file, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"])
    assert "oracle" in wrapped and "hadwiger_oracle" in wrapped["oracle"]
    missing = [f"{layer}.{name}" for layer, names in wrapped.items()
               for name in names
               if not hasattr(importlib.import_module(f"minorclub.{layer}"), name)]
    assert missing == []
