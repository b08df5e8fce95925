"""The package's public surface: each top-level function and class of
``src/spincm`` is read by package code or exported in ``spincm.__all__``,
and each exported name resolves.  Each name a test module imports is read
in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import spincm

PACKAGE = Path(spincm.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_definition_is_read_or_exported():
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        read |= read_names(tree)
    unused = [name for name in defined
              if name.rpartition(".")[2] not in read | set(spincm.__all__)]
    assert unused == []


def test_every_export_resolves():
    assert [name for name in spincm.__all__
            if not hasattr(spincm, name)] == []


def test_every_test_import_is_read():
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = read_names(tree)
        unused += [f"{path.stem}.{name}" for name in imported
                   if name not in read]
    assert unused == []
