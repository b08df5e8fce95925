"""The package's public surface: each top-level function and class of
``src/spincm`` is read by package code or exported in ``spincm.__all__``,
each public method or property of its classes is read by package code or
named in README's "Public surface" table, which names every export, and
each exported name resolves.  Each name a test module imports is read
in that module.  The fault contract: each exported entry that does
floating-point work holds one ``raise_on_fp_fault``, and no other function
does."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import spincm
from spincm import cli
from spincm.errors import raise_on_fp_fault

PACKAGE = Path(spincm.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def read_attributes(tree: ast.AST) -> set[str]:
    """The attribute names read in tree, by name (the check cannot tell
    ``x.reduce`` of one class from another's), except those read off an
    imported module: ``functools.reduce`` or ``np.add.reduce`` reads no
    package member."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in modules):
                read.add(node.attr)
    return read


def surface_table() -> set[str]:
    """The names in the first column of README's "Public surface" table."""
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    return {name for line in section.splitlines() if line.startswith("| `")
            for name in re.findall(r"`([^`]+)`", line.split("|")[1])}


def test_every_definition_is_read_or_exported():
    """Top-level definitions: read or exported.  Public methods and
    properties of the package's classes: read as an attribute in
    ``src/spincm``, or named in README's surface table with the paper
    object they carry or the reader outside the package they serve.
    Every export: named in that table."""
    defined, members, read, attributes = [], [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        members += [f"{node.name}.{item.name}" for node in tree.body
                    if isinstance(node, ast.ClassDef) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
        read |= read_names(tree)
        attributes |= read_attributes(tree)
    unused = [name for name in defined
              if name.rpartition(".")[2] not in read | set(spincm.__all__)]
    assert unused == []
    table = surface_table()
    unused = [name for name in members
              if name.rpartition(".")[2] not in attributes
              and name not in table]
    assert unused == []
    assert sorted(set(spincm.__all__) - table) == []


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


# The exported entries that hold no fault guard, each with the reason.
NO_GUARD = {
    "build_root_system": "root data of a rank 1..4; no argument reaches "
                         "its arithmetic",
    "lift_reduced": "copies s into the slice lift",
    "make_system": "picks a family's spec from root labels",
    "momentum_J": "copies the Cartan block",
    "negate": "integer root labels",
    "parse_root_label": "integer root labels",
    "rational_r_matrix": "an integer closure test over root labels",
    "root_label": "integer root labels",
    "root_system_summary": "lists the root data as JSON",
    "spinless_state": "stores one spin value on every root",
    "torus_action": "torus_adjoint does its arithmetic, under its guard",
    "trigonometric_r_matrix": "integer masks over root labels",
    "Lattice.wp": "one value of wp_pair, under its guard",
    "Lattice.zeta": "one row of zeta_ladder, under its guard",
}


def guards(fn) -> int:
    """The fault guards around fn: the wrappers down its ``__wrapped__``
    chain whose closure holds raise_on_fp_fault."""
    count = 0
    while fn is not None:
        cells = getattr(fn, "__closure__", None) or ()
        count += any(cell.cell_contents is raise_on_fp_fault for cell in cells)
        fn = getattr(fn, "__wrapped__", None)
    return count


def exported_entries() -> dict:
    """name -> function: the functions of ``spincm.__all__``, the public
    methods of the exported Lattice, and the CLI's ``main``."""
    entries = {name: getattr(spincm, name) for name in spincm.__all__
               if callable(getattr(spincm, name))
               and not inspect.isclass(getattr(spincm, name))}
    for name, attr in vars(spincm.Lattice).items():
        fn = getattr(attr, "__func__", attr)
        if inspect.isfunction(fn) and not name.startswith("_"):
            entries[f"Lattice.{name}"] = fn
    entries["cli.main"] = cli.main
    return entries


def every_function() -> dict:
    """qualified name -> function, for every function and method defined
    in ``src/spincm``, whatever wraps it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"spincm.{path.stem}"
                                         if path.stem != "__init__"
                                         else "spincm")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    fn = getattr(attr, "fget", None) or getattr(
                        attr, "__func__", attr)
                    if callable(fn):
                        found[f"{module.__name__}.{name}.{attr_name}"] = fn
            elif callable(obj):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_each_computing_entry_holds_one_fault_guard():
    entries = exported_entries()
    assert set(NO_GUARD) <= set(entries)
    assert {name: guards(fn) for name, fn in entries.items()} == {
        name: 0 if name in NO_GUARD else 1 for name in entries}


def test_no_other_function_holds_a_fault_guard():
    entry_ids = {id(inspect.unwrap(fn)) for fn in exported_entries().values()}
    others = [name for name, fn in every_function().items()
              if guards(fn) and id(inspect.unwrap(fn)) not in entry_ids]
    assert others == []


def test_the_fault_guard_is_only_ever_a_decorator():
    """No ``with raise_on_fp_fault:`` block or wrapped call: each use of the
    name in ``src/spincm`` decorates a function (22 exported functions, 4
    Lattice evaluations and cli.main)."""
    uses = decorators = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += sum(node.id == "raise_on_fp_fault" for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
        decorators += sum(
            isinstance(d, ast.Name) and d.id == "raise_on_fp_fault"
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list)
    assert uses == decorators == 27
