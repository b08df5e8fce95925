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
import functools
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import spincm
from spincm import cli
from spincm.errors import StructuralError, raise_on_fp_fault

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


# -- the entry contract: one checked cast in, one single value out ----------


@functools.lru_cache(maxsize=None)
def contract_fixtures() -> dict:
    """A_2 objects the contract calls share: root system, rational system,
    an unreduced and a reduced point, a short trajectory, a lattice."""
    rs = spincm.build_root_system("A", 2)
    sys_ = spincm.make_system("rational", 2)
    x = spincm.spinless_state(rs, [0.9, -0.4], [0.1, 0.2], 1j)
    return {"rs": rs, "sys": sys_, "x": x, "red": spincm.project_pi(x),
            "traj": spincm.integrate(sys_, x, 0.1, n_points=3),
            "lat": spincm.Lattice(2, 2.2j)}


# Each export that takes coordinates, called with one argument replaced by
# bad(shape): a value standing where an array of that shape belongs.
CASTS = {
    "Lattice": lambda f, bad: spincm.Lattice(bad(()), 2.2j),
    "Lattice.lattice_distance": lambda f, bad: f["lat"].lattice_distance(
        bad((3,))),
    "Lattice.sigma": lambda f, bad: f["lat"].sigma(bad((3,))),
    "Lattice.wp": lambda f, bad: f["lat"].wp(bad(())),
    "Lattice.wp_pair": lambda f, bad: f["lat"].wp_pair(bad(())),
    "Lattice.zeta": lambda f, bad: f["lat"].zeta(bad(())),
    "Lattice.zeta_ladder": lambda f, bad: f["lat"].zeta_ladder(bad(()), 2),
    "PhasePoint": lambda f, bad: spincm.PhasePoint(f["rs"], bad((12,))),
    "PhasePoint.make": lambda f, bad: spincm.PhasePoint.make(
        f["rs"], bad((2,)), [0, 0]),
    "PhasePoint.make_reduced": lambda f, bad: spincm.PhasePoint.make_reduced(
        f["rs"], [0.9, 0.1], [0, 0], {(1, 1): bad(())}),
    "bracket": lambda f, bad: spincm.bracket(f["rs"], bad((8,)), [0] * 8),
    "bracket_full": lambda f, bad: spincm.bracket_full(
        f["x"], bad((12,)), [0] * 12),
    "conserved_spectrum": lambda f, bad: spincm.conserved_spectrum(
        f["sys"], f["x"], bad((3,))),
    "form": lambda f, bad: spincm.form(f["rs"], [0] * 8, bad((8,))),
    "fpbr_residual": lambda f, bad: spincm.fpbr_residual(
        f["sys"], f["x"], bad(()), 0.2),
    "integrate": lambda f, bad: spincm.integrate(f["sys"], f["x"], bad(())),
    "involution_residuals": lambda f, bad: spincm.involution_residuals(
        f["sys"], f["red"], [((1, bad(())), (2, 0.3))]),
    "l_kernel": lambda f, bad: spincm.l_kernel(f["lat"], bad(()), 0.3),
    "lax_B": lambda f, bad: spincm.lax_B(f["sys"], f["x"], bad((3,))),
    "lax_L": lambda f, bad: spincm.lax_L(f["sys"], f["x"], bad((3,))),
    "lax_residuals": lambda f, bad: spincm.lax_residuals(
        f["sys"], f["x"], bad((3,))),
    "matrix_rep": lambda f, bad: spincm.matrix_rep(f["rs"], bad((8,))),
    "spectral_drifts": lambda f, bad: spincm.spectral_drifts(
        f["sys"], f["traj"], bad((3,))),
    "spinless_state": lambda f, bad: spincm.spinless_state(
        f["rs"], bad((2,)), [0, 0], 1j),
    "torus_action": lambda f, bad: spincm.torus_action(bad((2,)), f["x"]),
    "torus_adjoint": lambda f, bad: spincm.torus_adjoint(
        f["rs"], bad((2,)), [0] * 8),
    "verify_axioms": lambda f, bad: spincm.verify_axioms(
        f["sys"], bad((2,)), 0.5),
    "verify_cdybe": lambda f, bad: spincm.verify_cdybe(
        f["sys"], [0.5, 0.3], bad(()), 0.1, 0.2),
    "verify_mdybe": lambda f, bad: spincm.verify_mdybe(
        f["sys"], [0.5, 0.3], bad((1, 8)), np.ones((1, 8))),
}

# The exports that take no coordinates, each with the reason.
NO_COORDINATES = {
    "RMatrixSpec": "its masks come from rational_r_matrix and "
                   "trigonometric_r_matrix",
    "RootSystem": "a family name and a rank",
    "Trajectory": "a record that integrate and read_trajectory_csv fill",
    "build_root_system": "a family name and a rank",
    "gauge_g": "a PhasePoint, whose row its constructor cast",
    "hamiltonian": "a PhasePoint, whose row its constructor cast",
    "lift_reduced": "a PhasePoint, whose row its constructor cast",
    "make_system": "root labels and a Lattice",
    "momentum_J": "a PhasePoint, whose row its constructor cast",
    "negate": "an integer root label",
    "parse_root_label": "a text root label",
    "project_pi": "a PhasePoint, whose row its constructor cast",
    "rational_r_matrix": "root labels",
    "root_label": "an integer root label",
    "root_system_summary": "a RootSystem",
    "sigma_residual": "a PhasePoint, whose row its constructor cast",
    "trigonometric_r_matrix": "simple-root indices and root labels",
    "vector_field": "a PhasePoint, whose row its constructor cast",
}


def test_the_contract_covers_every_export():
    """Every export but the errors, the public methods of Lattice and the
    PhasePoint constructors either reads its coordinates through the
    cast (CASTS) or takes none (NO_COORDINATES)."""
    exports = {name for name in spincm.__all__ if not (
        inspect.isclass(getattr(spincm, name))
        and issubclass(getattr(spincm, name), Exception))}
    exports |= {name for name in exported_entries()
                if name.startswith("Lattice.")}
    exports |= {"PhasePoint.make", "PhasePoint.make_reduced"}
    assert set(CASTS).isdisjoint(NO_COORDINATES)
    assert sorted(set(CASTS) | set(NO_COORDINATES)) == sorted(exports)


def _not_numeric(shape):
    return np.full(shape, "a").tolist()


def _ragged(shape):
    return [np.zeros(shape).tolist(), []]


@pytest.mark.parametrize("bad", [_not_numeric, _ragged],
                         ids=["not-numeric", "ragged"])
@pytest.mark.parametrize("name", sorted(CASTS))
def test_coordinates_numpy_cannot_read_are_a_structural_error(name, bad):
    """A coordinate numpy cannot read as complex, or a ragged list, is a
    StructuralError naming the argument (numpy's raw ValueError or
    TypeError escaped most of these)."""
    with pytest.raises(StructuralError, match=r"^expected .* as complex "
                                              r"numbers: "):
        CASTS[name](contract_fixtures(), bad)


# Each export that returns one value for a single input.
SINGLE = {
    "Lattice.lattice_distance": lambda f: f["lat"].lattice_distance(0.3),
    "Lattice.sigma": lambda f: f["lat"].sigma(0.3),
    "Lattice.wp": lambda f: f["lat"].wp(0.3),
    "Lattice.wp_pair": lambda f: f["lat"].wp_pair(0.3),
    "Lattice.zeta": lambda f: f["lat"].zeta(0.3),
    "Lattice.zeta_ladder": lambda f: f["lat"].zeta_ladder(0.3, 3),
    "bracket_full": lambda f: spincm.bracket_full(
        f["x"], np.ones(12), np.arange(12.0)),
    "form": lambda f: spincm.form(f["rs"], np.ones(8), np.arange(8.0)),
    "fpbr_residual": lambda f: spincm.fpbr_residual(
        f["sys"], f["x"], 0.3, -0.2j),
    "hamiltonian": lambda f: spincm.hamiltonian(f["sys"], f["x"]),
    "l_kernel": lambda f: spincm.l_kernel(f["lat"], 0.3, 0.2),
    "lax_residuals": lambda f: spincm.lax_residuals(f["sys"], f["x"]),
    "sigma_residual": lambda f: spincm.sigma_residual(f["sys"], f["x"]),
    "verify_axioms": lambda f: spincm.verify_axioms(
        f["sys"], [0.5, 0.3], 0.5),
    "verify_cdybe": lambda f: spincm.verify_cdybe(
        f["sys"], [0.5, 0.3], 0.3, 0.1, -0.2),
    "verify_mdybe": lambda f: spincm.verify_mdybe(
        f["sys"], [0.5, 0.3], np.ones((1, 8)), np.ones((1, 8))),
}


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_a_single_input_gives_a_python_float_or_complex(name):
    value = SINGLE[name](contract_fixtures())
    values = value.values() if isinstance(value, dict) else (
        value if isinstance(value, (tuple, list)) else [value])
    assert [type(v) for v in values if type(v) not in (float, complex)] == []
