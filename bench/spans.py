"""Span tracer for the traced run.

It rebinds the public functions of each ``spincm`` module in every module
namespace that holds them (and the methods on their classes), so the
package source is not edited.  Each call records a span (name, parent, job,
start, end) in compact in-memory arrays and adds to a per-name call count
and self time (duration minus the time of its child spans).  ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import builtins
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer groups: (module, qualified name).  A group's self time is the sum of
# its spans' self times.  Names missing from the source are reported, not
# fatal, so a later refactor shows up as a gap instead of a crash.
_D, _R, _P = "spincm.dynamics", "spincm.rmatrix", "spincm.phase"
GROUPS = {
    "elliptic": [("spincm.elliptic", n) for n in (
        "Lattice.wp", "Lattice.wp_prime", "Lattice.zeta", "Lattice.sigma",
        "Lattice.zeta_derivative", "l_kernel")],
    "elliptic.guard": [("spincm.elliptic", "Lattice.lattice_distance")],
    "rmatrix.coeff": [(_R, n) for n in (
        "root_coeff", "pair_weight", "cartan_coeff", "root_coeff_reg0")],
    "rmatrix.tensor": [(_R, n) for n in (
        "r_tensor", "r_tensor_dq", "r_tensor_dq_dir")],
    "rmatrix.laurent": [(_R, n) for n in (
        "R_apply", "R_directional", "contour_coefficients",
        "LaurentElement.eval")],
    "rmatrix.verify": [(_R, n) for n in (
        "verify_axioms", "verify_cdybe", "verify_mdybe",
        "contour_tensor_residue", "equivariance_residual")],
    "phase.spin_tensor": [(_P, "spin_tensor")],
    "phase": [],    # every other public function of spincm.phase
    "rootsys": [("spincm.rootsys", n) for n in (
        "bracket", "form", "matrix_rep", "coadjoint_action")],
    "dynamics.rhs": [(_D, n) for n in (
        "vector_field", "vector_field_reduced", "hamiltonian_gradient",
        "hamiltonian_reduced_gradient")],
    "dynamics.diag": [(_D, n) for n in (
        "hamiltonian", "hamiltonian_reduced", "conserved_spectrum",
        "spectrum_drift", "collision_margin")],
    "dynamics.lax": [(_D, n) for n in (
        "lax_L", "lax_L_reg0", "lax_M", "lax_B", "lax_L0", "lax_B0",
        "lax_time_derivative", "reduced_lax_time_derivative",
        "lax_pair_residual", "quasi_lax_residual", "reduced_lax_residual",
        "lax_pair_reduced", "spectral_curve", "spectral_function",
        "involution_check", "sigma_residual", "fpbr_residual",
        "hamiltonian_quadrature")],
    "dynamics.integrate": [(_D, "integrate")],
    "rk45": [],     # RK45.step, through a subclass bound as dynamics.RK45
    "cli.cmd": [("spincm.cli", n) for n in ("cmd_simulate", "cmd_verify")],
    # print is looked up in the cli module before builtins, so binding a
    # traced print there captures the report written to stdout.
    "cli.io": [("spincm.cli", n) for n in (
        "load_config", "write_trajectory_csv", "print")],
    "job": [],      # one root span per job, opened by the benchmark
}
RHS_ENTRIES = ("vector_field", "vector_field_reduced")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.group_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = [-1]
        self.missing: list[str] = []
        self.solvers: list = []
        self.nfev = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._undo: list[tuple] = []
        self._job_span = self.wrap(lambda fn: fn(), "job", "job")

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.group_of.append(group)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, group: str):
        fid = self._name_id(name, group)
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_start, s_end = self.span_start, self.span_end
        stack, child, job = self._stack, self._child, self.job
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[fid] += 1
            idx = len(s_start)
            s_name.append(fid)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(job[0])
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                s_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[fid] += dur - child.pop()
                total_s[fid] += dur
                if child:
                    child[-1] += dur

        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "spincm" or k.startswith("spincm.")]
        phase = sys.modules[_P]
        groups = dict(GROUPS)
        traced_phase = {n for _, n in GROUPS["phase.spin_tensor"]}
        groups["phase"] = [
            (_P, n) for n, v in sorted(vars(phase).items())
            if inspect.isfunction(v) and v.__module__ == _P
            and not n.startswith("_") and n not in traced_phase]
        for group, entries in groups.items():
            for module_name, qualname in entries:
                self._bind(modules, sys.modules[module_name], qualname, group)
        self._bind_rk45(sys.modules[_D])

    def _bind(self, modules, module, qualname: str, group: str) -> None:
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module.__name__}.{qualname}")
                return
            orig = vars(owner)[attr]
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, qualname, group))
            return
        if attr == "print":
            self._undo.append((module, attr, None))
            setattr(module, attr, self.wrap(builtins.print, "print", group))
            return
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{qualname}")
            return
        wrapper = self.wrap(orig, qualname, group)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def _bind_rk45(self, dynamics) -> None:
        base = getattr(dynamics, "RK45", None)
        if base is None:
            self.missing.append(f"{_D}.RK45")
            return
        tracer = self

        class TracedRK45(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.solvers.append(self)

        TracedRK45.step = self.wrap(base.step, "RK45.step", "rk45")
        self._undo.append((dynamics, "RK45", base))
        dynamics.RK45 = TracedRK45

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- jobs -----------------------------------------------------------------

    def run_job(self, index: int, fn):
        """Call fn() inside a root span for job ``index``."""
        self.job[0] = index
        try:
            return self._job_span(fn)
        finally:
            self.nfev += sum(s.nfev for s in self.solvers)
            self.solvers.clear()
            self.job[0] = -1

    # -- results --------------------------------------------------------------

    def _sum(self, table: list, groups) -> float:
        return sum(v for v, g in zip(table, self.group_of) if g in groups)

    def _coeff_calls_under_rhs(self) -> int:
        """rmatrix.coeff spans that have a dynamics.rhs span as an ancestor
        (spans are stored in call order, so parents come first)."""
        is_rhs = [g == "dynamics.rhs" for g in self.group_of]
        is_coeff = [g == "rmatrix.coeff" for g in self.group_of]
        names = self.span_name
        under = [False] * len(names)
        count = 0
        for i, parent in enumerate(self.span_parent):
            if parent >= 0 and (under[parent] or is_rhs[names[parent]]):
                under[i] = True
                count += is_coeff[names[i]]
        return count

    def metrics(self) -> dict:
        calls = lambda *g: int(self._sum(self.calls, g))
        self_s = lambda *g: float(self._sum(self.self_s, g))
        rhs_ids = [i for i, n in enumerate(self.names) if n in RHS_ENTRIES]
        rhs_calls = sum(self.calls[i] for i in rhs_ids)
        rhs_total = sum(self.total_s[i] for i in rhs_ids)
        spin = [i for i, g in enumerate(self.group_of)
                if g == "phase.spin_tensor"]
        return {
            "elliptic.calls": calls("elliptic"),
            "elliptic.self_s": self_s("elliptic", "elliptic.guard"),
            "elliptic.guard_calls": calls("elliptic.guard"),
            "rmatrix.coeff.calls": calls("rmatrix.coeff"),
            "rmatrix.coeff.self_s": self_s("rmatrix.coeff"),
            "rmatrix.coeff.per_rhs": (self._coeff_calls_under_rhs()
                                      / rhs_calls if rhs_calls else 0.0),
            "rmatrix.tensor.calls": calls("rmatrix.tensor"),
            "rmatrix.tensor.self_s": self_s("rmatrix.tensor"),
            "rmatrix.laurent.calls": calls("rmatrix.laurent"),
            "rmatrix.laurent.self_s": self_s("rmatrix.laurent"),
            "rmatrix.verify.self_s": self_s("rmatrix.verify"),
            "phase.spin_tensor.calls": calls("phase.spin_tensor"),
            "phase.spin_tensor.self_s": self_s("phase.spin_tensor"),
            "phase.spin_tensor.total_s": float(
                sum(self.total_s[i] for i in spin)),
            "phase.self_s": self_s("phase", "phase.spin_tensor"),
            "rootsys.calls": calls("rootsys"),
            "rootsys.self_s": self_s("rootsys"),
            "dynamics.rhs.calls": rhs_calls,
            "dynamics.rhs.self_s": self_s("dynamics.rhs"),
            "dynamics.rhs.ms_per_call": (1e3 * rhs_total / rhs_calls
                                         if rhs_calls else 0.0),
            "dynamics.diag.self_s": self_s("dynamics.diag"),
            "dynamics.lax.self_s": self_s("dynamics.lax"),
            "dynamics.integrate.self_s": self_s("dynamics.integrate"),
            "rk45.steps": calls("rk45"),
            "rk45.nfev": self.nfev,
            "rk45.self_s": self_s("rk45"),
            "cli.io.self_s": self_s("cli.io"),
        }

    def save(self, path: Path) -> None:
        """Write every span and the name table (compressed .npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), groups=np.array(self.group_of),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
