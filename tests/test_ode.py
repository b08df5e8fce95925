"""The Dormand-Prince 5(4) driver behind `integrate`: scipy's RK45 as the
oracle, edge cases of the step control, and no scipy on the import path."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spincm
from spincm import dynamics
from spincm.dynamics import (_pack_point, _unpack_point, integrate,
                             make_system, spinless_state, vector_field,
                             vector_field_reduced)
from spincm.elliptic import Lattice
from spincm.errors import PoleError
from spincm.ode import EPS, DormandPrince
from spincm.phase import ReducedPoint, project_pi


def oracle_point(family):
    """A_3 spinless point with simple-root values (0.8, 0.9, 0.7): collision
    margin 0.64 or more in every family."""
    lattice = Lattice(2, 2.2j) if family == "elliptic" else None
    sys_ = make_system(family, 3, lattice=lattice)
    q = np.linalg.solve(sys_.rs.alpha_h[:3], [0.8, 0.9, 0.7])
    return sys_, spinless_state(sys_.rs, q, [0.3, -0.1, 0.2], 0.4j)


def scipy_reference(sys_, x0, t_final, tol, n_points):
    """The grid of `integrate` filled from scipy's RK45, step by step."""
    from scipy.integrate import RK45
    rs = sys_.rs
    reduced = isinstance(x0, ReducedPoint)
    field = vector_field_reduced if reduced else vector_field

    def rhs(t, y):
        return _pack_point(field(sys_, _unpack_point(rs, y, reduced)))

    solver = RK45(rhs, 0.0, _pack_point(x0), t_final, rtol=tol,
                  atol=tol * 1e-2)
    grid = np.linspace(0.0, t_final, n_points)
    direction = 1.0 if t_final > 0 else -1.0
    values = [_pack_point(x0)]
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        dense = solver.dense_output()
        slack = 1e-12 * max(1.0, abs(solver.t))
        while len(values) < n_points and \
                (grid[len(values)] - solver.t) * direction <= slack:
            values.append(dense(grid[len(values)]))
    return np.array(values), steps, solver.nfev


@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_matches_scipy_rk45(family, reduced, t_final):
    pytest.importorskip("scipy")
    sys_, x0 = oracle_point(family)
    if reduced:
        x0 = project_pi(x0)
    traj = integrate(sys_, x0, t_final, 1e-9, n_points=7)
    expected, steps, nfev = scipy_reference(sys_, x0, t_final, 1e-9, 7)
    assert traj.completed
    got = np.array([_pack_point(pt) for pt in traj.points])
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)
                  / np.maximum(1.0, np.abs(expected))) < 1e-12
    assert traj.stats["accepted"] == steps
    assert traj.stats["nfev"] == nfev


def test_tiny_tol_is_floored_without_warning():
    sys_, x0 = oracle_point("rational")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sys_, x0, 0.05, 1e-16, n_points=3)
    assert traj.completed
    solver = DormandPrince(lambda t, y: -y, 0.0, np.ones(2), 1.0,
                           1e-16, 1e-18)
    assert solver.rtol == 100 * EPS


@pytest.mark.parametrize("fault_at", [1, 2])
def test_pole_in_the_first_rhs_or_probe_truncates(monkeypatch, fault_at):
    """A pole in f(t0, y0) (call 1) or in the initial-step probe (call 2)
    comes back as a truncated trajectory, not as an exception."""
    sys_, x0 = oracle_point("rational")
    calls = []
    flow = dynamics._flow

    def field(system, y, reduced):
        calls.append(y)
        if len(calls) == fault_at:
            raise PoleError("pole planted in the vector field")
        return flow(system, y, reduced)

    monkeypatch.setattr(dynamics, "_flow", field)
    traj = integrate(sys_, x0, 0.4, 1e-9, n_points=7)
    assert not traj.completed
    assert traj.abort_reason == ("integration aborted at t = 0: "
                                 "pole planted in the vector field")
    assert traj.n_points == 1
    assert traj.stats["nfev"] == fault_at and traj.stats["accepted"] == 0


def test_negative_t_final_lands_exactly():
    sys_, x0 = oracle_point("trigonometric")
    traj = integrate(sys_, x0, -0.37, 1e-8, n_points=5)
    assert traj.completed and traj.times[-1] == -0.37
    solver = DormandPrince(lambda t, y: 1j * y, 0.0, np.ones(3), -0.37,
                           1e-8, 1e-10)
    while not solver.finished:
        assert solver.step()
    assert solver.t == -0.37
    assert np.allclose(solver.y, np.exp(-0.37j), rtol=1e-7)
    assert solver.stats["nfev"] == 2 + 6 * (solver.stats["accepted"]
                                            + solver.stats["rejected"])


def test_no_scipy_on_the_import_path(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "family": "rational", "rank": 1,
        "initial": {"preset": "free", "q": [0.7], "p": [0.3]},
        "integration": {"t_final": 0.5, "n_points": 3}}), encoding="utf-8")
    script = (
        "import sys\n"
        "import spincm\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import spincm.cli\n"
        f"assert spincm.cli.main(['info', '--config', {str(cfg)!r}]) == 0\n"
        f"assert spincm.cli.main(['simulate', '--config', {str(cfg)!r},"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(spincm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
