"""The Chebyshev-Picard driver behind `integrate`: its true error against
scipy's DOP853 at rtol 1e-13 and against closed forms, its counts, the
stacked sweep against one call per node, edge cases of the window control,
and no scipy on the import path."""

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
from spincm.dynamics import hamiltonian, integrate, make_system, spinless_state
from spincm.elliptic import Lattice
from spincm.errors import PoleError
from spincm.ode import EPS, N, ChebyshevPicard
from spincm.phase import PhasePoint, project_pi

# The bound on every grid state's error (relative to max(1, |y|)) at tol
# 1e-9, against scipy's DOP853 at rtol 1e-13: a fifth of tol.  The worst
# case measured is 5.4e-11 (trigonometric A_4, T = 0.4), where DOP853 at
# tol 1e-9 is 1.2e-9 off.
TRUE_ERROR = 2e-10


def oracle_point(family, rank=3):
    """A spinless point with simple-root values (0.8, 0.9, 0.7, 0.3) (the
    first ``rank``): collision margin 0.3 or more in every family."""
    lattice = Lattice(2, 2.2j) if family == "elliptic" else None
    sys_ = make_system(family, rank, lattice=lattice)
    q = np.linalg.solve(sys_.rs.alpha_h[:rank], [0.8, 0.9, 0.7, 0.3][:rank])
    p = [0.3, -0.1, 0.2, 0.15][:rank]
    return sys_, spinless_state(sys_.rs, q, p, 0.4j)


def scipy_grid(sys_, x0, t_final, n_points, rtol=1e-13):
    """The grid of `integrate` from scipy's DOP853 (dense output), atol
    rtol * 1e-2."""
    from scipy.integrate import solve_ivp
    grid = np.linspace(0.0, t_final, n_points)
    run = solve_ivp(lambda t, y: dynamics._flow(sys_, y), (0.0, t_final),
                    x0.y, method="DOP853", t_eval=grid, rtol=rtol,
                    atol=rtol * 1e-2)
    return run.y.T


def error(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_matches_scipy_rk45(family, reduced, t_final):
    """Every grid state at ranks 1-4 within TRUE_ERROR of scipy's DOP853 at
    rtol 1e-13, and no further from it than DOP853 at the same tol.  The
    test keeps the name it had when the driver was the 5(4) pair checked
    step for step against scipy's RK45."""
    pytest.importorskip("scipy")
    for rank in (1, 2, 3, 4):
        sys_, x0 = oracle_point(family, rank)
        if reduced:
            x0 = project_pi(x0)
        traj = integrate(sys_, x0, t_final, 1e-9, n_points=7)
        assert traj.completed
        reference = scipy_grid(sys_, x0, t_final, 7)
        assert traj.points.y.shape == reference.shape
        ours = error(traj.points.y, reference)
        assert ours < TRUE_ERROR, rank
        assert ours <= error(scipy_grid(sys_, x0, t_final, 7, 1e-9),
                             reference), rank


@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("family", ["rational", "elliptic"])
def test_dense_array_matches_scipy_dense_output(family, t_final):
    """101 grid points, most of them inside a window (from its polynomial),
    within TRUE_ERROR of scipy's DOP853 at rtol 1e-13."""
    pytest.importorskip("scipy")
    sys_, x0 = oracle_point(family)
    traj = integrate(sys_, x0, t_final, 1e-9, n_points=101)
    assert traj.completed and traj.stats["accepted"] < 50
    assert error(traj.points.y, scipy_grid(sys_, x0, t_final, 101)) \
        < TRUE_ERROR


def test_iy_over_many_windows_is_exp_it():
    """y' = iy over 40 time units: every window end, and the polynomial
    inside the windows, on e^{it} to 1e-8."""
    solver = ChebyshevPicard(lambda y: 1j * y, np.ones(2), 40.0, 1e-10,
                             1e-12)
    while not solver.finished:
        assert solver.step()
        assert abs(solver.y[0] - np.exp(1j * solver.t)) < 1e-8
        t = solver.t - solver.h * np.array([0.1, 0.35, 0.5, 0.8])
        assert np.max(np.abs(solver.solution(t)[:, 1] - np.exp(1j * t))) \
            < 1e-8
    assert solver.t == 40.0 and solver.accepted > 5


def test_negative_t_final_lands_exactly():
    sys_, x0 = oracle_point("trigonometric")
    traj = integrate(sys_, x0, -0.37, 1e-8, n_points=5)
    assert traj.completed and traj.times[-1] == -0.37
    solver = ChebyshevPicard(lambda y: 1j * y, np.ones(3), -0.37, 1e-8,
                             1e-10)
    while not solver.finished:
        assert solver.step()
    assert solver.t == -0.37 and solver.h < 0
    assert np.allclose(solver.y, np.exp(-0.37j), rtol=1e-9, atol=0)
    # f(y0) on one row, then the window's N + 1 nodes per call
    assert solver.stats["nfev"] == 1 + (N + 1) * (solver.stats["calls"] - 1)


def test_step_size_control_fails_at_a_blow_up():
    """y' = y^2, y(0) = 2 blows up at t = 1/2: y = 1 / (1/2 - t) at the
    window ends up to |y| = 1e4, then the windows shrink until they fall
    below their minimum, and step returns False with nothing moved, again
    on every later call."""
    solver = ChebyshevPicard(lambda y: y * y, np.array([2.0]), 1.0, 1e-10,
                             1e-12)
    with np.errstate(all="ignore"):
        while solver.step():
            if abs(solver.y[0]) < 1e4:
                assert abs(solver.y[0] * (0.5 - solver.t) - 1) < 1e-8
        t, y, stats = solver.t, solver.y.copy(), solver.stats
        assert not solver.finished and abs(t - 0.5) < 1e-9
        assert abs(y[0]) > 1e12 and stats["h_min"] < 1e-12
        assert not solver.step()
    assert solver.t == t and np.array_equal(solver.y, y)
    assert solver.stats["accepted"] == stats["accepted"]


def test_tiny_tol_is_floored_without_warning():
    sys_, x0 = oracle_point("rational")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sys_, x0, 0.05, 1e-16, n_points=3)
    assert traj.completed
    solver = ChebyshevPicard(lambda y: -y, np.ones(2), 1.0, 1e-16, 1e-18)
    assert solver.rtol == 100 * EPS


@pytest.mark.parametrize("fault_at", [1, 2])
def test_pole_in_the_first_rhs_or_probe_truncates(monkeypatch, fault_at):
    """A pole in f(y0) (call 1) truncates at once; one in every stacked
    sweep (calls 2 on) rejects the window down to the minimum window,
    where the pole truncates the run.  Either way the trajectory comes back
    at t = 0, not as an exception."""
    sys_, x0 = oracle_point("rational")
    calls = []
    flow = dynamics._flow

    def field(system, y):
        calls.append(y)
        if len(calls) >= fault_at:
            raise PoleError("pole planted in the vector field")
        return flow(system, y)

    monkeypatch.setattr(dynamics, "_flow", field)
    traj = integrate(sys_, x0, 0.4, 1e-9, n_points=7)
    assert not traj.completed
    assert traj.abort_reason == ("integration aborted at t = 0: "
                                 "pole planted in the vector field")
    assert traj.n_points == 1
    stats = traj.stats
    assert stats["accepted"] == 0 and stats["calls"] == len(calls)
    if fault_at == 1:
        assert stats["nfev"] == 1 and stats["rejected"] == 0
    else:
        # f(y0), one faulting call per rejected window, and the one at the
        # minimum window that truncates
        assert stats["calls"] == 2 + stats["rejected"] > 20


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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n_points", [2, 101])
@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_stacked_dense_pass_is_the_sequential_loop_bit_for_bit(
        monkeypatch, family, reduced, t_final, n_points):
    """The grid states, the energy column and the solver counts of
    `integrate`, whose sweeps evaluate a window's nodes in one stacked flow
    call, equal those of one flow call per node, bit for bit."""
    sys_, x0 = oracle_point(family)
    if reduced:
        x0 = project_pi(x0)
    traj = integrate(sys_, x0, t_final, 1e-9, n_points=n_points)
    flow = dynamics._flow
    monkeypatch.setattr(dynamics, "_flow", lambda system, y: np.array(
        [flow(system, row) for row in y]))
    rows = integrate(sys_, x0, t_final, 1e-9, n_points=n_points)
    assert traj.completed and rows.completed
    assert np.array_equal(_bits(traj.points.y), _bits(rows.points.y))
    energy = hamiltonian(sys_, PhasePoint(sys_.rs, rows.points.y))
    assert np.array_equal(_bits(traj.energy), _bits(energy))
    assert traj.stats == rows.stats


@pytest.mark.parametrize("n_points", [2, 1001])
@pytest.mark.parametrize("reduced", [False, True])
def test_nfev_counts_every_evaluated_state(reduced, n_points):
    """f(y0) on one row, then N + 1 rows per sweep; the grid, read off the
    window polynomials, costs no evaluation, so 2 and 1001 grid points
    give the same counts."""
    sys_, x0 = oracle_point("elliptic")
    if reduced:
        x0 = project_pi(x0)
    stats = integrate(sys_, x0, 0.4, 1e-9, n_points=n_points).stats
    assert stats["nfev"] == 1 + (N + 1) * (stats["calls"] - 1)
    assert stats == integrate(sys_, x0, 0.4, 1e-9, n_points=2).stats
