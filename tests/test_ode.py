"""The Dormand-Prince 8(5,3) driver behind `integrate`: scipy's DOP853 as
the oracle, the order of the method and of its dense output, edge cases of
the step control, and no scipy on the import path."""

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
from spincm.dynamics import (hamiltonian, integrate, make_system,
                             spinless_state, vector_field)
from spincm.elliptic import Lattice
from spincm.errors import PoleError
from spincm.ode import EPS, DormandPrince
from spincm.phase import PhasePoint, project_pi


def oracle_point(family):
    """A_3 spinless point with simple-root values (0.8, 0.9, 0.7): collision
    margin 0.64 or more in every family."""
    lattice = Lattice(2, 2.2j) if family == "elliptic" else None
    sys_ = make_system(family, 3, lattice=lattice)
    q = np.linalg.solve(sys_.rs.alpha_h[:3], [0.8, 0.9, 0.7])
    return sys_, spinless_state(sys_.rs, q, [0.3, -0.1, 0.2], 0.4j)


def scipy_reference(sys_, x0, t_final, tol, n_points):
    """The grid of `integrate` filled from scipy's DOP853, step by step: a
    grid point at a step end takes the step's y, and the dense output (three
    more RHS calls) is built only for steps with a grid point inside."""
    from scipy.integrate import DOP853
    rs = sys_.rs

    def rhs(t, y):
        return vector_field(sys_, PhasePoint(rs, y)).y

    solver = DOP853(rhs, 0.0, x0.y, t_final, rtol=tol,
                    atol=tol * 1e-2)
    grid = np.linspace(0.0, t_final, n_points)
    direction = 1.0 if t_final > 0 else -1.0
    values = [x0.y]
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        dense = None
        slack = 1e-12 * max(1.0, abs(solver.t))
        while len(values) < n_points and \
                (grid[len(values)] - solver.t) * direction <= slack:
            t = grid[len(values)]
            if t == solver.t:
                values.append(solver.y.copy())
                continue
            dense = dense or solver.dense_output()
            values.append(dense(t))
    return np.array(values), steps, solver.nfev


@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_matches_scipy_rk45(family, reduced, t_final):
    """The oracle is scipy's DOP853; the test keeps the name it had when
    the driver was the 5(4) pair checked against scipy's RK45."""
    pytest.importorskip("scipy")
    sys_, x0 = oracle_point(family)
    if reduced:
        x0 = project_pi(x0)
    traj = integrate(sys_, x0, t_final, 1e-9, n_points=7)
    expected, steps, nfev = scipy_reference(sys_, x0, t_final, 1e-9, 7)
    assert traj.completed
    got = traj.points.y
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)
                  / np.maximum(1.0, np.abs(expected))) < 1e-12
    assert traj.stats["accepted"] == steps
    assert traj.stats["nfev"] == nfev


def test_step_and_dense_output_have_orders_8_and_7():
    """On y' = iy, halving h divides the local error of a step by about 2^9
    and that of the interpolant at the step's midpoint by about 2^8."""
    end, mid = [], []
    for h in (0.4, 0.2):
        # the loose tolerance lets the first step cover [0, h] at once
        solver = DormandPrince(lambda t, y: 1j * y, 0.0, np.ones(1), h,
                               1.0, 1.0)
        assert solver.step() and solver.t == h
        end.append(abs(solver.y[0] - np.exp(1j * h)))
        mid.append(abs(solver.dense(h / 2)[0] - np.exp(0.5j * h)))
    assert 2 ** 8.5 < end[0] / end[1] < 2 ** 9.5
    assert 2 ** 7.5 < mid[0] / mid[1] < 2 ** 8.5


def test_step_count_scales_like_tol_to_the_minus_one_eighth():
    counts = []
    for tol in (1e-6, 1e-12):
        solver = DormandPrince(lambda t, y: 1j * y, 0.0, np.ones(1), 20.0,
                               tol, tol)
        while not solver.finished:
            assert solver.step()
        counts.append(solver.accepted)
    # (1e6)^(1/8) = 5.6; a 5th-order pair would need (1e6)^(1/5) = 15.8
    assert counts[1] / counts[0] < 1.3 * 1e6 ** (1 / 8)


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

    def field(system, y):
        calls.append(y)
        if len(calls) == fault_at:
            raise PoleError("pole planted in the vector field")
        return flow(system, y)

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
    assert solver.stats["nfev"] == 2 + 12 * (solver.stats["accepted"]
                                             + solver.stats["rejected"])
    assert solver.stats["dense"] == 0


def test_step_size_control_fails_at_a_blow_up():
    """y' = y^2, y(0) = 2 blows up at t = 1/2: the steps shrink there until
    they fall below 10 ulp of t, and step returns False with nothing moved,
    again on every later call."""
    solver = DormandPrince(lambda t, y: y * y, 0.0, np.array([2.0]), 1.0,
                           1e-10, 1e-12)
    while solver.step():
        pass
    t, y, stats = solver.t, solver.y.copy(), solver.stats
    assert not solver.finished and abs(t - 0.5) < 1e-9
    assert abs(y[0]) > 1e12 and stats["h_min"] < 1e-14
    assert not solver.step()
    assert solver.t == t and np.array_equal(solver.y, y)
    assert solver.stats["accepted"] == stats["accepted"]


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


def _horner_one(solver, t):
    """The interpolant at one time, one vector at a time (the per-point
    loop the array pass replaced)."""
    x = (t - solver.t_old) / (solver.t - solver.t_old)
    y = np.zeros_like(solver.y_old)
    for i, f in enumerate(reversed(solver._F)):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += solver.y_old
    return y


@pytest.mark.parametrize("t_final", [0.4, -0.3])
def test_dense_array_equals_scalar_calls_bit_for_bit(t_final):
    """One Horner pass over an array of times gives, row by row, the bits of
    one call per time and of the one-vector loop: interior points, a point
    just past the step end (the grid slack) and the step end itself,
    forwards and backwards."""
    sys_, x0 = oracle_point("trigonometric")
    solver = DormandPrince(lambda t, y: dynamics._flow(sys_, y), 0.0,
                           x0.y, t_final, 1e-9, 1e-11)
    steps = 0
    while not solver.finished:
        assert solver.step()
        steps += 1
        h = solver.t - solver.t_old
        times = solver.t_old + h * np.array([0.05, 0.37, 0.5, 0.93, 1.0,
                                             1.0 + 1e-13])
        times[4] = solver.t
        batch = solver.dense(times)
        assert batch.shape == (len(times), solver.y.size)
        for t, row in zip(times, batch):
            assert np.array_equal(_bits(solver.dense(t)), _bits(row))
        for t, row in zip(times[:4], batch):
            assert np.array_equal(_bits(_horner_one(solver, t)), _bits(row))
        assert np.array_equal(_bits(batch[4]), _bits(solver.y))
        # the step end alone builds no interpolant
        assert np.array_equal(_bits(solver.dense(np.array([solver.t]))[0]),
                              _bits(solver.y))
    assert steps > 2 and solver.dense_steps == steps


@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("family", ["rational", "elliptic"])
def test_dense_array_matches_scipy_dense_output(family, t_final):
    """Several points per step against scipy's DOP853 interpolant, step by
    step on the same accepted steps."""
    pytest.importorskip("scipy")
    from scipy.integrate import DOP853
    sys_, x0 = oracle_point(family)
    y0 = x0.y

    def rhs(t, y):
        return dynamics._flow(sys_, y)

    ours = DormandPrince(rhs, 0.0, y0, t_final, 1e-9, 1e-11)
    ref = DOP853(rhs, 0.0, y0, t_final, rtol=1e-9, atol=1e-11)
    while not ours.finished:
        assert ours.step()
        ref.step()
        assert ours.t == ref.t
        times = ours.t_old + (ours.t - ours.t_old) * np.linspace(0.1, 0.9, 5)
        expected = ref.dense_output()(times).T
        got = ours.dense(times)
        assert np.max(np.abs(got - expected)
                      / np.maximum(1.0, np.abs(expected))) < 1e-13


def sequential_run(sys_, x0, t_final, n_points, tol=1e-9):
    """The grid of `integrate` as its step loop filled it with one dense
    call per step (the loop before the dense stages were stacked): the
    states, the solver, and the reason of a pole in a step or a dense
    stage (None if none)."""
    solver = DormandPrince(lambda t, y: dynamics._flow(sys_, y),
                           0.0, x0.y, t_final, tol, tol * 1e-2)
    t_grid = np.linspace(0.0, t_final, n_points)
    states, reason = [x0.y], None
    while not solver.finished:
        try:
            assert solver.step()
            slack = 1e-12 * max(1.0, abs(solver.t))
            end = len(states) + np.count_nonzero(
                (t_grid[len(states):] - solver.t) * solver.direction <= slack)
            states.extend(solver.dense(t_grid[len(states):end]))
        except PoleError as exc:
            reason = f"integration aborted at t = {solver.t:.6g}: {exc}"
            break
    return np.array(states), solver, reason


@pytest.mark.parametrize("n_points", [2, 101])
@pytest.mark.parametrize("t_final", [0.4, -0.3])
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_stacked_dense_pass_is_the_sequential_loop_bit_for_bit(
        family, reduced, t_final, n_points):
    """The grid states, the energy column and the solver counts of
    `integrate`, whose dense stages run stacked after the last step, equal
    those of one dense call per step, bit for bit: at 101 points every
    step is dense, at 2 none is."""
    sys_, x0 = oracle_point(family)
    if reduced:
        x0 = project_pi(x0)
    traj = integrate(sys_, x0, t_final, 1e-9, n_points=n_points)
    states, solver, reason = sequential_run(sys_, x0, t_final, n_points)
    assert traj.completed and reason is None
    assert np.array_equal(_bits(traj.points.y), _bits(states))
    energy = hamiltonian(sys_, PhasePoint(sys_.rs, states))
    assert np.array_equal(_bits(traj.energy), _bits(energy))
    assert traj.stats == solver.stats
    dense = traj.stats["dense"]
    assert dense == (0 if n_points == 2 else traj.stats["accepted"])


@pytest.mark.parametrize("n_points", [2, 1001])
@pytest.mark.parametrize("reduced", [False, True])
def test_nfev_counts_every_evaluated_state(reduced, n_points):
    """f(t0), the initial-step probe, 12 stages per attempted step and 3
    stacked rows per dense step, with no grid point inside a step and
    with one in every step."""
    sys_, x0 = oracle_point("elliptic")
    if reduced:
        x0 = project_pi(x0)
    stats = integrate(sys_, x0, 0.4, 1e-9, n_points=n_points).stats
    assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) \
        + 3 * stats["dense"]
    assert stats["dense"] == (0 if n_points == 2 else stats["accepted"])


def test_a_pole_in_one_dense_row_truncates_where_the_sequential_run_does(
        monkeypatch):
    """A pole in the stage-13 row of the fourth dense step, inside the
    stacked call: the run keeps the grid points before that step's and
    stops with the reason of the sequential loop, which met the same pole
    in that step's own dense call."""
    sys_, x0 = oracle_point("trigonometric")
    flow, stacked = dynamics._flow, []

    def spy(system, y):
        if y.ndim == 2:
            stacked.append(y.copy())
        return flow(system, y)

    monkeypatch.setattr(dynamics, "_flow", spy)
    clean = integrate(sys_, x0, 0.4, 1e-9, n_points=101)
    assert len(stacked) == 3 and len(stacked[0]) == clean.stats["dense"] > 4
    target = stacked[0][3]

    def field(system, y):
        if (y.reshape(-1, y.shape[-1]) == target).all(-1).any():
            raise PoleError("pole planted in a dense stage")
        return flow(system, y)

    monkeypatch.setattr(dynamics, "_flow", field)
    traj = integrate(sys_, x0, 0.4, 1e-9, n_points=101)
    states, solver, reason = sequential_run(sys_, x0, 0.4, 101)
    assert reason.startswith("integration aborted at t = ") and \
        reason.endswith(": pole planted in a dense stage")
    assert not traj.completed and traj.abort_reason == reason
    assert 1 < traj.n_points < clean.n_points
    assert np.array_equal(_bits(traj.points.y), _bits(states))
    assert np.array_equal(_bits(traj.points.y), _bits(clean.points.y[
        :traj.n_points]))
    # the loop went on past that step: only the counts tell
    assert traj.stats["accepted"] == clean.stats["accepted"] > \
        solver.stats["accepted"]
