"""The trajectory CSV export: the array writer against the point-by-point
reference of `tests/helpers.py`, byte for byte, and the reader's round
trip."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import reference_csv
from spincm.cli import EXIT_PASS, main
from spincm.dynamics import (Trajectory, _pack_point, gauge_residual,
                             hamiltonian, integrate, make_system,
                             read_trajectory_csv, spinless_state,
                             trajectory_csv, write_trajectory_csv)
from spincm.elliptic import Lattice
from spincm.phase import project_pi


def a2_system(family):
    lattice = Lattice(2.0, 2.2j) if family == "elliptic" else None
    sys_ = make_system(family, 2, lattice=lattice)
    q = np.linalg.solve(sys_.rs.alpha_h[:2], [0.8, 0.7])
    return sys_, spinless_state(sys_.rs, q, [0.3, -0.2], 0.4 + 0.3j)


def written(path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_csv_matches_point_by_point_writer(tmp_path, family, reduced):
    sys_, x0 = a2_system(family)
    if reduced:
        x0 = project_pi(x0)
    traj = integrate(sys_, x0, 0.3, 1e-9, n_points=9)
    assert traj.completed and traj.n_points == 9
    text = trajectory_csv(sys_, traj)
    assert text == reference_csv(sys_, traj)
    write_trajectory_csv(tmp_path / "t.csv", sys_, traj)
    assert written(tmp_path / "t.csv") == text
    if not reduced:
        times, points = read_trajectory_csv(tmp_path / "t.csv", sys_.rs)
        assert np.array_equal(times, traj.times)
        back = np.array([_pack_point(x) for x in points])
        keep = np.r_[0:2 * 2, 3 * 2:back.shape[1]]   # all but the Cartan xi
        assert np.array_equal(back[:, keep], traj.states[:, keep])


def test_csv_of_a_truncated_trajectory():
    """The collision guard stops the run inside the grid: the rows written
    are the points reached, as the reference writes them."""
    sys_ = make_system("rational", 1)
    x0 = spinless_state(sys_.rs, [0.5 / math.sqrt(2.0)], [0.0], 1.0)
    traj = integrate(sys_, x0, 5.0, 1e-10, n_points=41)
    assert not traj.completed and "collision guard" in traj.abort_reason
    assert 1 < traj.n_points < 41
    assert trajectory_csv(sys_, traj) == reference_csv(sys_, traj)


def test_csv_of_awkward_values():
    """Signed zeros, subnormals, huge values and non-finite entries render
    as the per-value formatting renders them, in every column kind."""
    sys_ = make_system("rational", 2)
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -1e-300, 1e308, -1.5, 2.0 ** 60,
                        1 / 3, math.nan, math.inf, -math.inf])
    width = 2 * 2 + sys_.rs.dim
    n = 12

    def draw(*shape):
        out = np.empty(shape, dtype=complex)
        out.real, out.imag = rng.choice(special, (2,) + shape)
        return out

    states = draw(n, width)
    traj = Trajectory(rng.choice(special[:8], n), states, sys_.rs, False,
                      draw(n), rng.choice(special, n), True)
    extra = {"a": list(rng.choice(special, n)), "b": draw(n)}
    assert trajectory_csv(sys_, traj, extra) == reference_csv(sys_, traj,
                                                              extra)
    empty = Trajectory(np.zeros(0), states[:0], sys_.rs, False, np.zeros(0),
                       np.zeros(0), True)
    assert trajectory_csv(sys_, empty, {"a": []}) == \
        reference_csv(sys_, empty, {"a": []})


def test_reduce_csv_matches_point_by_point_writer(tmp_path):
    """`spincm reduce` writes the reduced rows and the gauge_residual
    column as the reference writes the same trajectory."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "trigonometric", "rank": 2,
        "initial": {"q": [0.9, -0.65], "p": [0.35, 0.1],
                    "xi": {"[1,0]": 1.0, "[-1,0]": [0.8, -0.2],
                           "[0,1]": 1.0, "[0,-1]": [0.4, 0.3],
                           "[1,1]": [0.5, 0.1], "[-1,-1]": 0.7}},
        "integration": {"t_final": 0.5, "n_points": 7}}), encoding="utf-8")
    sim, red = tmp_path / "sim", tmp_path / "red"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) \
        == EXIT_PASS
    assert main(["reduce", str(sim / "trajectory.csv"), "--config",
                 str(cfg), "--out", str(red)]) == EXIT_PASS
    sys_ = make_system("trigonometric", 2)
    times, points = read_trajectory_csv(sim / "trajectory.csv", sys_.rs)
    reduced = [project_pi(x) for x in points]
    traj = Trajectory(times, np.array([_pack_point(x) for x in reduced]),
                      sys_.rs, True,
                      np.array([hamiltonian(sys_, x)
                                for x in reduced]),
                      np.zeros(len(times)), True)
    extra = {"gauge_residual": [gauge_residual(sys_, x) for x in points]}
    assert written(red / "trajectory.csv") == reference_csv(sys_, traj, extra)


def test_reduce_of_a_header_only_csv(tmp_path):
    """A trajectory without rows reduces to a CSV of the header alone."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "rational", "rank": 1}),
                   encoding="utf-8")
    src = tmp_path / "empty.csv"
    src.write_text("t,q1,p1,xi[1],xi[-1],energy,J_residual\r\n",
                   encoding="utf-8")
    assert main(["reduce", str(src), "--config", str(cfg), "--out",
                 str(tmp_path / "red")]) == EXIT_PASS
    assert written(tmp_path / "red" / "trajectory.csv") == \
        "t,q1,p1,s[-1],energy,J_residual,gauge_residual\r\n"
