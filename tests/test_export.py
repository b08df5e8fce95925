"""The trajectory CSV export: the array writer against the point-by-point
reference of `tests/helpers.py`, byte for byte, and the reader's round
trip."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from helpers import point, reference_csv, stack
from spincm.cli import EXIT_PASS, main
from spincm.dynamics import (Trajectory, gauge_residual, hamiltonian,
                             integrate,
                             make_system, read_trajectory_csv, spectral_drifts,
                             spinless_state, trajectory_csv,
                             write_trajectory_csv)
from spincm.elliptic import Lattice
from spincm.phase import PhasePoint, project_pi, reduced_roots


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
    text = trajectory_csv(traj)
    assert text == reference_csv(traj)
    write_trajectory_csv(tmp_path / "t.csv", traj)
    assert written(tmp_path / "t.csv") == text
    back = read_trajectory_csv(tmp_path / "t.csv", sys_.rs)
    assert back.points.reduced == reduced
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.points.y, traj.points.y)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_csv_round_trip_is_the_trajectory(tmp_path, family, rank, reduced):
    """read_trajectory_csv gives back the trajectory write_trajectory_csv
    wrote, of either kind and with a nonzero Cartan spin block: times,
    states, energy and constraint bit for bit, so its spectral drifts are
    those of the trajectory in memory exactly."""
    sys_ = make_system(family, rank, lattice=Lattice(2.0, 2.2j)
                       if family == "elliptic" else None)
    rs = sys_.rs
    rng = np.random.default_rng(70 + rank)
    xi = rng.uniform(0.4, 1.3, rs.dim) * np.exp(1j * rng.uniform(-1, 1,
                                                                 rs.dim))
    xi[:rank] = rng.uniform(0.1, 0.3, rank) * rng.choice([-1, 1], rank)
    x0 = point(rs, np.linalg.solve(rs.alpha_h[:rank],
                                   rng.uniform(0.6, 0.9, rank)) + 0j,
               rng.uniform(-0.3, 0.3, rank) + 0j, xi)
    traj = integrate(sys_, project_pi(x0) if reduced else x0, 0.3, 1e-9,
                     n_points=6)
    assert traj.completed and traj.n_points == 6
    if not reduced:
        assert np.all(traj.points.y[:, 2 * rank:3 * rank] != 0)
    write_trajectory_csv(tmp_path / "t.csv", traj)
    back = read_trajectory_csv(tmp_path / "t.csv", rs)
    assert (back.points.rs, back.points.reduced, back.completed) == (
        rs, reduced, True)
    assert back.abort_reason is None and back.stats is None
    assert np.array_equal(back.points.y, traj.points.y)
    for name in ("times", "energy", "constraint"):
        assert np.array_equal(getattr(back, name), getattr(traj, name)), name
    assert spectral_drifts(sys_, back) == spectral_drifts(sys_, traj)


def test_csv_of_a_truncated_trajectory():
    """The collision guard stops the run inside the grid: the rows written
    are the points reached, as the reference writes them."""
    sys_ = make_system("rational", 1)
    x0 = spinless_state(sys_.rs, [0.5 / math.sqrt(2.0)], [0.0], 1.0)
    traj = integrate(sys_, x0, 5.0, 1e-10, n_points=41)
    assert not traj.completed and "collision guard" in traj.abort_reason
    assert 1 < traj.n_points < 41
    assert trajectory_csv(traj) == reference_csv(traj)


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
    traj = Trajectory(rng.choice(special[:8], n), PhasePoint(sys_.rs, states),
                      draw(n), rng.choice(special, n), True)
    extra = {"a": list(rng.choice(special, n)), "b": draw(n)}
    assert trajectory_csv(traj, extra) == reference_csv(traj, extra)
    empty = Trajectory(np.zeros(0), PhasePoint(sys_.rs, states[:0]),
                       np.zeros(0), np.zeros(0), True)
    assert trajectory_csv(empty, {"a": []}) == reference_csv(empty,
                                                             {"a": []})


def test_reduce_csv_matches_point_by_point_writer(tmp_path):
    """`spincm reduce` writes the reduced rows and the gauge_residual
    column as the reference writes the same trajectory: s, the energy and
    the gauge residual of each point computed on its own."""
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
    read = read_trajectory_csv(sim / "trajectory.csv", sys_.rs)
    times, states = read.times, read.points
    reduced = [project_pi(y) for y in states]
    traj = Trajectory(times, stack(reduced),
                      np.array([hamiltonian(sys_, x)
                                for x in reduced]),
                      np.zeros(len(times)), True)
    extra = {"gauge_residual": [gauge_residual(sys_, y[None])[0]
                                for y in states]}
    assert written(red / "trajectory.csv") == reference_csv(traj, extra)


def monomials(rs, xi) -> list[complex]:
    """The oracle of s: s_alpha = xi_alpha prod_i xi_{alpha_i}^(-m_alpha^i)
    in Python complex arithmetic, root by root."""
    out = []
    for root in reduced_roots(rs):
        s = complex(xi[rs.basis_index(root)])
        for m, simple in zip(root, rs.simple_roots):
            if m:
                s *= complex(xi[rs.basis_index(simple)]) ** -m
        out.append(s)
    return out


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_reduce_against_a_per_point_oracle(tmp_path, family, rank):
    """`spincm reduce` of a generic unreduced trajectory: the t, q and p
    fields as read, s and the energy within 1e-15 relative of the Python
    monomials and the per-point hamiltonian, the gauge residual below
    1e-12."""
    lattice = {"omega1": [2.0, 0.0], "omega2": [0.0, 2.2]}
    sys_ = make_system(family, rank, lattice=Lattice(2.0, 2.2j)
                       if family == "elliptic" else None)
    rs, n = sys_.rs, rank
    rng = np.random.default_rng(40 + rank)
    xi = rng.uniform(0.4, 1.3, rs.dim) * np.exp(1j * rng.uniform(-1, 1,
                                                                 rs.dim))
    xi[:n] = 0.0
    x0 = point(rs, np.linalg.solve(rs.alpha_h[:n], rng.uniform(0.6, 0.9, n))
               + 0j, rng.uniform(-0.3, 0.3, n) + 0j, xi)
    traj = integrate(sys_, x0, 0.5, 1e-9, n_points=21)
    assert traj.completed
    write_trajectory_csv(tmp_path / "t.csv", traj)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": family, "rank": rank, **(
        {"lattice": lattice} if family == "elliptic" else {})}))
    assert main(["reduce", str(tmp_path / "t.csv"), "--config", str(cfg),
                 "--out", str(tmp_path / "red")]) == EXIT_PASS
    rows_in = list(csv.reader(open(tmp_path / "t.csv", newline="")))[1:]
    rows = list(csv.reader(open(tmp_path / "red" / "trajectory.csv",
                                newline="")))[1:]
    assert len(rows) == 21
    states = read_trajectory_csv(tmp_path / "t.csv", rs).points.y
    n_s = rs.n_roots - n
    for row_in, row, y in zip(rows_in, rows, states):
        assert row[:1 + 2 * n] == row_in[:1 + 2 * n]
        s = np.array(monomials(rs, y[2 * n:]))
        energy = hamiltonian(sys_, point(rs, y[:n], y[n:2 * n], s, True))
        got = np.array([complex(v) for v in row[1 + 2 * n:]])
        assert np.all(np.abs(got[:n_s] - s) <= 1e-15 * np.abs(s))
        assert abs(got[n_s] - energy) <= 1e-15 * abs(energy)
        assert got[-1].real < 1e-12


def test_reduce_of_a_header_only_csv(tmp_path):
    """A trajectory without rows reduces to a CSV of the header alone."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "rational", "rank": 1}),
                   encoding="utf-8")
    src = tmp_path / "empty.csv"
    src.write_text("t,q1,p1,xi_h1,xi[1],xi[-1],energy,J_residual\r\n",
                   encoding="utf-8")
    assert main(["reduce", str(src), "--config", str(cfg), "--out",
                 str(tmp_path / "red")]) == EXIT_PASS
    assert written(tmp_path / "red" / "trajectory.csv") == \
        "t,q1,p1,s[-1],energy,J_residual,gauge_residual\r\n"
