"""CLI contract: config validation, subcommands, exit codes, file outputs."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from spincm import cli, dynamics, rmatrix
from spincm.cli import (EXIT_CONFIG, EXIT_PASS, EXIT_RESIDUAL,
                        EXIT_SINGULARITY, FAULT_SCALE, SUITES,
                        _INVOLUTION_BATTERY, _build_parser,
                        build_initial, default_thresholds, load_config, main,
                        parse_config)
from spincm.dynamics import (integrate, involution_residuals, lax_residuals,
                             read_trajectory_csv, spectral_drifts)
from spincm.errors import ConfigError, StructuralError
from spincm.phase import PhasePoint, reduced_roots
from spincm.rmatrix import verify_axioms, verify_cdybe, verify_mdybe
from spincm.rootsys import build_root_system, root_label


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [complex(row[idx]) for row in rows]


# -- config parsing -----------------------------------------------------------


def test_config_round_trip():
    fixtures = [
        {"family": "rational", "rank": 2, "delta_prime": [[1, 0], [-1, 0]]},
        {"family": "trigonometric", "rank": 3, "pi_prime": [0, 2],
         "seed": 11},
        {"family": "elliptic", "rank": 1,
         "lattice": {"omega1": [2.0, 0.0], "omega2": [0.0, 2.2]},
         "integration": {"t_final": 3.0}},
        {"family": "rational", "rank": 2, "pi_prime": [0]},
    ]
    for data in fixtures:
        config = parse_config(data)
        assert parse_config(asdict(config)) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config({"family": "rational", "rank": 2, "bogus": 1})
    with pytest.raises(ConfigError, match="speed"):
        parse_config({"family": "rational", "rank": 2,
                      "integration": {"speed": 9}})
    with pytest.raises(ConfigError, match="plot"):
        parse_config({"family": "rational", "rank": 2,
                      "outputs": {"plot": "x.png"}})
    # power sums past the matrix size add no invariant: no kmax knob
    with pytest.raises(ConfigError, match="unknown key 'kmax' in outputs"):
        parse_config({"family": "rational", "rank": 2,
                      "outputs": {"kmax": 3}})
    # the collision guard reads the constant COLLISION_TOL: no knob
    with pytest.raises(ConfigError, match="unknown key 'collision_tol' in "
                                          "integration"):
        parse_config({"family": "rational", "rank": 2,
                      "integration": {"collision_tol": 1e-6}})
    with pytest.raises(ConfigError, match="extra"):
        parse_config({"family": "rational", "rank": 2,
                      "initial": {"q": [1.0], "p": [0.0], "extra": 1}})
    with pytest.raises(ConfigError, match="fpbr"):
        parse_config({"family": "rational", "rank": 2,
                      "thresholds": {"fpbr": 1e-7}})


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="rank"):
        parse_config({"family": "rational", "rank": 9})
    with pytest.raises(ConfigError, match="family"):
        parse_config({"rank": 2})
    config = parse_config({"family": "rational", "rank": 2,
                           "delta_prime": [[3, 7], [-3, -7]]})
    with pytest.raises(ConfigError, match=r"\(3, 7\)"):
        config.system()
    config = parse_config({"family": "elliptic", "rank": 1})
    with pytest.raises(ConfigError, match="lattice"):
        config.system()


def test_default_thresholds_by_family():
    rational = default_thresholds("rational")
    elliptic = default_thresholds("elliptic")
    assert rational["cdybe"] == 1e-10 and elliptic["cdybe"] == 1e-8
    assert rational["involution"] == 1e-8 and elliptic["involution"] == 1e-6
    cfg = parse_config({"family": "rational", "rank": 2,
                        "thresholds": {"cdybe": 1e-9}})
    assert cfg.thresholds["cdybe"] == 1e-9
    assert cfg.thresholds["mdybe"] == 1e-8


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "rational",\n "rank": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(bad)


# -- simulate -----------------------------------------------------------------


def spinless_sl2_config(tmp_path, **extra):
    # escaping spinless pair: kinetic energy above the (attractive) well
    data = {
        "family": "rational",
        "rank": 1,
        "initial": {"preset": "spinless(1)",
                    "q": [1.2 / math.sqrt(2.0)], "p": [1.4]},
        "integration": {"t_final": 1.0, "tol": 1e-10, "n_points": 21},
    }
    data.update(extra)
    return write_config(tmp_path, "sim.json", data)


def test_simulate_spinless_energy_constant(tmp_path):
    cfg = spinless_sl2_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    header, rows = read_csv(tmp_path / "trajectory.csv")
    energy = column(header, rows, "energy")
    assert len(rows) == 21
    assert max(abs(e - energy[0]) for e in energy) < 1e-8
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["completed"] is True
    assert diag["energy_drift"] < 1e-8


def test_simulate_reports_solver_stats(tmp_path):
    cfg = spinless_sl2_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    solver = json.loads((tmp_path / "diagnostics.json").read_text())["solver"]
    assert set(solver) == {"calls", "nfev", "accepted", "rejected", "h_min",
                           "h_max"}
    # f(y0) on one row, then one call on a window's 17 nodes per sweep
    assert solver["nfev"] == 1 + 17 * (solver["calls"] - 1)
    assert solver["calls"] > solver["accepted"] > 0
    assert 0 < solver["h_min"] <= solver["h_max"] <= 1.0


def test_a_wall_crossed_between_two_window_nodes_passes_unseen(tmp_path):
    """Rational A_1 from s = 0 at q = 0.0537, p = -1 moves freely and
    crosses the wall q = 0 at t = 0.0537.  Its one window (three calls:
    the free flow is its first sweep, which the next two confirm) has nodes
    at t = 0.05 and 0.0598 around the crossing, none within COLLISION_TOL
    of the wall, so the node guard lets the run through: simulate completes
    and the spectral suite passes with both drifts at rounding level.  This
    pins the guard as it is; one that sees the crossing truncates the run
    and exits 3."""
    cfg = write_config(tmp_path, "wall.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.0537], "p": [-1], "s": {"[-1]": 0}},
        "integration": {"t_final": 0.1}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["completed"] is True
    assert diag["solver"] == {"calls": 3, "nfev": 35, "accepted": 1,
                              "rejected": 0, "h_min": 0.1, "h_max": 0.1}
    config = load_config(cfg)
    system = config.system()
    nodes = 0.05 * (1 - np.cos(np.pi * np.arange(17) / 16))
    margins = dynamics.collision_margin(system, (0.0537 - nodes)[:, None])
    assert margins.min() > 1e-3 > dynamics.COLLISION_TOL
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--out", str(tmp_path)]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True and len(report["checks"]) == 2
    assert max(check["max_residual"] for check in report["checks"]) < 1e-15


@pytest.mark.parametrize("initial", [
    {"q": [1e300]}, {"preset": "spinless(1e300)"}, {"p": [1e300]}],
    ids=lambda patch: json.dumps(patch))
def test_simulate_huge_initial_values_end_without_traceback(
        tmp_path, capsys, initial):
    """Finite values whose energy or initial-step norm overflows end in a
    typed error or a truncated run."""
    cfg = write_config(tmp_path, "huge.json", {
        "family": "rational", "rank": 1,
        "initial": {"preset": "spinless(0.4j)", "q": [0.7], "p": [0.3],
                    **initial},
        "integration": {"t_final": 0.5, "n_points": 3}})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) in {(EXIT_CONFIG, "spincm"),
                                         (EXIT_SINGULARITY, "simulate")}


WIDE_LATTICE = {"omega1": [2.0, 0.0], "omega2": [0.0, 2.2]}


@pytest.mark.parametrize("family,q", [("trigonometric", 1e15),
                                      ("trigonometric", 1e200),
                                      ("elliptic", 1e15)])
def test_simulate_spectrum_drift_fault_is_a_config_error(
        tmp_path, capsys, family, q):
    """The run completes; the post-run spectrum_drift overflows (exp of a
    huge root value) and exits 2 with a spincm: line naming the
    diagnostic, not a traceback."""
    data = {"family": family, "rank": 1,
            "initial": {"preset": "spinless(0.4j)", "q": [q], "p": [0.1]},
            "integration": {"t_final": 0.1}}
    if family == "elliptic":
        data["lattice"] = WIDE_LATTICE
    cfg = write_config(tmp_path, "huge.json", data)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("spincm: spectrum_drift ")


def test_truncated_run_keeps_its_reason_when_spectrum_drift_overflows(
        tmp_path, capsys):
    """The run crosses the 2^52-period range and ends truncated; the
    post-run spectrum_drift then overflows on the huge root values.  The
    run still writes its diagnostics, with a null drift, and exits 3 with
    its abort reason."""
    data = {"family": "elliptic", "rank": 1, "lattice": WIDE_LATTICE,
            "initial": {"q": [[1.1e16, 0.3]], "p": [1e15]},
            "integration": {"t_final": 4.0}}
    cfg = write_config(tmp_path, "far.json", data)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_SINGULARITY
    assert err.startswith("simulate: ") and "2^52 periods" in err
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert not diag["completed"] and "2^52 periods" in diag["abort_reason"]
    assert diag["spectrum_drift"] is None


def test_truncated_run_with_overflowing_power_sums_writes_null(tmp_path,
                                                              capsys):
    """Reduced spins of 1e120i overflow the first RHS, so the run ends
    truncated at t = 0, and the power sums of its one point overflow too:
    one fault guard turns that into a null spectrum_drift next to the
    abort reason, where the unguarded matrix powers wrote NaN, which is
    not JSON, with two RuntimeWarnings (errors here)."""
    rs = build_root_system("A", 2)
    data = {"family": "rational", "rank": 2,
            "initial": {"q": [0.5, 1.2], "p": [0.1, 0.2],
                        "s": {root_label(r): [0, 1e120]
                              for r in reduced_roots(rs)}},
            "integration": {"t_final": 1e-200}}
    cfg = write_config(tmp_path, "huge.json", data)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_SINGULARITY
    assert capsys.readouterr().err.startswith("simulate: ")
    text = (tmp_path / "diagnostics.json").read_text()
    diag = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    assert not diag["completed"] and "overflow" in diag["abort_reason"]
    assert diag["spectrum_drift"] is None
    assert diag["isospectral_drift"] is None
    assert set(diag["worst"]) == {"energy_drift"}


def test_a_non_finite_report_value_is_a_typed_error(tmp_path, capsys):
    """A report that would hold NaN or Infinity raises StructuralError
    (exit 2 from main) and writes nothing."""
    path = tmp_path / "report.json"
    for value in (math.nan, math.inf):
        with pytest.raises(StructuralError, match="non-finite"):
            cli._emit({"drift": value}, path)
    assert not path.exists() and capsys.readouterr().out == ""


def test_simulate_past_the_elliptic_range_is_a_config_error(tmp_path,
                                                            capsys):
    """q = 1e200 lies far more than 2^52 periods out, where the reduced
    argument keeps no digit: exit 2 naming the range, not a pole."""
    data = {"family": "elliptic", "rank": 1, "lattice": WIDE_LATTICE,
            "initial": {"preset": "spinless(0.4j)", "q": [1e200], "p": [0.1]},
            "integration": {"t_final": 0.1}}
    cfg = write_config(tmp_path, "far.json", data)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("spincm: ") and "2^52 periods" in err


def _one_spincm_line(err):
    return len(err.splitlines()) == 1 and err.startswith("spincm: ")


def test_numeric_fault_in_verify_exits_2(tmp_path, capsys):
    """sin of a spectral sample 800i out overflows: exit 2 with one
    spincm: line, not exit 1 (a residual over its threshold) with a
    traceback."""
    cfg = write_config(tmp_path, "far.json", {
        "family": "trigonometric", "rank": 2,
        "outputs": {"z_samples": [[0, 800]]},
        "integration": {"t_final": 0.1}})
    code = main(["verify", "--config", cfg, "--suite", "spectral",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and _one_spincm_line(err)
    assert "overflow encountered in sin" in err


def test_numeric_fault_in_reduce_exits_2(tmp_path, capsys):
    """Spin cells of 1e200 overflow the torus action of the gauge
    residual: exit 2 with one spincm: line, not an inf in the CSV."""
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q1", "p1", "xi_h1", "xi[1]", "xi[-1]",
                         "energy", "J_residual"])
        writer.writerow(["0", "0.9+0j", "0.1+0j", "0+0j", "1e200+0j",
                         "1e200+0j", "0+0j", "0"])
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    code = main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and _one_spincm_line(err)
    assert "overflow encountered" in err


def test_numeric_fault_in_the_first_collision_check_exits_2(tmp_path,
                                                           capsys):
    """sin of a root value 800i out overflows in integrate's first
    collision check, which ran outside every guard (a RuntimeWarning, an
    error here); under integrate's guard it truncates the run at t = 0,
    and the initial energy's overflow exits 2 with one spincm: line."""
    cfg = write_config(tmp_path, "far-q.json", {
        "family": "trigonometric", "rank": 2,
        "initial": {"preset": "spinless(0.7j)", "q": [[0.3, 800], 0.9],
                    "p": [0.1, 0.2]},
        "integration": {"t_final": 0.5}})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and _one_spincm_line(err)
    assert "overflow encountered in sin" in err


def test_numeric_fault_in_a_mid_run_collision_check_truncates(
        tmp_path, capsys, monkeypatch):
    """An overflow in the third collision check (two steps in) truncates
    the run the way a step fault does: exit 3, the abort reason naming it,
    and the points reached before it in the CSV."""
    margin, calls = dynamics.collision_margin, []

    def overflowing(system, q):
        calls.append(q)
        if len(calls) == 3:
            np.exp(np.array(1000.0))
        return margin(system, q)

    monkeypatch.setattr(dynamics, "collision_margin", overflowing)
    cfg = spinless_sl2_config(tmp_path)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_SINGULARITY
    assert capsys.readouterr().err.startswith("simulate: integration "
                                              "aborted at t = ")
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert not diag["completed"]
    assert "overflow encountered in exp" in diag["abort_reason"]
    assert diag["n_points"] == len(read_csv(tmp_path / "trajectory.csv")[1])


def test_failed_allocation_exits_2(tmp_path, capsys):
    """10^15 output points need petabytes, past the 2^47-byte address
    space, so the request fails at once and allocates nothing."""
    cfg = write_config(tmp_path, "big.json", {
        "family": "rational", "rank": 1,
        "initial": {"preset": "spinless(0.4j)", "q": [0.7], "p": [0.3]},
        "integration": {"t_final": 0.1, "n_points": 10 ** 15}})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and _one_spincm_line(err)
    assert "Unable to allocate" in err


def test_simulate_free_preset_straight_line(tmp_path):
    cfg = write_config(tmp_path, "free.json", {
        "family": "rational", "rank": 1,
        "initial": {"preset": "free", "q": [0.7], "p": [0.3]},
        "integration": {"t_final": 2.0, "tol": 1e-12, "n_points": 9},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    header, rows = read_csv(tmp_path / "trajectory.csv")
    times = [float(row[header.index("t")]) for row in rows]
    q1 = column(header, rows, "q1")
    for t, q in zip(times, q1):
        assert abs(q - (0.7 + 0.3 * t)) < 1e-9


def test_simulate_collision_exit_code(tmp_path):
    # attractive pair starting at rest: finite-time collision
    cfg = write_config(tmp_path, "coll.json", {
        "family": "rational", "rank": 1,
        "initial": {"preset": "spinless(1)",
                    "q": [0.5 / math.sqrt(2.0)], "p": [0.0]},
        "integration": {"t_final": 5.0, "tol": 1e-10, "n_points": 11},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SINGULARITY
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["completed"] is False
    assert "collision guard" in diag["abort_reason"]


def test_simulate_requires_initial(tmp_path):
    cfg = write_config(tmp_path, "noinit.json",
                       {"family": "rational", "rank": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_CONFIG


def test_simulate_reduced_initial(tmp_path):
    cfg = write_config(tmp_path, "red.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.8], "p": [0.2], "s": {"[-1]": [-1.0, 0.0]}},
        "integration": {"t_final": 1.0, "tol": 1e-10, "n_points": 7},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert "s[-1]" in header
    assert "xi[1]" not in header


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_simulate_witnesses_replay_from_the_csv(tmp_path, family):
    """diagnostics.json names where each drift peaks, and trajectory.csv,
    read back by read_trajectory_csv, holds the whole state of a reduced
    or unreduced run (the Cartan spin block too, nonzero with
    ``xi_cartan``): its spectral drifts are the reported values exactly,
    the energy drift's grid time is that of its energy column, and each
    spectral drift, recomputed from rows 0 and t at its witness's z, is
    the reported value."""
    rs = build_root_system("A", 2)
    for kind in ("reduced", "unreduced", "xi_cartan"):
        initial = {"q": [0.5, 1.2], "p": [0.1, 0.2]}
        if kind == "reduced":
            initial["s"] = {root_label(r): [0, 0.7]
                            for r in reduced_roots(rs)}
        else:
            initial["xi"] = {root_label(r): [0, 0.7] for r in rs.roots}
        if kind == "xi_cartan":
            initial["xi_cartan"] = [0.3, -0.2]
        data = {"family": family, "rank": 2, "initial": initial,
                "integration": {"t_final": 0.5, "n_points": 11}}
        if family == "elliptic":
            data["lattice"] = WIDE_LATTICE
        cfg = write_config(tmp_path, f"{kind}.json", data)
        out = tmp_path / kind
        assert main(["simulate", "--config", cfg, "--out", str(out)]) \
            == EXIT_PASS
        diag = json.loads((out / "diagnostics.json").read_text())
        traj = read_trajectory_csv(out / "trajectory.csv", rs)
        assert traj.points.reduced == (kind == "reduced")
        if not traj.points.reduced:
            cartan = [0.3, -0.2] if kind == "xi_cartan" else [0, 0]
            assert np.array_equal(traj.points.y[0, 4:6], cartan)
        system = load_config(cfg).system()
        drifts = spectral_drifts(system, traj)
        assert set(diag["worst"]) == {"energy_drift", "spectrum_drift",
                                      "isospectral_drift"}
        assert diag["worst"]["energy_drift"] == {
            "t": traj.times[np.argmax(np.abs(traj.energy - traj.energy[0]))]}
        for name in ("spectrum_drift", "isospectral_drift"):
            assert drifts[name] == diag[name]
            k = list(traj.times).index(diag["worst"][name]["t"])
            pair = replace(traj, times=traj.times[[0, k]],
                           points=traj.points[[0, k]],
                           energy=traj.energy[[0, k]],
                           constraint=traj.constraint[[0, k]])
            got = spectral_drifts(system, pair,
                                  [complex(*diag["worst"][name]["z"])])[name]
            assert abs(got - diag[name]) <= 1e-12 * diag[name]


# -- verify -------------------------------------------------------------------


def test_verify_report_schema_and_pass(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1, "seed": 4})
    assert main(["verify", "--config", cfg, "--suite", "cdybe",
                 "--out", str(tmp_path)]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["suite"] == "cdybe"
    assert report["pass"] is True
    for check in report["checks"]:
        assert set(check) >= {"name", "family", "samples", "max_residual",
                              "threshold", "pass"}
        assert check["max_residual"] < check["threshold"]


def test_verify_fault_injection_fails_cdybe(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1, "seed": 4})
    assert main(["verify", "--config", cfg, "--suite", "cdybe",
                 "--inject-fault", "--out", str(tmp_path)]) == EXIT_RESIDUAL
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False
    assert report["fault_injected"] is True
    assert report["checks"][0]["max_residual"] > 1e-3


def complex_array(pairs):
    """Inverse of the [re, im] pair encoding, for any nesting depth."""
    pairs = np.asarray(pairs, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


@pytest.mark.parametrize("suite", ["cdybe", "mdybe"])
def test_verify_witness_replays_max_residual(tmp_path, suite):
    data = {"family": "trigonometric", "rank": 2, "seed": 8}
    cfg = write_config(tmp_path, "ver.json", data)
    assert main(["verify", "--config", cfg, "--suite", suite,
                 "--inject-fault", "--out", str(tmp_path)]) == EXIT_RESIDUAL
    check = json.loads((tmp_path / "report.json").read_text())["checks"][0]
    witness = check["witness"]
    assert 0 <= witness["sample"] < check["samples"]
    spec = parse_config(data).system().with_fault(FAULT_SCALE)
    q, z = complex_array(witness["q"]), complex_array(witness["z"])
    if suite == "cdybe":
        replay = verify_cdybe(spec, q, *z)
    else:
        replay = verify_mdybe(spec, q, complex_array(witness["xi"]),
                              complex_array(witness["eta"]), z_samples=z)
    assert replay == pytest.approx(check["max_residual"], rel=1e-12)
    assert check["max_residual"] > 1e-3


# max_residual of the fault-injected cdybe and mdybe suites, (family, rank,
# seed) -> (cdybe, mdybe), on the samples that each suite draws as one
# stacked block; the samples drawn one at a time before gave, old -> new
# (new/old): trigonometric A_3 seed 1 cdybe 504.77 -> 427.60 (0.847),
# mdybe 1600.77 -> 1609.33 (1.005); seed 8 cdybe 293.05 -> 346.11 (1.181),
# mdybe 1445.93 -> 2459.97 (1.701); elliptic A_2 seed 3 cdybe 336.30 ->
# 363.14 (1.080), mdybe 1188.81 -> 1642.90 (1.382)
PINNED_FAULT_RESIDUALS = {
    ("trigonometric", 3, 1): (427.6032709206519, 1609.3339187687563),
    ("trigonometric", 3, 8): (346.10574648653323, 2459.9691870154684),
    ("elliptic", 2, 3): (363.13855222294717, 1642.90142218299),
}


@pytest.mark.parametrize("case", sorted(PINNED_FAULT_RESIDUALS))
@pytest.mark.parametrize("suite", ["cdybe", "mdybe"])
def test_fault_injected_residuals_are_pinned(tmp_path, case, suite):
    family, rank, seed = case
    data = {"family": family, "rank": rank, "seed": seed}
    if family == "elliptic":
        data["lattice"] = WIDE_LATTICE
    cfg = write_config(tmp_path, "ver.json", data)
    assert main(["verify", "--config", cfg, "--suite", suite,
                 "--inject-fault", "--out", str(tmp_path)]) == EXIT_RESIDUAL
    got = json.loads((tmp_path / "report.json").read_text())[
        "checks"][0]["max_residual"]
    want = PINNED_FAULT_RESIDUALS[case][suite == "mdybe"]
    assert abs(got - want) <= 1e-10 * want


# max_residual of every verify check, (family, rank, seed) -> {check: value}
# (config t_final 0.1).  Roundoff-level values: the suites keep each
# sample's arithmetic, so they repeat to 1e-10, but they rest on numpy's
# loops for this CPU and may need re-recording on another one.  The
# involution check and the isospectral drift sum in another order than a
# single sample would, and keep only their order of magnitude; the
# isospectral drift is relative per characteristic-polynomial coefficient,
# as the spectrum drift is.  The values are those of the samples that each
# suite draws as one stacked block (another RNG stream, so other samples
# for a seed).  The samples drawn one at a time before gave, old -> new
# (new/old), every check not named unchanged:
# - trigonometric A_3 seed 1: residue 2.2315e-16 -> 4.4409e-16 (1.99),
#   cdybe 3.3405e-14 -> 3.0354e-14 (0.909), mdybe 2.9978e-13 ->
#   3.1422e-13 (1.05), lax_on_sigma 1.5306e-13 -> 4.8567e-13 (3.17),
#   lax_reduced_pointwise 1.4370e-13 -> 8.0389e-14 (0.559), involution
#   2.5037e-12 -> 2.0150e-12 (0.805), spectrum_drift 2.2893e-10 ->
#   6.1519e-10 (2.69), isospectral_drift 2.2554e-10 -> 2.2565e-10 (1.00)
# - trigonometric A_3 seed 8: residue 3.3374e-16 -> 3.3313e-16 (0.998),
#   cdybe 1.5125e-14 -> 2.5619e-14 (1.69), mdybe 3.2910e-13 -> 2.7672e-13
#   (0.841), lax_on_sigma 4.8567e-13 -> 1.1911e-13 (0.245),
#   lax_reduced_pointwise 1.4229e-13 -> 1.7975e-13 (1.26), involution
#   8.5590e-12 -> 2.5243e-12 (0.295), spectrum_drift 6.1892e-10 ->
#   2.5399e-10 (0.410), isospectral_drift 3.7508e-10 -> 2.0665e-10 (0.551)
# - rational A_2 seed 3: residue 2.2272e-16 -> 2.2474e-16 (1.01), cdybe
#   7.1607e-15 -> 7.7557e-15 (1.08), mdybe 1.1948e-13 -> 1.0995e-13
#   (0.920), lax_on_sigma 2.3832e-14 -> 8.5561e-14 (3.59),
#   quasi_lax_off_sigma 1.2142e-13 -> 5.1269e-14 (0.422),
#   lax_reduced_pointwise 1.4211e-14 -> 1.1391e-13 (8.02), involution
#   1.0846e-13 -> 5.5185e-13 (5.09), spectrum_drift 1.3698e-10 ->
#   8.8074e-11 (0.643), isospectral_drift 1.3698e-10 -> 8.8074e-11 (0.643)
# - elliptic A_2 seed 3: residue 8.8842e-16 -> 6.6622e-16 (0.750), cdybe
#   2.1610e-14 -> 4.6185e-14 (2.14), mdybe 2.9986e-13 -> 6.5897e-13 (2.20),
#   lax_on_sigma 3.2125e-14 -> 1.7975e-13 (5.60), lax_reduced_pointwise
#   1.9923e-14 -> 2.0097e-13 (10.1), involution 4.9636e-13 -> 5.7127e-13
#   (1.15), spectrum_drift 1.2224e-10 -> 9.0676e-11 (0.742),
#   isospectral_drift 1.2224e-10 -> 9.0676e-11 (0.742)
# The elliptic kernel as theta products (no sigma ratio, no zeta
# differences) then moved elliptic A_2 seed 3, old -> new (new/old): residue
# 6.6622e-16 -> 4.5316e-16 (0.680), cdybe 4.6185e-14 -> 4.1754e-14 (0.904),
# mdybe 6.5897e-13 -> 1.9153e-13 (0.291), lax_on_sigma 1.7975e-13 ->
# 2.0347e-13 (1.13), lax_reduced_pointwise 2.0097e-13 -> 1.7288e-13
# (0.860), involution 5.7127e-13 -> 6.3430e-13 (1.11), spectrum_drift
# 9.0675734e-11 -> 9.0675993e-11 (1.000003), isospectral_drift 9.0675734e-11
# -> 9.0676034e-11 (1.000003)
# rho(L) from RootSystem.to_matrix, whose diagonal sums round apart from the
# old entry-by-entry builder, then moved two spectrum drifts, old -> new
# (new/old): rational A_2 seed 3 8.807391161e-11 -> 8.807393213e-11
# (1.00000023), trigonometric A_3 seed 8 2.539864509e-10 -> 2.539862020e-10
# (0.99999902)
# The power sums from half the powers (traces and Frobenius pairings as
# einsums) then moved the four spectrum drifts, old -> new (new/old):
# trigonometric A_3 seed 1 6.151885764e-10 -> 6.151900557e-10 (1.0000024),
# seed 8 2.539862020e-10 -> 2.539870668e-10 (1.0000034), rational A_2 seed 3
# 8.807393213e-11 -> 8.807395264e-11 (1.00000023), elliptic A_2 seed 3
# 9.067599320e-11 -> 9.067607236e-11 (1.00000087)
# One theta_1 term set per lattice, with z-derivative columns, then moved
# elliptic A_2 seed 3, old -> new (new/old): residue 4.5316e-16 ->
# 4.5459e-16 (1.0032), cdybe 4.1754e-14 -> 3.9090e-14 (0.9362), mdybe
# 1.9153e-13 -> 1.7353e-13 (0.9060), lax_on_sigma 2.0347e-13 -> 1.7288e-13
# (0.8497), lax_reduced_pointwise 1.7288e-13 -> 1.2711e-13 (0.7352),
# spectrum_drift 9.067607236e-11 -> 9.067534272e-11 (0.99999195); the
# order-of-magnitude pins stay (involution read 6.0057e-13 -> 4.7224e-13,
# 0.7863, and isospectral_drift 0.9999902 of its old reading)
# The Chebyshev-Picard driver in place of DOP853 then moved the spectral
# drifts, old -> new (new/old):
# trigonometric A_3 seed 1 spectrum_drift 6.1519e-10 -> 5.9564e-11 (0.0968);
# trigonometric A_3 seed 1 isospectral_drift 2.2565e-10 -> 2.1401e-11
# (0.0948); trigonometric A_3 seed 8 spectrum_drift 2.5399e-10 -> 3.0363e-12
# (0.012); trigonometric A_3 seed 8 isospectral_drift 2.0665e-10 ->
# 2.1177e-12 (0.0102); rational A_2 seed 3 spectrum_drift 8.8074e-11 ->
# 9.0694e-13 (0.0103); rational A_2 seed 3 isospectral_drift 8.8074e-11 ->
# 9.0694e-13 (0.0103); elliptic A_2 seed 3 spectrum_drift 9.0675e-11 ->
# 9.2869e-13 (0.0102); elliptic A_2 seed 3 isospectral_drift 9.0676e-11 ->
# 9.2869e-13 (0.0102)
PINNED_RESIDUALS = {
    ("trigonometric", 3, 1): {
        "zero_weight": 0.0, "unitarity": 0.0,
        "residue": 4.440900568822021e-16, "cdybe": 3.03543989777123e-14,
        "mdybe": 3.142244987980557e-13,
        "lax_on_sigma": 4.856703836433968e-13,
        "lax_reduced_pointwise": 8.038873388460929e-14,
        "involution": 2.0149869517850286e-12,
        "spectrum_drift": 5.956374305418031e-11,
        "isospectral_drift": 2.1400766095086413e-11,
    },
    ("trigonometric", 3, 8): {
        "zero_weight": 0.0, "unitarity": 0.0,
        "residue": 3.3313473370327265e-16, "cdybe": 2.5618982671915017e-14,
        "mdybe": 2.7672159114056936e-13,
        "lax_on_sigma": 1.191086668529821e-13,
        "lax_reduced_pointwise": 1.797546735911271e-13,
        "involution": 2.5242574464726334e-12,
        "spectrum_drift": 3.0362578838612367e-12,
        "isospectral_drift": 2.1176710858147306e-12,
    },
    ("rational", 2, 3): {
        "zero_weight": 0.0, "unitarity": 0.0,
        "residue": 2.2473876566261383e-16, "cdybe": 7.755684626330685e-15,
        "mdybe": 1.0994779141737423e-13,
        "lax_on_sigma": 8.556067554929068e-14,
        "quasi_lax_off_sigma": 5.126874814344906e-14,
        "lax_reduced_pointwise": 1.139086659085919e-13,
        "involution": 5.518497755175417e-13,
        "spectrum_drift": 9.069365638155067e-13,
        "isospectral_drift": 9.06942376308758e-13,
    },
    ("elliptic", 2, 3): {
        "zero_weight": 0.0, "unitarity": 0.0,
        "residue": 4.545902364027965e-16, "cdybe": 3.908994210040609e-14,
        "mdybe": 1.735276757593509e-13,
        "lax_on_sigma": 1.7288250917028502e-13,
        "lax_reduced_pointwise": 1.2710574864626038e-13,
        "involution": 6.342962111168563e-13,
        "spectrum_drift": 9.286867153962779e-13,
        "isospectral_drift": 9.286867153962779e-13,
    },
}
ORDER_OF_MAGNITUDE_ONLY = {"involution", "isospectral_drift"}


def verify_report(tmp_path, family, rank, seed, suite):
    data = {"family": family, "rank": rank, "seed": seed,
            "integration": {"t_final": 0.1}}
    if family == "elliptic":
        data["lattice"] = WIDE_LATTICE
    cfg = write_config(tmp_path, "ver.json", data)
    assert main(["verify", "--config", cfg, "--suite", suite,
                 "--out", str(tmp_path)]) == EXIT_PASS
    return parse_config(data), json.loads(
        (tmp_path / "report.json").read_text())


@pytest.mark.parametrize("case", sorted(PINNED_RESIDUALS))
@pytest.mark.parametrize("suite", SUITES)
def test_verify_residuals_are_pinned(tmp_path, case, suite):
    _, report = verify_report(tmp_path, *case, suite)
    for check in report["checks"]:
        got, want = check["max_residual"], PINNED_RESIDUALS[case][check["name"]]
        if check["name"] in ORDER_OF_MAGNITUDE_ONLY:
            assert want / 10 < got < want * 10, check["name"]
        else:
            assert abs(got - want) <= 1e-10 * want, check["name"]


def replay(config, suite, check):
    """The residual of a check's witness, evaluated on its own."""
    system = config.system()
    rs, w, name = system.rs, check["witness"], check["name"]
    q = complex_array(w["q"])
    if suite == "axioms":
        return verify_axioms(system, [q],
                             [complex_array(w["z"])])[name][0]
    p = complex_array(w["p"])
    if "xi" in w:
        x = PhasePoint(rs, np.concatenate([q, p, complex_array(w["xi"])]))
        return lax_residuals(system, x)
    x = PhasePoint(rs, np.concatenate([q, p, complex_array(w["s"])]))
    if suite == "lax":
        return lax_residuals(system, x)
    if suite == "involution":
        # the worst pair of the battery at the witness point is its own
        pair = tuple(zip(w["k"], complex_array(w["z"])))
        assert involution_residuals(system, x, [pair])[0] > 0.0
        return np.max(involution_residuals(system, x, _INVOLUTION_BATTERY))
    # spectral: integrate from the witness's initial point; its worst entry
    # lies at the witness's trajectory point and z
    opts = config.integration
    traj = integrate(system, x, **{**opts,
                                   "n_points": min(opts["n_points"], 101)})
    z_grid = dynamics.default_z_samples(system)
    report = spectral_drifts(system, traj, z_grid)
    assert report["worst"][name] == [w["sample"],
                                     z_grid.index(complex_array(w["z"]))]
    # and that entry alone, at the first and the witness point, gives the
    # same drift: each table entry is its single-point value
    pair = replace(traj, points=traj.points[[0, w["sample"]]])
    z = [complex_array(w["z"])]
    assert spectral_drifts(system, pair, z)[name] == report[name]
    return report[name]


def draw_samples(system, seed):
    """Every sampler of the verify suites once, from one seeded stream."""
    rng = np.random.default_rng(seed)
    return {"q": cli._random_q(rng, system, 20),
            "z": cli._random_z(rng, system, 20),
            "triples": cli._random_z_triples(rng, system, 10),
            **{f"sigma_{key}": v for key, v in
               cli._blocks(cli._random_points(system, rng, 5)).items()},
            **{f"reduced_{key}": v for key, v in cli._blocks(
                cli._random_points(system, rng, 3, reduced=True)).items()}}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_samplers_keep_their_law(family, rank):
    """Each sampler returns its count of rows, the same arrays for the same
    seed, q in +-[0.55, 1.15] at a collision margin of at least 0.2, |z| in
    [0.25, 0.8], z triples separated by at least 0.1, spins on Sigma with a
    zero Cartan block."""
    data = {"family": family, "rank": rank}
    if family == "elliptic":
        data["lattice"] = WIDE_LATTICE
    system = parse_config(data).system()
    rs = system.rs
    for seed in (1, 2, 3):
        x = draw_samples(system, seed)
        again = draw_samples(system, seed)
        assert all(np.array_equal(x[key], again[key]) for key in x)
        shapes = {"q": (20, rank), "z": (20,), "triples": (10, 3),
                  "sigma_q": (5, rank), "sigma_p": (5, rank),
                  "sigma_xi": (5, rs.dim), "reduced_q": (3, rank),
                  "reduced_p": (3, rank),
                  "reduced_s": (3, rs.n_roots - rank)}
        assert {key: v.shape for key, v in x.items()} == shapes
        for q in (x["q"], x["sigma_q"], x["reduced_q"]):
            assert not q.imag.any()
            assert ((0.55 <= abs(q)) & (abs(q) <= 1.15)).all()
            assert (dynamics.collision_margin(system, q) >= 0.2).all()
        for z in (x["z"], x["triples"]):
            assert ((0.25 <= abs(z)) & (abs(z) <= 0.8)).all()
        triples = x["triples"]
        assert abs(triples[:, [0, 0, 1]] - triples[:, [1, 2, 2]]).min() >= 0.1
        assert not x["sigma_xi"][:, :rank].any()
        assert not x["sigma_p"].imag.any() and not x["reduced_p"].imag.any()


def test_samplers_scale_with_the_spec_length():
    """On 1/4 of the reference lattice (length 1/4) every q and z sample
    is 1/4 of the reference lattice's, bit for bit, from the same seed, and
    the normal p and spins are the same: the margin, the z range and the
    triple separation all scale with the length."""
    systems = [parse_config({"family": "elliptic", "rank": 3, "lattice": {
        "omega1": [scale * 2.0, 0.0], "omega2": [0.0, scale * 2.2]}}
        ).system() for scale in (1.0, 0.25)]
    assert [system.length for system in systems] == [1.0, 0.25]
    for seed in (1, 2, 3):
        wide, small = (draw_samples(system, seed) for system in systems)
        for key in wide:
            scale = 0.25 if key in ("q", "z", "triples", "sigma_q",
                                    "reduced_q") else 1.0
            assert np.array_equal(small[key], scale * wide[key]), key


@pytest.mark.parametrize("suite", SUITES)
def test_verify_without_a_clear_configuration_exits_2(tmp_path, capsys,
                                                      monkeypatch, suite):
    """With a wall margin that no q of the sampling range keeps, every
    suite gives up after its bounded candidate count: exit 2 with a "could
    not sample" line."""
    monkeypatch.setattr(cli, "_Q_MARGIN", 10.0)
    cfg = write_config(tmp_path, "wide.json", {
        "family": "elliptic", "rank": 2, "lattice": WIDE_LATTICE})
    assert main(["verify", "--config", cfg, "--suite", suite,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "spincm: could not sample a configuration away from the singular "
        "set\n")


SMALL_LATTICES = [({"omega1": 0.5, "omega2": [0.0, 0.55]}, 3),
                  ({"omega1": 0.5, "omega2": [0.5, 0.55]}, 3),
                  ({"omega1": 0.3, "omega2": [0.0, 0.33]}, 2)]


@pytest.mark.parametrize("lattice,rank", SMALL_LATTICES,
                         ids=["quarter-a3", "quarter-sheared-a3",
                              "small-a2"])
def test_verify_on_a_small_lattice_passes(tmp_path, lattice, rank):
    """On 1/4 of the reference lattice, its sheared basis and (0.3, 0.33i)
    (which gave "could not sample" in absolute units) every suite passes,
    and under --inject-fault the r-matrix suites fail."""
    cfg = write_config(tmp_path, "small.json", {
        "family": "elliptic", "rank": rank, "lattice": lattice,
        "integration": {"t_final": 1.0}})
    for suite in SUITES:
        assert main(["verify", "--config", cfg, "--suite", suite, "--seed",
                     "1", "--out", str(tmp_path)]) == EXIT_PASS, suite
    for suite in ("axioms", "cdybe", "mdybe"):
        assert main(["verify", "--config", cfg, "--suite", suite,
                     "--inject-fault", "--out",
                     str(tmp_path)]) == EXIT_RESIDUAL, suite


def ring_lattice_config(rank: int, n: int) -> dict:
    """Elliptic A_rank whose period 2 omega1 is the first point of the
    unscaled n-point default ring |z| = 0.55, omega2 = 1.1i omega1 (its
    spec's length is 0.1375), from spinless(1j) near q = 0."""
    omega1 = 0.55 * np.exp(2j * np.pi * 0.37 / n) / 2
    omega2 = 1.1j * omega1
    return {"family": "elliptic", "rank": rank,
            "lattice": {"omega1": [omega1.real, omega1.imag],
                        "omega2": [omega2.real, omega2.imag]},
            "initial": {"preset": "spinless(1j)",
                        "q": [0.07] if rank == 1 else [0.05, 0.12],
                        "p": [0.0] * rank},
            "integration": {"t_final": 0.001, "n_points": 3}}


def test_simulate_reads_the_default_ring_in_the_spec_length(tmp_path):
    """On the lattice with a period on the unscaled 8-point ring, simulate's
    spectral drifts exited 3 ("l_kernel evaluated within 1e-12 of a
    lattice point") with no diagnostics.json, where verify --suite spectral
    scaled the ring by the spec's length and passed."""
    cfg = write_config(tmp_path, "ring.json", ring_lattice_config(1, 8))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    assert (tmp_path / "diagnostics.json").is_file()
    assert main(["verify", "--config", cfg, "--suite", "spectral", "--out",
                 str(tmp_path)]) == EXIT_PASS


def test_reduce_reads_the_default_ring_in_the_spec_length(tmp_path):
    """On the A_2 lattice with a period on the unscaled 4-point ring of the
    gauge residual, simulate exited 0 and reduce then exited 3."""
    cfg = write_config(tmp_path, "ring.json", ring_lattice_config(2, 4))
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "sim")]) == EXIT_PASS
    assert main(["reduce", str(tmp_path / "sim" / "trajectory.csv"),
                 "--config", cfg, "--out", str(tmp_path / "red")]) \
        == EXIT_PASS


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
@pytest.mark.parametrize("suite", ["axioms", "lax", "involution",
                                   "spectral"])
def test_verify_witnesses_replay_max_residual(tmp_path, family, suite):
    config, report = verify_report(tmp_path, family, 2, 8, suite)
    for check in report["checks"]:
        assert 0 <= check["witness"]["sample"] < check["samples"]
        assert replay(config, suite, check) == pytest.approx(
            check["max_residual"], rel=1e-12, abs=1e-300), check["name"]


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_verify_spectral_from_initial_s_replays(tmp_path, family):
    """The spectral suite of a config with initial.s, the job shape of the
    verify benchmark at rank 3: it integrates from the config's reduced
    point, which its witness carries as q, p and s, and integrating from
    them gives max_residual again."""
    labels = [root_label(r) for r in reduced_roots(build_root_system("A", 3))]
    data = {"family": family, "rank": 3, "seed": 1,
            "initial": {"q": [0.4, -0.7, 1.1], "p": [0.2, -0.1, 0.15],
                        "s": {label: [math.cos(k), math.sin(k)]
                              for k, label in enumerate(labels)}},
            "integration": {"t_final": 0.1}}
    if family == "elliptic":
        data["lattice"] = WIDE_LATTICE
    cfg = write_config(tmp_path, "ver.json", data)
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--out", str(tmp_path)]) == EXIT_PASS
    config = parse_config(data)
    initial = build_initial(config, config.system())
    for check in json.loads((tmp_path / "report.json").read_text())["checks"]:
        w = check["witness"]
        for key in ("q", "p", "s"):
            assert np.array_equal(complex_array(w[key]),
                                  cli._blocks(initial)[key]), key
        assert replay(config, "spectral", check) == check["max_residual"]


def test_verify_spectral_abort_exits_3(tmp_path, capsys):
    """A config whose initial.s flow reaches the collision guard (rational
    A_1 at q = 0.0537 moving into the wall): exit 3, naming the abort."""
    cfg = write_config(tmp_path, "ver.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.0537], "p": [-1.0], "s": {"[-1]": [1.0, 0.0]}},
        "integration": {"t_final": 0.1}})
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--out", str(tmp_path)]) == EXIT_SINGULARITY
    err = capsys.readouterr().err
    assert err.startswith("spincm: spectral suite trajectory aborted: "
                          "collision guard at t = ")


def test_a_pole_on_a_grid_point_truncates_the_run(tmp_path, capsys):
    """Rational A_1 from initial.s {"[-1]": 0} at q = 0.02, p = -1: the
    grid time t = 0.02 lands on q = 0, the pole of the pair weight.
    simulate exits 3 with its trajectory up to there and diagnostics
    naming the abort, and the spectral suite exits 3 naming it too."""
    cfg = write_config(tmp_path, "pole.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.02], "p": [-1.0], "s": {"[-1]": 0}},
        "integration": {"t_final": 0.1}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SINGULARITY
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    reason = ("energy evaluation failed at t = 0.02: rational pair weight: "
              "(alpha, q) = 0 at the root [1]")
    assert diag["completed"] is False and diag["abort_reason"] == reason
    assert diag["n_points"] == len(read_csv(tmp_path / "trajectory.csv")[1])
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--out", str(tmp_path)]) == EXIT_SINGULARITY
    assert capsys.readouterr().err == (
        f"spincm: spectral suite trajectory aborted: {reason}\n")


def test_spin_labels_are_parsed_once_per_job(tmp_path, monkeypatch):
    """The schema check and build_initial share one parse per label: the
    16 labels of a reduced rational A_4 config cost 16 parse_root_label
    calls from loading the config to the initial point."""
    rs = build_root_system("A", 4)
    cfg = write_config(tmp_path, "red.json", {
        "family": "rational", "rank": 4,
        "initial": {"q": [2.0, 1.5, -0.5, 1.0], "p": [0.1, 0.0, -0.2, 0.3],
                    "s": {root_label(r): [0.6, 0.8]
                          for r in reduced_roots(rs)}}})
    labels = []
    parse = cli.parse_root_label

    def counted(label, rank):
        labels.append(label)
        return parse(label, rank)
    monkeypatch.setattr(cli, "parse_root_label", counted)
    cli._root.cache_clear()
    config = load_config(cfg)
    x0 = build_initial(config, config.system())
    assert len(labels) == 16 == len(x0.spin)
    assert x0.spin.tolist() == [0.6 + 0.8j] * 16


def test_verify_jobs_make_one_kernel_pass_per_stack(tmp_path, monkeypatch):
    """The family kernel runs once per stacked table: once per axioms and
    involution job, twice per mdybe job (the ring and sample table, then
    the higher orders at the samples) and once per group of Lax points,
    and the spectral suite makes one pass, its trace table, and solves no
    eigenvalue problem.  A Lax job makes one flow call per group of Lax
    points, reduced points included."""
    calls, flows = [], []
    ladder, flow = rmatrix._ladder, dynamics._flow

    def counted(*args, **kwargs):
        calls.append(1)
        return ladder(*args, **kwargs)

    def counted_flow(*args, **kwargs):
        flows.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(rmatrix, "_ladder", counted)
    monkeypatch.setattr(dynamics, "_flow", counted_flow)

    def no_eigvals(*args):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for family, suite, passes, n_flows in (
            ("trigonometric", "axioms", 1, 0),
            ("trigonometric", "involution", 1, 0),
            ("trigonometric", "mdybe", 2, 0), ("elliptic", "mdybe", 2, 0),
            ("trigonometric", "lax", 2, 2), ("rational", "lax", 3, 3),
            ("trigonometric", "spectral", 1, None)):
        calls.clear()
        flows.clear()
        verify_report(tmp_path, family, 3, 1, suite)
        assert len(calls) == passes, (family, suite)
        if n_flows is not None:
            assert len(flows) == n_flows, (family, suite)


def test_verify_threshold_from_config(tmp_path):
    """thresholds.<suite> sets the one threshold a verify run reads: the
    same axioms run passes at the default and fails at 1e-20 of it."""
    data = {"family": "rational", "rank": 1, "seed": 4}
    default = default_thresholds("rational")["axioms"]
    for scale, code in ((1.0, EXIT_PASS), (1e-20, EXIT_RESIDUAL)):
        cfg = write_config(tmp_path, "ver.json", {
            **data, "thresholds": {"axioms": default * scale}})
        assert main(["verify", "--config", cfg, "--suite", "axioms",
                     "--out", str(tmp_path)]) == code
        report = json.loads((tmp_path / "report.json").read_text())
        assert "threshold_scale" not in report
        assert {c["threshold"] for c in report["checks"]} \
            == {default * scale}


def test_verify_deterministic_given_seed(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 2, "seed": 13})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert main(["verify", "--config", cfg, "--suite", "lax",
                 "--out", str(out1)]) == EXIT_PASS
    assert main(["verify", "--config", cfg, "--suite", "lax",
                 "--out", str(out2)]) == EXIT_PASS
    assert (out1 / "report.json").read_text() == \
        (out2 / "report.json").read_text()


def test_verify_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1, "seed": 4})
    assert main(["verify", "--config", cfg, "--suite", "cdybe",
                 "--seed", "99", "--out", str(tmp_path)]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 99


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--seed", "1.5"], ["--seed", "true"],
], ids=" ".join)
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1})
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "cdybe",
              "--out", str(tmp_path)] + flags)
    assert err.value.code == EXIT_CONFIG
    assert f"argument {flags[0]}" in capsys.readouterr().err


def test_threshold_scale_flag_is_an_unrecognized_argument(tmp_path, capsys):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1})
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "cdybe",
              "--out", str(tmp_path), "--threshold-scale", "2"])
    assert err.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --threshold-scale 2" \
        in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1})
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "nonsense"])
    assert err.value.code == 2


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    """Two main calls in one process share one parser: a good call, then a
    bad-argument call, each with its own exit code and message on the
    streams of its own call."""
    cfg = write_config(tmp_path, "info.json", {"family": "rational",
                                               "rank": 2})
    assert main(["info", "--config", cfg]) == EXIT_PASS
    first = capsys.readouterr()
    assert json.loads(first.out)["root_system"]["rank"] == 2
    assert first.err == ""
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "nonsense"])
    assert err.value.code == EXIT_CONFIG
    second = capsys.readouterr()
    assert second.out == ""
    assert "argument --suite: invalid choice: 'nonsense'" in second.err
    assert _build_parser() is _build_parser()


def test_verify_spectral_trig_a3_seed_1252344730(tmp_path):
    """The collision margin is 0.256; a 4th-order interpolant between steps
    once read an isospectral drift of 1.23e-6 here, over the 1e-6
    threshold."""
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "trigonometric", "rank": 3,
                        "integration": {"t_final": 0.1}})
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--seed", "1252344730", "--out", str(tmp_path)]) \
        == EXIT_PASS


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("pi_prime", [[0], [0, 2]])
def test_lax_and_spectral_pass_off_the_span_of_pi_prime(tmp_path, pi_prime,
                                                        seed):
    """Trigonometric A_3 with a root off the span of Pi': the Lax suite and
    the spectral suite (t_final 2) exit 0, as the pair weight off the span
    is -g' = -1/3, g = u/3 -+ i the regular part there."""
    cfg = write_config(tmp_path, "ver.json", {
        "family": "trigonometric", "rank": 3, "pi_prime": pi_prime,
        "integration": {"t_final": 2.0}})
    for suite in ("lax", "spectral"):
        assert main(["verify", "--config", cfg, "--suite", suite, "--seed",
                     str(seed), "--out", str(tmp_path)]) == EXIT_PASS


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_spectral_fails_a_pair_weight_off_by_1e_6(tmp_path, monkeypatch,
                                                  family):
    """The relative drifts still see a flow off by 1e-6: with the pair
    weight w and w' scaled by 1 + 1e-6 the default spectral run exits 1 at
    ranks 2 and 4 (drifts 5.9e-6 to 1.6e-4 at seed 0), and its report
    carries the integration's solver counts."""
    kernel = dynamics._regular_part
    monkeypatch.setattr(dynamics, "_regular_part", lambda spec, u,
                        weight=False: tuple((1 + 1e-6) * w for w in kernel(
                            spec, u, True)) if weight else kernel(spec, u))
    for rank in (2, 4):
        data = {"family": family, "rank": rank}
        if family == "elliptic":
            data["lattice"] = WIDE_LATTICE
        cfg = write_config(tmp_path, "ver.json", data)
        assert main(["verify", "--config", cfg, "--suite", "spectral",
                     "--out", str(tmp_path)]) == EXIT_RESIDUAL
        report = json.loads((tmp_path / "report.json").read_text())
        assert all(c["max_residual"] > 1e-6 for c in report["checks"])
        assert report["solver"]["nfev"] > 0


# -- reduce -------------------------------------------------------------------


def unreduced_sl2_csv(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.9], "p": [0.25],
                    "xi": {"[1]": [1.0, 0.0], "[-1]": [0.6, -0.3]}},
        "integration": {"t_final": 0.8, "tol": 1e-11, "n_points": 9},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    return tmp_path / "trajectory.csv"


def test_reduce_identity_slice_passthrough(tmp_path):
    traj = unreduced_sl2_csv(tmp_path)
    header, rows = read_csv(traj)
    xi_neg = column(header, rows, "xi[-1]")
    cfg = write_config(tmp_path, "red.json", {
        "family": "rational", "rank": 1,
        "outputs": {"trajectory_csv": "reduced.csv"},
    })
    assert main(["reduce", str(traj), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_PASS
    header_r, rows_r = read_csv(tmp_path / "reduced.csv")
    s_neg = column(header_r, rows_r, "s[-1]")
    # the input stays on the identity slice (xi_{alpha} = 1 is conserved
    # here only at t = 0); passthrough must hold exactly at the first step
    assert abs(s_neg[0] - xi_neg[0]) < 1e-12
    gauge = column(header_r, rows_r, "gauge_residual")
    assert max(abs(g) for g in gauge) < 1e-9


def test_reduce_spinless_constant_s(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {
        "family": "rational", "rank": 1,
        "initial": {"preset": "spinless(1)",
                    "q": [1.2 / math.sqrt(2.0)], "p": [1.4]},
        "integration": {"t_final": 1.0, "tol": 1e-11, "n_points": 9},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    redcfg = write_config(tmp_path, "red.json", {
        "family": "rational", "rank": 1,
        "outputs": {"trajectory_csv": "reduced.csv"},
    })
    assert main(["reduce", str(tmp_path / "trajectory.csv"),
                 "--config", redcfg, "--out", str(tmp_path)]) == EXIT_PASS
    header, rows = read_csv(tmp_path / "reduced.csv")
    s_neg = column(header, rows, "s[-1]")
    assert max(abs(s - s_neg[0]) for s in s_neg) < 1e-9


def test_reduce_outside_u_names_step(tmp_path, capsys):
    path = tmp_path / "bad_traj.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q1", "p1", "xi_h1", "xi[1]", "xi[-1]",
                         "energy", "J_residual"])
        writer.writerow(["0", "0.9+0j", "0.1+0j", "0+0j", "1+0j", "0.5+0j",
                         "0+0j", "0"])
        writer.writerow(["0.1", "0.9+0j", "0.1+0j", "0+0j", "0+0j",
                         "0.5+0j", "0+0j", "0"])
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    assert main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_SINGULARITY
    assert "step 1" in capsys.readouterr().err


@pytest.mark.parametrize("row,line", [
    (["0", "0.9+0j", "0.1+0j", "0+0j", "1+0j"], 3),
    (["0", "0.9+0j", "abc", "0+0j", "1+0j", "0.5+0j", "0+0j", "0"], 3),
    (["0", "0.9+0j", "0.1+0j", "0+0j", "nan+0j", "0.5+0j", "0+0j", "0"], 3),
    (["inf", "0.9+0j", "0.1+0j", "0+0j", "1+0j", "0.5+0j", "0+0j", "0"], 3),
])
def test_reduce_malformed_row_names_its_line(tmp_path, capsys, row, line):
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q1", "p1", "xi_h1", "xi[1]", "xi[-1]",
                         "energy", "J_residual"])
        writer.writerow(["0", "0.9+0j", "0.1+0j", "0+0j", "1+0j", "0.5+0j",
                         "0+0j", "0"])
        writer.writerow(row)
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    assert main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("spincm: ") and f"line {line}" in err


def test_reduce_of_the_earlier_csv_layout_exits_2(tmp_path, capsys):
    """An unreduced CSV of the layout before the Cartan spin columns (no
    xi_h*) names the first missing column: ConfigError from the reader,
    exit 2 from reduce."""
    path = tmp_path / "old.csv"
    path.write_text("t,q1,p1,xi[1],xi[-1],energy,J_residual\r\n"
                    "0,0.9+0j,0.1+0j,1+0j,0.5+0j,0+0j,0\r\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="missing column 'xi_h1'"):
        read_trajectory_csv(path, build_root_system("A", 1))
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    assert main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "missing column 'xi_h1'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"t,q1\xff\r\n"],
                         ids=["missing", "not-utf8"])
def test_reduce_of_an_unreadable_csv_exits_2(tmp_path, capsys, content):
    path = tmp_path / "traj.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match="cannot read trajectory"):
        read_trajectory_csv(path, build_root_system("A", 1))
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    assert main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"spincm: cannot read trajectory {path}")


def test_reduce_rejects_reduced_input(tmp_path):
    cfg = write_config(tmp_path, "red.json", {
        "family": "rational", "rank": 1,
        "initial": {"q": [0.8], "p": [0.2], "s": {"[-1]": [-1.0, 0.0]}},
        "integration": {"t_final": 0.5, "tol": 1e-10, "n_points": 5},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_PASS
    assert main(["reduce", str(tmp_path / "trajectory.csv"),
                 "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


# -- info ---------------------------------------------------------------------


def test_info_prints_system(tmp_path, capsys):
    cfg = write_config(tmp_path, "info.json", {
        "family": "trigonometric", "rank": 3, "pi_prime": [0, 1]})
    assert main(["info", "--config", cfg]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"]["family"] == "trigonometric"
    assert payload["kmax"] == 4
    assert payload["root_system"]["rank"] == 3
    assert payload["thresholds"]["cdybe"] == 1e-10


def test_info_accepts_empty_pi_prime(tmp_path, capsys):
    cfg = write_config(tmp_path, "info.json", {
        "family": "trigonometric", "rank": 2, "pi_prime": "empty"})
    assert main(["info", "--config", cfg]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["system"]["pi_prime"] == []


def test_info_on_an_underflowing_nome_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "info.json", {
        "family": "elliptic", "rank": 2,
        "lattice": {"omega1": [1e-300, 0.0], "omega2": [0.0, 1.0]}})
    assert main(["info", "--config", cfg]) == EXIT_CONFIG
    assert "nome" in capsys.readouterr().err


_BASE = {"family": "rational", "rank": 1,
         "initial": {"preset": "free", "q": [0.7], "p": [0.3]},
         "integration": {"t_final": 0.5, "n_points": 5}}


@pytest.mark.parametrize("patch", [
    {"integration": {"n_points": "abc"}},
    {"integration": {"n_points": 0}},
    {"integration": {"n_points": 2.5}},
    {"integration": {"t_final": None}},
    {"integration": {"t_final": float("nan")}},
    {"integration": {"tol": float("inf")}},
    {"integration": {"collision_tol": "x"}},
    {"outputs": {"kmax": "3"}},
    {"outputs": {"kmax": -1}},
    {"outputs": {"kmax": 0}},
    {"thresholds": {"lax": "x"}},
    {"family": "elliptic", "lattice": {"omega1": [2.0, 0.0]}},
    {"initial": 5},
    {"integration": 5},
    {"outputs": 5},
    {"thresholds": 5},
    {"outputs": {"z_samples": 5}},
    {"initial": {"q": [0.7], "p": [0.3], "s": 5}},
    {"initial": {"q": [0.7], "p": [0.3], "xi": 5}},
    {"family": "trigonometric", "pi_prime": 5},
    {"family": "trigonometric", "pi_prime": ["a"]},
], ids=lambda patch: json.dumps(patch))
def test_bad_config_values_exit_with_config_error(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, "bad.json", {**_BASE, **patch})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("spincm: ")


def test_verify_mdybe_elliptic_a2_passes(tmp_path):
    cfg = write_config(tmp_path, "ver.json", {
        "family": "elliptic", "rank": 2, "seed": 3,
        "lattice": {"omega1": [2.0, 0.0], "omega2": [0.0, 2.2]}})
    assert main(["verify", "--config", cfg, "--suite", "mdybe",
                 "--out", str(tmp_path)]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"][0]["max_residual"] < 1e-8
