"""CLI contract: config validation, subcommands, exit codes, file outputs."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from spincm.cli import (EXIT_CONFIG, EXIT_PASS, EXIT_RESIDUAL,
                        EXIT_SINGULARITY, RunConfig, default_thresholds,
                        load_config, main, parse_config)
from spincm.errors import ConfigError


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
    ]
    for data in fixtures:
        config = parse_config(data)
        assert parse_config(config.serialize()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config({"family": "rational", "rank": 2, "bogus": 1})
    with pytest.raises(ConfigError, match="speed"):
        parse_config({"family": "rational", "rank": 2,
                      "integration": {"speed": 9}})
    with pytest.raises(ConfigError, match="plot"):
        parse_config({"family": "rational", "rank": 2,
                      "outputs": {"plot": "x.png"}})
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


def test_verify_threshold_scale(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1, "seed": 4})
    assert main(["verify", "--config", cfg, "--suite", "axioms",
                 "--threshold-scale", "1e-20",
                 "--out", str(tmp_path)]) == EXIT_RESIDUAL


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


def test_verify_unknown_suite_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "rational", "rank": 1})
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "nonsense"])
    assert err.value.code == 2


@pytest.mark.xfail(strict=True, reason=(
    "isospectral_drift 1.23e-6 over the 1e-6 threshold: the drift is "
    "1.6e-7 at the RK45 step endpoints and comes from the dense-output "
    "interpolant between steps; the collision margin is 0.256"))
def test_verify_spectral_trig_a3_seed_1252344730(tmp_path):
    cfg = write_config(tmp_path, "ver.json",
                       {"family": "trigonometric", "rank": 3,
                        "integration": {"t_final": 0.1}})
    assert main(["verify", "--config", cfg, "--suite", "spectral",
                 "--seed", "1252344730", "--out", str(tmp_path)]) \
        == EXIT_PASS


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
        writer.writerow(["t", "q1", "p1", "xi[1]", "xi[-1]",
                         "energy", "J_residual"])
        writer.writerow(["0", "0.9+0j", "0.1+0j", "1+0j", "0.5+0j",
                         "0+0j", "0"])
        writer.writerow(["0.1", "0.9+0j", "0.1+0j", "0+0j", "0.5+0j",
                         "0+0j", "0"])
    cfg = write_config(tmp_path, "red.json",
                       {"family": "rational", "rank": 1})
    assert main(["reduce", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_SINGULARITY
    assert "step 1" in capsys.readouterr().err


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
