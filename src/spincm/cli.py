"""Command-line front end: configure a system, run simulations and
verification suites, emit reports and trajectory files.

Subcommands
-----------
simulate   integrate the configured flow, write a CSV trajectory and a
           JSON diagnostics file
verify     run one verification suite (axioms, cdybe, mdybe, lax,
           involution, spectral) and write a JSON residual report
reduce     apply the reduction projection pointwise to an unreduced
           trajectory CSV, adding a gauge-consistency residual column
info       print the configured system and root data as JSON

Configuration is a JSON file (``--config``); unknown keys are rejected
anywhere in the document.  Complex numbers are written as two-element
arrays [re, im] (plain numbers are accepted where the value is real);
root labels are the integer coordinate vectors over the simple roots,
rendered as strings like "[1,0]" when used as JSON object keys.

Exit codes: 0 pass, 1 residual failure, 2 usage/config error,
3 singularity abort.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .elliptic import Lattice
from .errors import (ConfigError, ConstraintError, GaugeDomainError,
                     PoleError, SpincmError, StructuralError)
from .phase import PhasePoint, ReducedPoint, gauge_g, project_pi
from .rmatrix import (default_mdybe_samples, verify_axioms, verify_cdybe,
                      verify_mdybe)
from .rootsys import (AlgElement, parse_root_label, root_label,
                      root_system_summary, torus_adjoint)
from .dynamics import (SystemSpec, collision_margin, default_z_samples,
                       hamiltonian_reduced, integrate, involution_check,
                       lax_L, lax_L0, lax_pair_reduced, lax_pair_residual,
                       make_system, quasi_lax_residual, reduced_lax_residual,
                       spectrum_drift, spinless_state, Trajectory,
                       write_trajectory_csv)
from . import __version__

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_SINGULARITY = 3

SUITES = ("axioms", "cdybe", "mdybe", "lax", "involution", "spectral")

_TOP_KEYS = {"family", "rank", "delta_prime", "pi_prime", "delta_plus",
             "lattice", "seed", "initial", "integration", "outputs",
             "thresholds"}
_INITIAL_KEYS = {"preset", "q", "p", "xi", "xi_cartan", "s"}
_INTEGRATION_KEYS = {"t_final", "tol", "n_points", "collision_tol"}
_OUTPUT_KEYS = {"trajectory_csv", "diagnostics_json", "report_json",
                "z_samples", "kmax"}
_LATTICE_KEYS = {"omega1", "omega2"}

_INTEGRATION_DEFAULTS = {"t_final": 10.0, "tol": 1e-10, "n_points": 201,
                         "collision_tol": 1e-6}
_OUTPUT_DEFAULTS = {"trajectory_csv": "trajectory.csv",
                    "diagnostics_json": "diagnostics.json",
                    "report_json": "report.json",
                    "z_samples": None, "kmax": None}


def default_thresholds(family: str) -> dict:
    """Suite thresholds; one source of truth shared with the test-suite."""
    ell = family == "elliptic"
    return {
        "axioms": 1e-8 if ell else 1e-10,
        "cdybe": 1e-8 if ell else 1e-10,
        "mdybe": 1e-8,
        "lax": 1e-6,
        "involution": 1e-6 if ell else 1e-8,
        "spectral": 1e-6,
    }


def _require(value, kind: type, where: str):
    """Reject a config value that is not a JSON object (kind dict) or list."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be "
                          f"{'an object' if kind is dict else 'a list'}, "
                          f"got {value!r}")
    return value


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    for key in _require(data, dict, where):
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and \
            all(isinstance(v, (int, float)) for v in value):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or an [re, im] pair, "
                      f"got {value!r}")


def _real(value, where: str, ok, rule: str) -> None:
    """Reject anything but a finite JSON number v with ok(v)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or not ok(value):
        raise ConfigError(f"{where}: expected a finite number {rule}, "
                          f"got {value!r}")


def _count(value, where: str, low: int) -> None:
    """Reject anything but a JSON integer >= low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where}: expected an integer >= {low}, "
                          f"got {value!r}")


def _check_values(integration: dict, outputs: dict, thresholds: dict) -> None:
    """ConfigError unless every numeric setting lies in its range."""
    _real(integration["t_final"], "integration.t_final", lambda v: v != 0,
          "other than 0")
    _real(integration["tol"], "integration.tol", lambda v: v > 0, "> 0")
    _real(integration["collision_tol"], "integration.collision_tol",
          lambda v: v >= 0, ">= 0")
    _count(integration["n_points"], "integration.n_points", 2)
    if outputs["kmax"] is not None:
        _count(outputs["kmax"], "outputs.kmax", 1)
    for name, value in thresholds.items():
        _real(value, f"thresholds.{name}", lambda v: v > 0, "> 0")


@dataclass
class RunConfig:
    """Validated run configuration.  See the module docstring for the JSON
    schema; ``parse`` and ``serialize`` round-trip."""

    family: str
    rank: int
    delta_prime: object = "full"
    pi_prime: object = "full"
    delta_plus: object = None
    lattice: object = None
    seed: int = 0
    initial: dict | None = None
    integration: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)

    def system(self) -> SystemSpec:
        kwargs = {}
        if self.family == "rational":
            kwargs["delta_prime"] = _root_list(self.delta_prime, "delta_prime")
        elif self.family == "trigonometric":
            kwargs["pi_prime"] = self.pi_prime
            if self.delta_plus is not None:
                kwargs["delta_plus"] = _root_list(self.delta_plus,
                                                  "delta_plus")
        elif self.family == "elliptic":
            if not isinstance(self.lattice, dict):
                raise ConfigError("elliptic family needs a 'lattice' object "
                                  "with omega1 and omega2")
            _reject_unknown(self.lattice, _LATTICE_KEYS, "lattice")
            missing = sorted(_LATTICE_KEYS - set(self.lattice))
            if missing:
                raise ConfigError(f"lattice is missing {missing}")
            kwargs["lattice"] = Lattice(
                _as_complex(self.lattice["omega1"], "lattice.omega1"),
                _as_complex(self.lattice["omega2"], "lattice.omega2"))
        else:
            raise ConfigError(f"unknown family {self.family!r}; expected "
                              "rational, trigonometric or elliptic")
        try:
            return make_system(self.family, self.rank, **kwargs)
        except StructuralError as exc:
            raise ConfigError(str(exc)) from exc

    def serialize(self) -> dict:
        out = {"family": self.family, "rank": self.rank, "seed": self.seed}
        if self.family == "rational":
            out["delta_prime"] = self.delta_prime
        if self.family == "trigonometric":
            out["pi_prime"] = self.pi_prime
            if self.delta_plus is not None:
                out["delta_plus"] = self.delta_plus
        if self.lattice is not None:
            out["lattice"] = self.lattice
        if self.initial is not None:
            out["initial"] = self.initial
        out["integration"] = self.integration
        out["outputs"] = self.outputs
        out["thresholds"] = self.thresholds
        return out


def _root_list(value, where: str):
    if value in ("full", "empty"):
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected 'full', 'empty' or a list of "
                          "integer root vectors")
    out = []
    for item in value:
        if not (isinstance(item, list)
                and all(isinstance(c, int) for c in item)):
            raise ConfigError(f"{where}: bad root label {item!r}; roots are "
                              "integer vectors over the simple roots")
        out.append(tuple(item))
    return out


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config")
    for key in ("family", "rank"):
        if key not in data:
            raise ConfigError(f"config is missing the required key {key!r}")
    if not isinstance(data["rank"], int) or not 1 <= data["rank"] <= 4:
        raise ConfigError(f"rank must be an integer in 1..4, got "
                          f"{data['rank']!r}")
    initial = data.get("initial")
    if initial is not None:
        _reject_unknown(initial, _INITIAL_KEYS, "initial")
        for key in ("xi", "s"):
            if key in initial:
                _require(initial[key], dict, f"initial.{key}")
    pi_prime = data.get("pi_prime", "full")
    if pi_prime not in ("full", "empty") and any(
            type(i) is not int for i in _require(pi_prime, list, "pi_prime")):
        raise ConfigError(f"pi_prime: expected 'full', 'empty' or a list of "
                          f"simple-root indices, got {pi_prime!r}")
    integration = dict(_INTEGRATION_DEFAULTS)
    _reject_unknown(data.get("integration", {}), _INTEGRATION_KEYS,
                    "integration")
    integration.update(data.get("integration", {}))
    outputs = dict(_OUTPUT_DEFAULTS)
    _reject_unknown(data.get("outputs", {}), _OUTPUT_KEYS, "outputs")
    outputs.update(data.get("outputs", {}))
    if outputs["z_samples"] is not None:
        _require(outputs["z_samples"], list, "outputs.z_samples")
    thresholds = default_thresholds(data["family"])
    user_thresholds = data.get("thresholds", {})
    _reject_unknown(user_thresholds, set(thresholds), "thresholds")
    thresholds.update(user_thresholds)
    _check_values(integration, outputs, thresholds)
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return RunConfig(family=data["family"], rank=data["rank"],
                     delta_prime=data.get("delta_prime", "full"),
                     pi_prime=pi_prime,
                     delta_plus=data.get("delta_plus"),
                     lattice=data.get("lattice"), seed=seed,
                     initial=initial, integration=integration,
                     outputs=outputs, thresholds=thresholds)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# initial conditions


_PRESET_RE = re.compile(r"^spinless\(([^)]+)\)$")


def _coordinate_array(init: dict, key: str, rank: int) -> np.ndarray:
    if key not in init:
        raise ConfigError(f"initial: missing {key!r}")
    vals = init[key]
    if not isinstance(vals, list) or len(vals) != rank:
        raise ConfigError(f"initial.{key}: expected {rank} coordinates")
    return np.array([_as_complex(v, f"initial.{key}[{i}]")
                     for i, v in enumerate(vals)])


def _spin_dict(rs, data: dict, where: str) -> dict:
    out = {}
    for label, value in data.items():
        try:
            root = parse_root_label(label, rs.rank)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if root not in rs.root_index:
            raise ConfigError(f"{where}: {label} is not a root of "
                              f"A_{rs.rank}")
        out[root] = _as_complex(value, f"{where}[{label}]")
    return out


def build_initial(config: RunConfig, system: SystemSpec):
    """Initial point from the config: explicit coordinates or a preset."""
    init = config.initial
    if init is None:
        raise ConfigError("this command needs an 'initial' section")
    rs = system.rs
    q = _coordinate_array(init, "q", rs.rank)
    p = _coordinate_array(init, "p", rs.rank)
    preset = init.get("preset")
    if preset is not None:
        if any(k in init for k in ("xi", "xi_cartan", "s")):
            raise ConfigError("initial: a preset excludes explicit spin data")
        if preset == "free":
            return PhasePoint.make(rs, q, p)
        match = _PRESET_RE.match(preset)
        if match:
            try:
                m = complex(match.group(1))
            except ValueError as exc:
                raise ConfigError(
                    f"initial.preset: bad spinless parameter "
                    f"{match.group(1)!r}") from exc
            return spinless_state(rs, q, p, m)
        raise ConfigError(f"initial.preset: unknown preset {preset!r}; "
                          "expected 'free' or 'spinless(m)'")
    if "s" in init:
        if "xi" in init or "xi_cartan" in init:
            raise ConfigError("initial: 's' (reduced) excludes 'xi'")
        try:
            return ReducedPoint.make(rs, q, p,
                                     _spin_dict(rs, init["s"], "initial.s"))
        except StructuralError as exc:
            raise ConfigError(f"initial.s: {exc}") from exc
    comps = _spin_dict(rs, init.get("xi", {}), "initial.xi")
    cartan = None
    if "xi_cartan" in init:
        vals = init["xi_cartan"]
        if not isinstance(vals, list) or len(vals) != rs.rank:
            raise ConfigError(f"initial.xi_cartan: expected {rs.rank} entries")
        cartan = [_as_complex(v, "initial.xi_cartan") for v in vals]
    return PhasePoint.make(rs, q, p, xi_cartan=cartan, xi_components=comps)


# ---------------------------------------------------------------------------
# simulate


def _z_grid(config: RunConfig) -> list[complex]:
    z_conf = config.outputs.get("z_samples")
    if z_conf is None:
        return default_z_samples()
    return [_as_complex(v, "outputs.z_samples") for v in z_conf]


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    system = config.system()
    x0 = build_initial(config, system)
    opts = config.integration
    traj = integrate(system, x0, float(opts["t_final"]), float(opts["tol"]),
                     n_points=int(opts["n_points"]),
                     collision_tol=float(opts["collision_tol"]))
    csv_path = out_dir / config.outputs["trajectory_csv"]
    write_trajectory_csv(csv_path, system, traj)
    kmax = config.outputs.get("kmax") or system.kmax
    drift = spectrum_drift(system, traj, _z_grid(config), kmax)
    diagnostics = {
        "system": system.describe(),
        "reduced": traj.reduced,
        "completed": traj.completed,
        "abort_reason": traj.abort_reason,
        "n_points": traj.n_points,
        "t_final": float(opts["t_final"]),
        "energy_drift": float(np.max(np.abs(traj.energy - traj.energy[0]))),
        "momentum_drift": float(np.max(traj.constraint)),
        "spectrum_drift": drift,
        "solver": traj.stats,
        "trajectory_csv": str(csv_path),
    }
    diag_path = out_dir / config.outputs["diagnostics_json"]
    diag_path.write_text(json.dumps(diagnostics, indent=2) + "\n",
                         encoding="utf-8")
    print(json.dumps(diagnostics, indent=2))
    if not traj.completed:
        print(f"simulate: {traj.abort_reason}", file=sys.stderr)
        return EXIT_SINGULARITY
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


_Q_MARGIN = 0.2


def _random_q(rng, system: SystemSpec) -> np.ndarray:
    """Random Cartan configuration kept clear of the singular set: close
    root hyperplanes amplify the Lax coefficients past the suite
    thresholds without saying anything about the structure."""
    rs = system.rs
    probe = PhasePoint(np.zeros(rs.rank, dtype=complex),
                       np.zeros(rs.rank, dtype=complex), AlgElement.zero(rs))
    for _ in range(200):
        signs = rng.choice([-1.0, 1.0], size=rs.rank)
        q = (rng.uniform(0.55, 1.15, size=rs.rank) * signs).astype(complex)
        if collision_margin(system, PhasePoint(q, probe.p, probe.xi)) \
                >= _Q_MARGIN:
            return q
    raise StructuralError("could not sample a configuration away from the "
                          "singular set")


def _random_z(rng) -> complex:
    return complex(rng.uniform(0.25, 0.8)
                   * np.exp(2j * np.pi * rng.uniform()))


def _random_z_triple(rng) -> tuple[complex, complex, complex]:
    """Spectral-parameter triple with pairwise differences bounded away
    from the poles of r."""
    for _ in range(200):
        zs = (_random_z(rng), _random_z(rng), _random_z(rng))
        diffs = (zs[0] - zs[1], zs[0] - zs[2], zs[1] - zs[2])
        if min(abs(d) for d in diffs) >= 0.1:
            return zs
    raise StructuralError("could not sample a z-triple away from the poles")


def _random_principal(rs, rng, order: int) -> np.ndarray:
    """Principal coefficients (order, dim) of a random pole-only Laurent
    covector."""
    return np.array([rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
                     for _ in range(order)])


def _random_sigma_point(system: SystemSpec, rng) -> PhasePoint:
    rs = system.rs
    vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    vec[:rs.rank] = 0.0
    return PhasePoint(_random_q(rng, system),
                      rng.normal(size=rs.rank).astype(complex),
                      AlgElement(rs, vec))


def _random_reduced_point(system: SystemSpec, rng) -> ReducedPoint:
    rs = system.rs
    n_s = rs.n_roots - rs.rank
    return ReducedPoint(rs, _random_q(rng, system),
                        rng.normal(size=rs.rank).astype(complex),
                        rng.normal(size=n_s) + 1j * rng.normal(size=n_s))


_INVOLUTION_BATTERY = [
    ((2, 0.41 + 0.22j), (3, -0.33 + 0.47j)),
    ((2, 0.41 + 0.22j), (2, -0.52 - 0.18j)),
    ((3, 0.29 - 0.44j), (3, -0.33 + 0.47j)),
    ((1, 0.61 + 0.09j), (3, 0.29 - 0.44j)),
    ((2, -0.52 - 0.18j), (3, 0.29 - 0.44j)),
    ((1, 0.61 + 0.09j), (2, 0.41 + 0.22j)),
]


def _suite_axioms(system, config, rng) -> list[dict]:
    spec = system.rmatrix
    samples = [(_random_q(rng, system), _random_z(rng))
               for _ in range(20)]
    report = verify_axioms(spec, samples)
    return [{"name": name, "samples": report["n_samples"],
             "max_residual": report[name]}
            for name in ("zero_weight", "unitarity", "residue")]


def _worst(name: str, residuals: list, samples: list[dict]) -> list[dict]:
    """The check of the largest residual, with the sample that gave it as a
    replayable ``witness`` (complex values as [re, im] pairs)."""
    k = int(np.argmax(residuals))
    witness = {key: np.stack([np.real(v), np.imag(v)], -1).tolist()
               for key, v in samples[k].items()}
    return [{"name": name, "samples": len(samples), "max_residual":
             residuals[k], "witness": {"sample": k, **witness}}]


def _suite_cdybe(system, config, rng) -> list[dict]:
    samples = [{"q": _random_q(rng, system), "z": _random_z_triple(rng)}
               for _ in range(10)]
    return _worst("cdybe", [verify_cdybe(system.rmatrix, s["q"], *s["z"])
                            for s in samples], samples)


def _suite_mdybe(system, config, rng) -> list[dict]:
    samples = [{"q": _random_q(rng, system), "z": default_mdybe_samples(),
                "xi": _random_principal(system.rs, rng, 2),
                "eta": _random_principal(system.rs, rng, 2)}
               for _ in range(10)]
    return _worst("mdybe", [verify_mdybe(system.rmatrix, s["q"], s["xi"],
                                         s["eta"], z_samples=s["z"])
                            for s in samples], samples)


def _suite_lax(system, config, rng) -> list[dict]:
    n = 5
    worst = max(lax_pair_residual(system, _random_sigma_point(system, rng))
                for _ in range(n))
    checks = [{"name": "lax_on_sigma", "samples": n, "max_residual": worst}]
    if system.family == "rational":
        worst = 0.0
        for _ in range(n):
            x = _random_sigma_point(system, rng)
            vec = x.xi.vec.copy()
            vec[:system.rs.rank] = rng.normal(size=system.rs.rank) \
                + 1j * rng.normal(size=system.rs.rank)
            x = PhasePoint(x.q, x.p, AlgElement(system.rs, vec))
            worst = max(worst, quasi_lax_residual(system, x))
        checks.append({"name": "quasi_lax_off_sigma", "samples": n,
                       "max_residual": worst})
    n_red = 3
    worst = max(reduced_lax_residual(system, _random_reduced_point(system, rng))
                for _ in range(n_red))
    checks.append({"name": "lax_reduced_pointwise", "samples": n_red,
                   "max_residual": worst})
    return checks


def _suite_involution(system, config, rng) -> list[dict]:
    n = 3
    worst = max(involution_check(system, _random_reduced_point(system, rng),
                                 _INVOLUTION_BATTERY) for _ in range(n))
    return [{"name": "involution", "samples": n * len(_INVOLUTION_BATTERY),
             "max_residual": worst}]


def _suite_spectral(system, config, rng) -> list[dict]:
    if config.initial is not None and "s" in config.initial:
        x0 = build_initial(config, system)
    else:
        x0 = _random_reduced_point(system, rng)
    opts = config.integration
    traj = integrate(system, x0, float(opts["t_final"]), float(opts["tol"]),
                     n_points=min(int(opts["n_points"]), 101),
                     collision_tol=float(opts["collision_tol"]))
    if not traj.completed:
        raise PoleError(f"spectral suite trajectory aborted: "
                        f"{traj.abort_reason}")
    z_grid = _z_grid(config)
    kmax = config.outputs.get("kmax") or system.kmax
    report = lax_pair_reduced(system, traj, z_grid, n_residual_points=5)
    return [
        {"name": "spectrum_drift", "samples": traj.n_points,
         "max_residual": spectrum_drift(system, traj, z_grid, kmax)},
        {"name": "isospectral_drift", "samples": traj.n_points,
         "max_residual": report["isospectral_drift"]},
    ]


_SUITE_RUNNERS = {
    "axioms": _suite_axioms,
    "cdybe": _suite_cdybe,
    "mdybe": _suite_mdybe,
    "lax": _suite_lax,
    "involution": _suite_involution,
    "spectral": _suite_spectral,
}

FAULT_SCALE = 4.0


def cmd_verify(config: RunConfig, suite: str, out_dir: Path, *,
               threshold_scale: float = 1.0, inject_fault: bool = False,
               seed: int | None = None) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; expected one of "
                          + ", ".join(SUITES))
    system = config.system()
    if inject_fault:
        system = SystemSpec(system.rmatrix.with_fault(FAULT_SCALE))
    rng = np.random.default_rng(config.seed if seed is None else seed)
    checks = _SUITE_RUNNERS[suite](system, config, rng)
    threshold = float(config.thresholds[suite]) * threshold_scale
    for check in checks:
        check["family"] = config.family
        check["threshold"] = threshold
        check["pass"] = bool(check["max_residual"] < threshold)
    report = {
        "suite": suite,
        "family": config.family,
        "rank": config.rank,
        "seed": config.seed if seed is None else seed,
        "threshold_scale": threshold_scale,
        "fault_injected": inject_fault,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    (out_dir / config.outputs["report_json"]).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return EXIT_PASS if report["pass"] else EXIT_RESIDUAL


# ---------------------------------------------------------------------------
# reduce


def _read_trajectory_csv(path, system: SystemSpec):
    """Unreduced trajectory points from a simulate CSV (Cartan spin block
    is not exported and is taken as zero, i.e. J = 0)."""
    import csv as _csv
    rs = system.rs
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
    if header is None:
        raise ConfigError(f"trajectory {path} is empty")
    if any(col.startswith("s[") for col in header):
        raise ConfigError(f"trajectory {path} is already reduced")
    needed = (["t"] + [f"q{i + 1}" for i in range(rs.rank)]
              + [f"p{i + 1}" for i in range(rs.rank)]
              + [f"xi{root_label(r)}" for r in rs.roots])
    col = {}
    for name in needed:
        if name not in header:
            raise ConfigError(f"trajectory {path} is missing column {name!r}")
        col[name] = header.index(name)
    times, points = [], []
    for row in rows:
        times.append(float(row[col["t"]]))
        q = np.array([complex(row[col[f"q{i + 1}"]]) for i in range(rs.rank)])
        p = np.array([complex(row[col[f"p{i + 1}"]]) for i in range(rs.rank)])
        comps = {r: complex(row[col[f"xi{root_label(r)}"]]) for r in rs.roots}
        points.append(PhasePoint.make(rs, q, p, xi_components=comps))
    return np.array(times), points


def gauge_residual(system: SystemSpec, x: PhasePoint,
                   z_samples=None) -> float:
    """max_z ||L_0(pi(x))(z) - Ad_{g(xi)^{-1}} L(x)(z)||, the consistency
    of the reduced Lax operator with the gauge normalization."""
    if z_samples is None:
        z_samples = default_z_samples(4)
    c = gauge_g(x.xi)
    diff = lax_L0(system, project_pi(x), z_samples) - torus_adjoint(
        -c, lax_L(system, x, z_samples))
    return diff.max_abs()


def cmd_reduce(config: RunConfig, traj_path, out_dir: Path) -> int:
    system = config.system()
    times, points = _read_trajectory_csv(traj_path, system)
    reduced_points, residuals = [], []
    for idx, x in enumerate(points):
        try:
            reduced_points.append(project_pi(x))
            residuals.append(gauge_residual(system, x))
        except GaugeDomainError as exc:
            print(f"reduce: step {idx}: {exc}", file=sys.stderr)
            return EXIT_SINGULARITY
    energy = np.array([hamiltonian_reduced(system, pt)
                       for pt in reduced_points])
    traj = Trajectory(times, reduced_points, energy,
                      np.zeros(len(reduced_points)), True)
    out_path = out_dir / config.outputs["trajectory_csv"]
    write_trajectory_csv(out_path, system, traj,
                         extra={"gauge_residual": residuals})
    summary = {
        "n_points": len(reduced_points),
        "max_gauge_residual": float(max(residuals)) if residuals else 0.0,
        "trajectory_csv": str(out_path),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# info


def cmd_info(config: RunConfig) -> int:
    system = config.system()
    payload = {
        "version": __version__,
        "system": system.describe(),
        "kmax": system.kmax,
        "thresholds": config.thresholds,
        "root_system": root_system_summary(system.rs),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; argparse looks up
    sys.stdout and sys.stderr only when it prints."""
    parser = argparse.ArgumentParser(
        prog="spincm",
        description="spin Calogero-Moser systems: simulation, reduction "
                    "and structural verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config RNG seed")

    p_sim = sub.add_parser("simulate", help="integrate the configured flow")
    common(p_sim)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver)
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--threshold-scale", type=float, default=1.0,
                       help="multiply every suite threshold by this factor")
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="corrupt one root pair of the r-matrix "
                            "(negative control; the cdybe suite must fail)")

    p_red = sub.add_parser("reduce",
                           help="project an unreduced trajectory CSV")
    p_red.add_argument("trajectory", help="input trajectory CSV")
    common(p_red)

    p_info = sub.add_parser("info", help="print the configured system")
    p_info.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config.seed = args.seed
        if args.command == "info":
            return cmd_info(config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir)
        if args.command == "verify":
            return cmd_verify(config, args.suite, out_dir,
                              threshold_scale=args.threshold_scale,
                              inject_fault=args.inject_fault,
                              seed=args.seed)
        return cmd_reduce(config, args.trajectory, out_dir)
    except SpincmError as exc:
        print(f"spincm: {exc}", file=sys.stderr)
        singular = (PoleError, GaugeDomainError, ConstraintError)
        return EXIT_SINGULARITY if isinstance(exc, singular) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
