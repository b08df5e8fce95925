"""Command-line front end: configure a system, run simulations and
verification suites, emit reports and trajectory files.

Subcommands
-----------
simulate   integrate the configured flow, write a CSV trajectory and a
           JSON diagnostics file
verify     run one verification suite (axioms, cdybe, mdybe, lax,
           involution, spectral) and write a JSON residual report
reduce     project every row of an unreduced trajectory CSV in one pass,
           adding a gauge-consistency residual column
info       print the configured system and root data as JSON

Configuration is a JSON file (``--config``) checked against ``SCHEMA``:
unknown keys are rejected anywhere in the document.  Complex numbers are
written as [re, im] pairs or plain numbers; root labels are the integer
coordinate vectors over the simple roots, rendered as strings like "[1,0]"
when used as JSON object keys.

Exit codes: 0 pass, 1 residual failure, 2 usage/config error,
3 singularity abort.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .elliptic import Lattice
from .errors import (ConfigError, GaugeDomainError, PoleError, SpincmError,
                     StructuralError, raise_on_fp_fault)
from .phase import PhasePoint, project_pi, reduced_roots
from .rmatrix import (FAMILIES, RMatrixSpec, default_mdybe_samples,
                      verify_axioms, verify_cdybe, verify_mdybe)
from .rootsys import build_root_system, parse_root_label, root_system_summary
from .dynamics import (collision_margin, default_z_samples, gauge_residual,
                       hamiltonian, integrate, involution_residuals,
                       lax_residuals, make_system, read_trajectory_csv,
                       spectral_drifts, spinless_state, Trajectory,
                       write_trajectory_csv)
from . import __version__

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_SINGULARITY = 3

SUITES = ("axioms", "cdybe", "mdybe", "lax", "involution", "spectral")


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


# ---------------------------------------------------------------------------
# configuration schema


def _num(v) -> bool:
    """A finite JSON number; a bool is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _int(v, low=-math.inf, high=math.inf) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and low <= v <= high


def _complex(v) -> bool:
    return _num(v) or isinstance(v, list) and len(v) == 2 \
        and all(map(_num, v))


def _root_labels(v, rank) -> bool:
    return isinstance(v, list) and all(
        isinstance(r, list) and len(r) == rank and all(map(_int, r))
        for r in v)


@lru_cache(maxsize=1024)
def _root(label: str, rank: int):
    """parse_root_label, once per label: the schema check and
    build_initial read the same labels."""
    return parse_root_label(label, rank)


def _spins(v, rank, reduced: bool) -> bool:
    """Root label -> complex number over the roots of A_rank, or over those
    with a reduced spin coordinate."""
    rs = build_root_system("A", rank)
    roots = reduced_roots(rs) if reduced else rs.roots
    try:
        return isinstance(v, dict) and all(
            _root(label, rank) in roots and _complex(c)
            for label, c in v.items())
    except ValueError:
        return False


_PRESET_RE = re.compile(r"spinless\((.+)\)")


def _preset(v) -> bool:
    match = isinstance(v, str) and _PRESET_RE.fullmatch(v)
    try:
        return v == "free" or bool(match) \
            and cmath.isfinite(complex(match.group(1)))
    except ValueError:
        return False


# A check is (rule, ok): ok(value, rank) tells whether a value is valid, and
# the rule says what a valid value is, in the ConfigError message.
def _integer(low: int, high=math.inf):
    rule = f"in {low}..{high}" if high < math.inf else f">= {low}"
    return f"an integer {rule}", lambda v, rank: _int(v, low, high)


_OBJECT = ("an object", lambda v, rank: isinstance(v, dict))
_COMPLEX = ("a finite number or an [re, im] pair",
            lambda v, rank: _complex(v))
_COORDINATES = ("a list of rank complex numbers", lambda v, rank:
                isinstance(v, list) and len(v) == rank
                and all(map(_complex, v)))
_POSITIVE = ("a finite number > 0", lambda v, rank: _num(v) and v > 0)
_FILE_NAME = ("a file name without a directory part", lambda v, rank:
              isinstance(v, str) and bool(re.fullmatch(r"[^/\\\0]+", v))
              and bool(v.strip(".")))
_SUBSET = "'full', 'empty' or a list of "
_REQUIRED = object()
_BY_FAMILY = object()   # from default_thresholds(family)

# One entry per key path: (path, check, default), each section before its
# keys.  parse_config walks them in order, so "family" and "rank" are known
# to every later check.  null counts as "not given" wherever the default is
# None.
SCHEMA = (
    ("family", ("'rational', 'trigonometric' or 'elliptic'",
                lambda v, rank: v in FAMILIES), _REQUIRED),
    ("rank", _integer(1, 4), _REQUIRED),
    ("delta_prime", (_SUBSET + "root labels", lambda v, rank:
                     v in ("full", "empty") or _root_labels(v, rank)), "full"),
    ("pi_prime", (_SUBSET + "simple-root indices", lambda v, rank:
                  v in ("full", "empty") or isinstance(v, list)
                  and all(_int(i, 0, rank - 1) for i in v)), "full"),
    ("delta_plus", ("a list of root labels", _root_labels), None),
    ("lattice", _OBJECT, None),
    ("lattice.omega1", _COMPLEX, _REQUIRED),
    ("lattice.omega2", _COMPLEX, _REQUIRED),
    ("seed", _integer(0), 0),
    ("initial", ("an object with at most one of 'preset', 's' and "
                 "'xi'/'xi_cartan'", lambda v, rank: isinstance(v, dict)
                 and len({"preset", "s", "xi"} & {
                     key.removesuffix("_cartan") for key in v
                     if v[key] is not None}) <= 1), None),
    ("initial.preset", ("'free' or 'spinless(m)' with a finite complex m",
                        lambda v, rank: _preset(v)), None),
    ("initial.q", _COORDINATES, _REQUIRED),
    ("initial.p", _COORDINATES, _REQUIRED),
    ("initial.xi", ("an object from root labels to complex numbers",
                    lambda v, rank: _spins(v, rank, False)), None),
    ("initial.xi_cartan", _COORDINATES, None),
    ("initial.s", ("an object from the labels of the roots with a reduced "
                   "spin coordinate to complex numbers",
                   lambda v, rank: _spins(v, rank, True)), None),
    ("integration", _OBJECT, {}),
    ("integration.t_final", ("a finite number other than 0",
                             lambda v, rank: _num(v) and v != 0), 10.0),
    ("integration.tol", _POSITIVE, 1e-10),
    ("integration.n_points", _integer(2), 201),
    ("outputs", _OBJECT, {}),
    ("outputs.trajectory_csv", _FILE_NAME, "trajectory.csv"),
    ("outputs.diagnostics_json", _FILE_NAME, "diagnostics.json"),
    ("outputs.report_json", _FILE_NAME, "report.json"),
    ("outputs.z_samples", ("a non-empty list of complex numbers",
                           lambda v, rank: isinstance(v, list) and v != []
                           and all(map(_complex, v))), None),
    ("thresholds", _OBJECT, {}),
    *((f"thresholds.{suite}", _POSITIVE, _BY_FAMILY) for suite in SUITES),
)
_SECTIONS: dict[str, dict] = {}   # section path ("" the root) -> {key: entry}
for _entry in SCHEMA:
    _parent, _, _key = _entry[0].rpartition(".")
    _SECTIONS.setdefault(_parent, {})[_key] = _entry


@dataclass
class RunConfig:
    """A validated config document: every key of ``SCHEMA``, defaults
    filled in.  ``parse_config(dataclasses.asdict(config)) == config``."""

    family: str
    rank: int
    delta_prime: object
    pi_prime: object
    delta_plus: list | None
    lattice: dict | None
    seed: int
    initial: dict | None
    integration: dict
    outputs: dict
    thresholds: dict

    def system(self) -> RMatrixSpec:
        try:
            lattice = self.lattice and Lattice(*_complexes(
                [self.lattice["omega1"], self.lattice["omega2"]]))
            return make_system(self.family, self.rank,
                               delta_prime=self.delta_prime,
                               pi_prime=self.pi_prime,
                               delta_plus=self.delta_plus, lattice=lattice)
        except StructuralError as exc:
            raise ConfigError(str(exc)) from exc


def _complexes(values) -> np.ndarray:
    """Checked complex values (numbers or [re, im] pairs) as an array."""
    return np.array([complex(*v) if isinstance(v, list) else complex(v)
                     for v in values])


def _walk(given: dict, section: str, doc: dict) -> dict:
    """The keys of ``section`` (a key path, "" for the root) checked and
    completed with their defaults; ``doc`` is the validated root."""
    entries = _SECTIONS[section]
    for key in given:
        if key not in entries:
            raise ConfigError(f"unknown key {key!r} in {section or 'config'}")
    out = doc if not section else {}
    for key, (path, (rule, ok), default) in entries.items():
        value = given.get(key)
        if key not in given or value is None and default is None:
            if default is _REQUIRED:
                raise ConfigError(f"{section or 'config'} is missing the "
                                  f"required key {key!r}")
            value = default_thresholds(doc["family"])[key] \
                if default is _BY_FAMILY else default
        elif not ok(value, doc.get("rank")):
            raise ConfigError(f"{path}: expected {rule}, got {value!r}")
        out[key] = _walk(value, path, doc) \
            if path in _SECTIONS and value is not None else value
    return out


def parse_config(data) -> RunConfig:
    """Check ``data`` against ``SCHEMA`` and fill in the defaults; an
    unknown key, a missing required key or a bad value raises ConfigError
    naming its key path."""
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected an object, got {data!r}")
    return RunConfig(**_walk(data, "", {}))


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# initial conditions


def _spin_values(spins: dict, rank: int) -> dict:
    return {_root(label, rank): c
            for label, c in zip(spins, _complexes(spins.values()))}


def build_initial(config: RunConfig, system: RMatrixSpec):
    """Initial point from the config: explicit coordinates or a preset."""
    init = config.initial
    if init is None:
        raise ConfigError("this command needs an 'initial' section")
    rs = system.rs
    q, p = _complexes(init["q"]), _complexes(init["p"])
    if init["preset"] == "free":
        return PhasePoint.make(rs, q, p)
    if init["preset"] is not None:
        m = complex(_PRESET_RE.fullmatch(init["preset"]).group(1))
        return spinless_state(rs, q, p, m)
    if init["s"] is not None:
        return PhasePoint.make_reduced(rs, q, p,
                                       _spin_values(init["s"], rs.rank))
    cartan = init["xi_cartan"] and _complexes(init["xi_cartan"])
    return PhasePoint.make(rs, q, p, xi_cartan=cartan, xi_components=
                           _spin_values(init["xi"] or {}, rs.rank))


# ---------------------------------------------------------------------------
# simulate


def _emit(report: dict, path: Path | None = None) -> None:
    """Print a report as JSON, and write the same text to ``path``; a
    non-finite value, which JSON cannot hold, raises StructuralError
    before anything is written."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise StructuralError(f"the report holds a non-finite value: "
                              f"{exc}") from exc
    if path is not None:
        path.write_text(text, encoding="utf-8")
    print(text, end="")


def _z_grid(config: RunConfig, system: RMatrixSpec) -> list[complex]:
    z_conf = config.outputs["z_samples"]
    return default_z_samples(system) if z_conf is None \
        else list(_complexes(z_conf))


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    system = config.system()
    x0 = build_initial(config, system)
    traj = integrate(system, x0, **config.integration)
    csv_path = out_dir / config.outputs["trajectory_csv"]
    write_trajectory_csv(csv_path, traj)
    z_grid = _z_grid(config, system)
    try:
        drifts = spectral_drifts(system, traj, z_grid)
    except FloatingPointError as exc:
        # a truncated run keeps its abort reason and reports no drift
        if traj.completed:
            raise StructuralError(f"spectrum_drift is out of floating-point "
                                  f"range: {exc}") from exc
        drifts = {"worst": {}}
    energy = np.abs(traj.energy - traj.energy[0])
    diagnostics = {
        "system": system.describe(),
        "reduced": traj.points.reduced,
        "completed": traj.completed,
        "abort_reason": traj.abort_reason,
        "n_points": traj.n_points,
        "t_final": float(config.integration["t_final"]),
        "energy_drift": float(np.max(energy)),
        "momentum_drift": float(np.max(traj.constraint)),
        "spectrum_drift": drifts.get("spectrum_drift"),
        "isospectral_drift": drifts.get("isospectral_drift"),
        # where each drift peaks: its grid time, and its z if spectral
        "worst": {"energy_drift": _witness(
                      {"t": traj.times[np.argmax(energy)]}),
                  **{name: _witness({"t": traj.times[k], "z": z_grid[j]})
                     for name, (k, j) in drifts["worst"].items()}},
        "solver": traj.stats,
        "trajectory_csv": str(csv_path),
    }
    _emit(diagnostics, out_dir / config.outputs["diagnostics_json"])
    if not traj.completed:
        print(f"simulate: {traj.abort_reason}", file=sys.stderr)
        return EXIT_SINGULARITY
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


_Q_MARGIN = 0.2


def _first_rows(count: int, draw, ok, what: str) -> np.ndarray:
    """The first ``count`` rows, in draw order, of blocks ``draw(n)`` of n
    candidate rows that pass ``ok`` (a mask over a block): rejection
    sampling, 8 count candidates per block and 200 per sample at most,
    then StructuralError."""
    blocks = []
    for _ in range(200 // 8):
        block = draw(8 * count)
        blocks.append(block[ok(block)])
        if sum(map(len, blocks)) >= count:
            return np.concatenate(blocks)[:count]
    raise StructuralError(f"could not sample {what}")


def _random_q(rng, system: RMatrixSpec, count: int) -> np.ndarray:
    """``count`` random Cartan configurations (count, rank), in the spec's
    length: |q_i| uniform in [0.55, 1.15] with the sign of a uniform u_i in
    [-0.6, 0.6] (q_i = u_i +- 0.55), kept clear of the singular set: close
    root hyperplanes amplify the Lax coefficients past the suite
    thresholds without saying anything about the structure."""
    def draw(m: int) -> np.ndarray:
        u = rng.uniform(-0.6, 0.6, (m, system.rs.rank))
        return ((u + np.copysign(0.55, u)) * system.length).astype(complex)
    return _first_rows(count, draw, lambda q: collision_margin(system, q)
                       >= _Q_MARGIN * system.length, "a configuration away "
                       "from the singular set")


def _random_z(rng, system: RMatrixSpec, shape) -> np.ndarray:
    return rng.uniform(0.25, 0.8, shape) * system.length \
        * np.exp(2j * np.pi * rng.uniform(size=shape))


def _random_z_triples(rng, system: RMatrixSpec, count: int) -> np.ndarray:
    """``count`` spectral-parameter triples (count, 3) with pairwise
    differences bounded away from the poles of r."""
    return _first_rows(count, lambda m: _random_z(rng, system, (m, 3)),
                       lambda z: np.abs(z[:, [0, 0, 1]] - z[:, [1, 2, 2]])
                       .min(-1) >= 0.1 * system.length,
                       "a z-triple away from the poles")


def _normal(rng, shape) -> np.ndarray:
    """Complex standard normal entries: real and imaginary parts N(0, 1)."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_points(system: RMatrixSpec, rng, count: int, reduced=False,
                   off_sigma=False) -> PhasePoint:
    """``count`` stacked points: q of _random_q, real normal p, complex
    normal spins s or xi, xi on Sigma unless ``off_sigma`` (then a complex
    normal Cartan block, drawn last)."""
    rs = system.rs
    q = _random_q(rng, system, count)
    p = rng.normal(size=(count, rs.rank)).astype(complex)
    spin = _normal(rng, (count, rs.n_roots - rs.rank if reduced else rs.dim))
    if not reduced:
        spin[:, :rs.rank] = _normal(rng, (count, rs.rank)) if off_sigma \
            else 0.0
    return PhasePoint(rs, np.concatenate([q, p, spin], -1))


def _blocks(x: PhasePoint) -> dict:
    """The witness columns of the points x: q, p, then xi or s."""
    return {"q": x.q, "p": x.p, "s" if x.reduced else "xi": x.spin}


_INVOLUTION_BATTERY = [
    ((2, 0.41 + 0.22j), (3, -0.33 + 0.47j)),
    ((2, 0.41 + 0.22j), (2, -0.52 - 0.18j)),
    ((3, 0.29 - 0.44j), (3, -0.33 + 0.47j)),
    ((1, 0.61 + 0.09j), (3, 0.29 - 0.44j)),
    ((2, -0.52 - 0.18j), (3, 0.29 - 0.44j)),
    ((1, 0.61 + 0.09j), (2, 0.41 + 0.22j)),
]


def _witness(sample: dict) -> dict:
    """A sample as JSON, complex values as [re, im] pairs."""
    return {key: (np.stack([np.real(v), np.imag(v)], -1)
                  if np.iscomplexobj(v) else np.asarray(v)).tolist()
            for key, v in sample.items()}


def _worst(name: str, residuals, samples: dict) -> dict:
    """The check of the largest residual, with the sample that gave it, row
    k of every stacked array in ``samples``, as a replayable ``witness``."""
    k = int(np.argmax(residuals))
    return {"name": name, "samples": len(residuals),
            "max_residual": float(residuals[k]), "witness": _witness(
                {"sample": k, **{key: v[k] for key, v in samples.items()}})}


def _suite_axioms(system, config, rng) -> dict:
    samples = {"q": _random_q(rng, system, 20),
               "z": _random_z(rng, system, 20)}
    per_sample = verify_axioms(system, samples["q"], samples["z"])
    return {"checks": [_worst(name, per_sample[name], samples)
                       for name in ("zero_weight", "unitarity", "residue")]}


def _suite_cdybe(system, config, rng) -> dict:
    samples = {"q": _random_q(rng, system, 10),
               "z": _random_z_triples(rng, system, 10)}
    return {"checks": [_worst("cdybe", verify_cdybe(
        system, samples["q"], *samples["z"].T), samples)]}


def _suite_mdybe(system, config, rng) -> dict:
    q = _random_q(rng, system, 10)
    # the order-2 principal parts of pole-only Laurent covectors
    xi, eta = _normal(rng, (2, 10, 2, system.rs.dim))
    z = np.tile(default_mdybe_samples(system.length), (10, 1))
    return {"checks": [_worst("mdybe", verify_mdybe(
        system, q, xi, eta, z_samples=z),
        {"q": q, "z": z, "xi": xi, "eta": eta})]}


def _lax_check(name: str, system, x: PhasePoint) -> dict:
    return _worst(name, lax_residuals(system, x), _blocks(x))


def _suite_lax(system, config, rng) -> dict:
    checks = [_lax_check("lax_on_sigma", system,
                         _random_points(system, rng, 5))]
    if system.family == "rational":
        checks.append(_lax_check("quasi_lax_off_sigma", system, _random_points(
            system, rng, 5, off_sigma=True)))
    checks.append(_lax_check("lax_reduced_pointwise", system,
                             _random_points(system, rng, 3, reduced=True)))
    return {"checks": checks}


def _suite_involution(system, config, rng) -> dict:
    x = _random_points(system, rng, 3, reduced=True)
    pairs = [((k1, system.length * z1), (k2, system.length * z2))
             for (k1, z1), (k2, z2) in _INVOLUTION_BATTERY]
    # one sample per (point, pair), point-major like the residual table
    battery = np.array(pairs)   # (pair, side, [k, z])
    samples = {**_blocks(x[np.repeat(np.arange(3), len(battery))]),
               "k": np.tile(battery[..., 0].real.astype(int), (3, 1)),
               "z": np.tile(battery[..., 1], (3, 1))}
    return {"checks": [_worst("involution", involution_residuals(
        system, x, pairs).ravel(), samples)]}


def _suite_spectral(system, config, rng) -> dict:
    if config.initial is not None and config.initial["s"] is not None:
        x0 = build_initial(config, system)
    else:
        x0 = _random_points(system, rng, 1, reduced=True)[0]
    opts = config.integration
    traj = integrate(system, x0, **{**opts,
                                    "n_points": min(opts["n_points"], 101)})
    if not traj.completed:
        raise PoleError(f"spectral suite trajectory aborted: "
                        f"{traj.abort_reason}")
    z_grid = _z_grid(config, system)
    report = spectral_drifts(system, traj, z_grid)
    # the witness: the trajectory point and z of the worst entry, and the
    # initial point to integrate from; "solver" the integration's counts
    return {"checks": [{"name": name, "samples": traj.n_points,
                        "max_residual": report[name], "witness": _witness({
                            "sample": report["worst"][name][0],
                            "z": z_grid[report["worst"][name][1]],
                            **_blocks(x0)})}
                       for name in report["worst"]],
            "solver": traj.stats}


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
               inject_fault: bool = False) -> int:
    system = config.system()
    if inject_fault:
        system = system.with_fault(FAULT_SCALE)
    rng = np.random.default_rng(config.seed)
    result = _SUITE_RUNNERS[suite](system, config, rng)
    checks = result["checks"]
    threshold = float(config.thresholds[suite])
    for check in checks:
        check["family"] = config.family
        check["threshold"] = threshold
        check["pass"] = bool(check["max_residual"] < threshold)
    report = {
        "suite": suite,
        "family": config.family,
        "rank": config.rank,
        "seed": config.seed,
        "fault_injected": inject_fault,
        **result,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(report, out_dir / config.outputs["report_json"])
    return EXIT_PASS if report["pass"] else EXIT_RESIDUAL


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(config: RunConfig, traj_path, out_dir: Path) -> int:
    system = config.system()
    traj = read_trajectory_csv(traj_path, system.rs)
    if traj.points.reduced:
        raise ConfigError(f"trajectory {traj_path} is already reduced")
    try:
        red = project_pi(traj.points)
    except GaugeDomainError as exc:
        print(f"reduce: step {exc.index}: {exc}", file=sys.stderr)
        return EXIT_SINGULARITY
    residuals = gauge_residual(system, traj.points)
    out_path = out_dir / config.outputs["trajectory_csv"]
    write_trajectory_csv(out_path, Trajectory(
        traj.times, red, hamiltonian(system, red), np.zeros(traj.n_points),
        True), extra={"gauge_residual": residuals})
    _emit({"n_points": traj.n_points,
           "max_gauge_residual": float(np.max(residuals, initial=0.0)),
           "trajectory_csv": str(out_path)})
    return EXIT_PASS


# ---------------------------------------------------------------------------
# info


def cmd_info(config: RunConfig) -> int:
    system = config.system()
    payload = {
        "version": __version__,
        "system": system.describe(),
        "kmax": system.rs.matrix_size,
        "thresholds": config.thresholds,
        "root_system": root_system_summary(system.rs),
    }
    _emit(payload)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


def _flag(convert, check):
    """argparse type: the text converted, then checked like a config value;
    a bad value exits with code 2 and a usage message."""
    rule, ok = check

    def parse(text: str):
        value = convert(text)
        if not ok(value, None):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__   # argparse: "invalid int value"
    return parse


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
        p.add_argument("--seed", default=None,
                       type=_flag(int, _integer(0)),
                       help="override the config RNG seed (an integer >= 0)")

    p_sim = sub.add_parser("simulate", help="integrate the configured flow")
    common(p_sim)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver)
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="corrupt one root pair of the r-matrix "
                            "(negative control: the axioms, cdybe and "
                            "mdybe suites exit 1; lax, involution and "
                            "spectral never read the fault and exit 0)")

    p_red = sub.add_parser("reduce",
                           help="project an unreduced trajectory CSV")
    p_red.add_argument("trajectory", help="input trajectory CSV")
    common(p_red)

    p_info = sub.add_parser("info", help="print the configured system")
    p_info.add_argument("--config", required=True)
    return parser


@raise_on_fp_fault
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
                              inject_fault=args.inject_fault)
        return cmd_reduce(config, args.trajectory, out_dir)
    except (SpincmError, OSError, ArithmeticError, MemoryError) as exc:
        note = ("" if isinstance(exc, (SpincmError, OSError))
                else "out of range: ")
        print(f"spincm: {note}{exc}", file=sys.stderr)
        singular = (PoleError, GaugeDomainError)
        return EXIT_SINGULARITY if isinstance(exc, singular) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
