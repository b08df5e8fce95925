"""Workloads of the benchmark: seeded job generators and output checks.

A job is one ``spincm.cli.main`` call on a config the generator wrote.  The
job list of a run depends only on the workload, ``--seed`` and ``--seconds``,
so two commits measured with the same arguments run the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Elliptic lattice of the test-suite: half-periods 2 and 2.2i, so the period
# lattice is 4Z + 4.4iZ and a real u is nearest to a point of 4Z.
OMEGA1, OMEGA2 = 2.0, 2.2
# Every q the generator emits keeps this distance from the singular set of
# the pair weights.  The floor is a property of the input alone; a run is
# never rejected or replaced because of how it turned out.
MARGIN_FLOOR = 0.5
# Threshold for the energy, momentum and spectrum drifts of a simulate job:
# the CLI's threshold for the spectral suite, which checks the same drifts.
SIM_DRIFT_THRESHOLD = 1e-6
SIM_DRIFTS = ("energy_drift", "momentum_drift", "spectrum_drift")
SUITES = ("axioms", "cdybe", "mdybe", "lax", "involution", "spectral")


@dataclass(frozen=True)
class Job:
    index: int
    label: str
    argv: tuple[str, ...]
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job_s: float       # nominal seconds per job on the 2-core reference box
    round_size: int    # jobs that form one balanced round of the mix
    min_jobs: int      # at least 20, so that ten jobs lie beyond the tail
    make_job: Callable[[np.random.Generator, int], Job]

    def jobs(self, seed: int, count: int) -> list[Job]:
        """The first ``count`` jobs of this workload for ``seed``."""
        key = zlib.crc32(self.name.encode())
        rng = np.random.default_rng([seed, key])
        return [self.make_job(rng, i) for i in range(count)]

    def job_count(self, seconds: float) -> int:
        """Jobs in a timed run: about ``seconds`` of work at the nominal job
        cost, in whole rounds.  Fixed by the arguments, not by elapsed time,
        so every run of a workload has the same length and mix."""
        n = max(self.min_jobs, math.ceil(seconds / self.job_s))
        return self.round_size * math.ceil(n / self.round_size)


def _root_system(rank: int):
    from spincm.rootsys import build_root_system
    return build_root_system("A", rank)


def _sample_q(rng, rank: int, margin: Callable[[np.ndarray], float]) -> list:
    """Uniform q in [-2, 2]^rank, redrawn until the family's singular-set
    margin of the root values u = (alpha, q) reaches MARGIN_FLOOR."""
    alpha_h = _root_system(rank).alpha_h
    while True:
        q = rng.uniform(-2.0, 2.0, size=rank)
        if margin(alpha_h @ q) >= MARGIN_FLOOR:
            return [float(v) for v in q]


# The margins of spincm.dynamics.collision_margin, for real u and every root
# singular (full delta_prime / pi_prime).
def _rational_margin(u: np.ndarray) -> float:
    return float(np.min(np.abs(u)))


def _trigonometric_margin(u: np.ndarray) -> float:
    return float(np.min(np.abs(np.sin(u))))


def _elliptic_margin(u: np.ndarray) -> float:
    period = 2.0 * OMEGA1
    return float(np.min(np.abs(u - period * np.round(u / period))))


def _small_p(rng, rank: int) -> list:
    return [float(v) for v in rng.normal(0.0, 0.3, size=rank)]


def _reduced_initial(rng, rank: int, margin) -> dict:
    """Reduced initial data: q under the margin floor, small p, and one
    unit-modulus complex spin with a uniform phase per reduced root.  A
    fixed modulus keeps the flow's speed, and so the cost of a job, from
    varying with the spin draw."""
    from spincm.phase import reduced_roots
    from spincm.rootsys import root_label
    q = _sample_q(rng, rank, margin)
    p = _small_p(rng, rank)
    spins = {}
    for root in reduced_roots(_root_system(rank)):
        phase = 2.0 * math.pi * float(rng.uniform())
        spins[root_label(root)] = [math.cos(phase), math.sin(phase)]
    return {"q": q, "p": p, "s": spins}


def _simulate(index: int, config: dict) -> Job:
    return Job(index, "simulate", ("simulate",), config)


def _sim_elliptic(rng, index: int) -> Job:
    return _simulate(index, {
        "family": "elliptic", "rank": 4,
        "lattice": {"omega1": OMEGA1, "omega2": [0.0, OMEGA2]},
        "initial": {"q": _sample_q(rng, 4, _elliptic_margin),
                    "p": _small_p(rng, 4), "preset": "spinless(1j)"},
        "integration": {"t_final": 0.1, "n_points": 11},
    })


def _sim_reduced_rational(rng, index: int) -> Job:
    return _simulate(index, {
        "family": "rational", "rank": 4,
        "initial": _reduced_initial(rng, 4, _rational_margin),
        "integration": {"t_final": 0.01, "n_points": 11},
    })


def _verify_trig(rng, index: int) -> Job:
    suite = SUITES[index % len(SUITES)]
    seed = int(rng.integers(0, 2 ** 31))
    config = {"family": "trigonometric", "rank": 3}
    if suite == "spectral":
        # The suite integrates from the config's reduced point when there
        # is one; the generator supplies it so that it obeys the same margin
        # floor as the flows.  (The suite's own sampler allows a margin of
        # 0.2, where the absolute isospectral drift can exceed 1e-6.)
        config["initial"] = _reduced_initial(rng, 3, _trigonometric_margin)
        config["integration"] = {"t_final": 0.1}
    return Job(index, suite,
               ("verify", "--suite", suite, "--seed", str(seed)), config)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sim-elliptic-a4",
        "theta/Weierstrass functions and per-root coefficients do most of "
        "the work; the Laurent/R_q code and the reduced spin tensor are "
        "never called",
        job_s=0.7, round_size=1, min_jobs=20, make_job=_sim_elliptic),
    Workload(
        "sim-reduced-rational-a4",
        "reduced flow: phase.spin_tensor does nearly all the work and the "
        "elliptic layer none, so an elliptic optimisation should not move it",
        job_s=0.4, round_size=1, min_jobs=20,
        make_job=_sim_reduced_rational),
    Workload(
        "verify-trig-a3",
        "the six verify suites in turn: R_q, Laurent closures, contour "
        "quadrature and z-derivative coefficients dominate, unlike the flows",
        # Seven rounds at least: the tail (eleventh-slowest job) then lies
        # inside the cluster of spectral jobs, not at the edge of a cluster.
        job_s=0.9, round_size=len(SUITES), min_jobs=42,
        make_job=_verify_trig),
)}


# ---------------------------------------------------------------------------
# output checks


class JobFailure(Exception):
    """A job's exit code or output does not meet the check."""


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise JobFailure(f"cannot read {path.name}: {exc}") from exc


def _ratio(value, threshold: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value >= threshold:
        raise JobFailure(f"{what} = {value:.3e} is not below {threshold:.1e}")
    return value / threshold


def check_job(job: Job, code: int, out_dir: Path) -> float:
    """Check one finished job; return its worst residual or drift over its
    threshold, or raise JobFailure."""
    if code != 0:
        raise JobFailure(f"exit code {code}")
    if job.label == "simulate":
        diag = _read_json(out_dir / "diagnostics.json")
        if diag.get("completed") is not True:
            raise JobFailure(f"not completed: {diag.get('abort_reason')}")
        n_points = job.config["integration"]["n_points"]
        if diag.get("n_points") != n_points:
            raise JobFailure(f"{diag.get('n_points')} points, expected "
                             f"{n_points}")
        with open(out_dir / "trajectory.csv", newline="",
                  encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        if rows != n_points + 1:
            raise JobFailure(f"trajectory.csv has {rows} rows, expected "
                             f"{n_points + 1}")
        return max(_ratio(diag[key], SIM_DRIFT_THRESHOLD, key)
                   for key in SIM_DRIFTS)
    report = _read_json(out_dir / "report.json")
    if report.get("suite") != job.label or report.get("pass") is not True:
        raise JobFailure(f"report of suite {report.get('suite')!r} does not "
                         "pass")
    if not report.get("checks"):
        raise JobFailure("report has no checks")
    worst = 0.0
    for check in report["checks"]:
        if check.get("pass") is not True:
            raise JobFailure(f"check {check.get('name')!r} fails")
        worst = max(worst, _ratio(check["max_residual"], check["threshold"],
                                  check["name"]))
    return worst
