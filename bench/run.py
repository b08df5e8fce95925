"""Benchmark of the spincm CLI: end-to-end job metrics and a traced per-layer
breakdown.  See bench/README.md.

    python3 bench/run.py --workload sim-elliptic-a4 --seed 1 --seconds 25 \
        --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread for BLAS and OpenMP, set before numpy is imported here or in a
# set-up interpreter: the jobs are single-threaded by design, and on a small
# shared machine a thread pool only adds noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_RUNS = 5
# The traced run's job count is fixed, so its counts repeat exactly.
TRACE_JOBS = 6
# Median time of speed_probe on the 2-core machine the benchmark was tuned
# on (Intel Xeon, Python 3.11.7, numpy 2.4.6): the reference speed.
PROBE_REF_S = 0.0131
# A fresh interpreter's set-up: import the package and build the system
# (and lattice) of the workload's first config, as every CLI call does.
SETUP_SNIPPET = ("import sys\n"
                 "from spincm.cli import load_config\n"
                 "load_config(sys.argv[1]).system()\n")

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "accuracy_digits": "digits", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"cli.bytes_out": "bytes", "trace.overhead_ratio": "ratio",
                   "rmatrix.coeff.per_rhs": "calls/rhs",
                   "dynamics.rhs.ms_per_call": "ms"}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# provenance


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spincm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# jobs


class Runner:
    """Writes a run's configs and executes its jobs in this process."""

    def __init__(self, jobs, run_dir: Path):
        from spincm import cli
        self.cli = cli
        self.out = run_dir / "out"
        self.out.mkdir(parents=True)
        cfg_dir = run_dir / "cfg"
        cfg_dir.mkdir()
        self.paths = {}
        for job in jobs:
            path = cfg_dir / f"job{job.index:05d}.json"
            path.write_text(json.dumps(job.config), encoding="utf-8")
            self.paths[job.index] = path

    def run(self, job, call=lambda fn: fn()) -> dict:
        """Run one job (through ``call``, which may open a trace span) and
        check its output.  Returns the job record."""
        from workloads import JobFailure, check_job
        for old in self.out.iterdir():
            old.unlink()
        argv = list(job.argv) + ["--config", str(self.paths[job.index]),
                                 "--out", str(self.out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = call(lambda: self.cli.main(argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed job
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        record = {"index": job.index, "label": job.label,
                  "seconds": seconds, "ok": False, "ratio": None}
        if error is None:
            try:
                record["ratio"] = check_job(job, code, self.out)
                record["ok"] = True
            except (JobFailure, OSError, KeyError, TypeError,
                    ValueError) as exc:
                error = f"{exc} (stderr: {stderr.getvalue().strip()[-200:]})"
        record["error"] = error
        record["bytes_out"] = (len(stdout.getvalue().encode())
                               + len(stderr.getvalue().encode())
                               + sum(p.stat().st_size
                                     for p in self.out.iterdir()))
        return record


def measure_setup(first_config: Path) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET,
                        str(first_config)], env=env, cwd=ROOT, check=True,
                       timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def speed_probe() -> float:
    """Seconds for a fixed task that mixes interpreted complex arithmetic
    with small numpy calls, like the package's per-root loops.  It does not
    touch spincm, so only the machine's speed moves it."""
    import numpy as np
    a = np.full((5, 5), 0.5 + 0.1j)
    acc = 0j
    t0 = time.perf_counter()
    for k in range(1000):
        z = cmath.exp(0.01j * k)
        acc += complex(np.trace(a @ a)) * z + cmath.sin(z) / (2.0 + z * z)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """Value with exactly ten jobs beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# runs


def timed_run(runner: Runner, jobs, setup_path: Path) -> tuple:
    setup = measure_setup(setup_path)
    probes, records = [], []
    for job in jobs:
        probes.append(speed_probe())
        records.append(runner.run(job))
        records[-1]["probe_s"] = probes[-1]
    done = [r for r in records if r["ok"]]
    if len(done) < 11:
        raise RuntimeError(f"only {len(done)} of {len(records)} jobs passed")
    times = [r["seconds"] for r in done]
    tail_s, tail_pct = tail(times)
    ratios = [r["ratio"] for r in done]
    # Residuals and drifts spread over orders of magnitude between inputs,
    # so their mean is taken on a log scale: the digits by which a job's
    # worst residual stays below its threshold (capped at double precision).
    digits = [-math.log10(max(r, 1e-16)) for r in ratios]
    busy = sum(r["seconds"] for r in records)
    raw = {"setup_s": statistics.median(setup),
           "job_p50_s": statistics.median(times),
           "job_tail_s": tail_s,
           "jobs_per_s": len(done) / busy}
    # The host's speed drifts by up to 20% over minutes.  Every time is
    # scaled to the reference speed of the probe run before each job, so
    # runs made at different moments compare; the raw figures stay in info.
    speed = PROBE_REF_S / statistics.median(probes)
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "job_p50_s": raw["job_p50_s"] * speed,
        "job_tail_s": raw["job_tail_s"] * speed,
        "jobs_per_s": raw["jobs_per_s"] / speed,
        "accuracy_digits": statistics.fmean(digits),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"raw": raw, "speed": speed, "setup_runs_s": setup,
            "tail_percentile": tail_pct,
            "jobs": len(records), "completed": len(done),
            "fail_frac": (len(records) - len(done)) / len(records),
            "accuracy_ratio_max": max(ratios),
            "accuracy_ratio_median": statistics.median(ratios), "busy_s": busy}
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, records, info


def traced_run(workload, runner: Runner, jobs, seed: int) -> tuple:
    from spans import Tracer
    plain = [runner.run(job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(job, lambda fn, i=job.index: tracer.run_job(i, fn))
                  for job in jobs]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = sum(r["bytes_out"] for r in traced)
    metrics["trace.overhead_ratio"] = (sum(r["seconds"] for r in traced)
                                       / sum(r["seconds"] for r in plain))
    span_file = WORK / "traces" / f"{workload.name}-seed{seed}.npz"
    tracer.save(span_file)
    info = {"spans": len(tracer.span_start), "span_file": str(
        span_file.relative_to(ROOT)), "missing": tracer.missing,
        "jobs": len(jobs)}
    units = {k: layer_unit(k) for k in metrics}
    return metrics, units, plain + traced, info


def main(argv=None) -> int:
    from_args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    from_args.add_argument("--workload", required=True)
    from_args.add_argument("--seed", type=int, required=True)
    from_args.add_argument("--seconds", type=float, required=True)
    from_args.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = from_args.parse_args(argv)
    if not (SRC / "spincm" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'spincm'}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import spincm
    if Path(spincm.__file__).resolve().parent != SRC / "spincm":
        return fail(f"spincm imported from {spincm.__file__}, not {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; expected one of "
                    + ", ".join(WORKLOADS))

    count = TRACE_JOBS if args.trace else workload.job_count(args.seconds)
    jobs = workload.jobs(args.seed, count + 1)
    warmup, jobs = jobs[count:], jobs[:count]
    run_dir = WORK / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runner = Runner(warmup + jobs, run_dir)
        for job in warmup:
            runner.run(job)
        if args.trace:
            metrics, units, records, info = traced_run(
                workload, runner, jobs, args.seed)
        else:
            metrics, units, records, info = timed_run(
                runner, jobs, runner.paths[jobs[0].index])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    env = environment()
    result_file = (WORK / "results"
                   / f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps({
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "info": info, "metrics": metrics, "jobs": records}, indent=1) + "\n")
    print(json.dumps({"environment": env, "workload": workload.name,
                      "seed": args.seed, "info": info}))
    for r in records:
        if not r["ok"]:
            print(f"FAILED job {r['index']} ({r['label']}): {r['error']}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
