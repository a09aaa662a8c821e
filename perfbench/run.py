"""logmonoid benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Jobs run one after another in one fresh worker interpreter (a closed loop
with one client), so every run starts with the package's caches empty.
A run is a whole number of rounds, each a fixed list of job kinds with
seeded inputs; S sets the number of rounds (S over ROUND_SECONDS, rounded
up), so every commit measures the same jobs.  With --trace 0 the end-to-end metrics are printed.

Times are CPU seconds at a fixed host speed.  A job is timed by the CPU
seconds it uses (the worker's, plus the CLI process's for cli-batch), which
leave out the time a shared host gives to other tenants.  The speed of the
CPU itself still swings with their load, so a fixed reference computation
(reference.py) is timed on the same CPU between every two jobs and around
every set-up probe, and each time is brought to one host speed by
`reference.scaled`.  The unscaled CPU and wall-clock figures are printed on
the line before the summary.  job_p50_s and job_p90_s are Harrell-Davis
quantile estimates over every job of the run, jobs_per_s is jobs per
(scaled) busy second, and setup_s is the median time ten fresh interpreters
take to start and import the program.

With --trace 1 half as many rounds run twice, untraced and then traced,
and the per-layer metrics are printed with the tracing overhead.  The last
line of standard output is one JSON object; the line before it counts the
jobs, the checks and the failures by cause.  Scratch files and the traced
spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import reference_seconds, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("connection-ladder", "monoid-analysis", "cli-batch")
SETUP_PROBES = 10
# Scaled seconds one round of jobs took at the commit that defined the
# benchmark, on a 2-core x86 box; --seconds is turned into a whole number of
# rounds, rounded up.
ROUND_SECONDS = {"connection-ladder": 13.0, "monoid-analysis": 11.0, "cli-batch": 5.0}
DEADLINE_S = 170.0
# How far each workload's CPU time follows the reference's (reference.scaled):
# the slope of log(a run's job CPU seconds) on log(its mean reference time),
# over 16 to 20 runs of each workload on that box as its speed swung by up to
# two times, was 0.67 to 0.72 for connection-ladder, 1.05 to 1.10 for
# monoid-analysis and 0.73 to 0.83 for cli-batch (correlations 0.92 to 1.0),
# and 0.71 to 0.79 for single CLI processes timed alone.  Set-up probes, fresh
# interpreters importing the program, are scaled like CLI processes.
SENSITIVITY = {"connection-ladder": 0.75, "monoid-analysis": 1.0, "cli-batch": 0.75}
SETUP_SENSITIVITY = 0.75

LADDER = (3, 4, 5, 6)
RAY_COUNTS = range(2, 10)
SUBCOMMANDS = ("monoid-analyze", "exponents", "shear", "unipotent", "homotopy", "logconv", "dl")

# (span name, fields): calls and self_s are summed over the traced run.
LAYER_FIELDS = (
    ("snf.smith_normal_form", ("calls", "self_s")),
    ("abelian.solve_in_group", ("calls", "self_s")),
    ("monoid_core.MonoidHom.gp_apply", ("calls",)),
    ("qlin.qmat_mul", ("calls", "self_s")),
    ("qlin.qsolve", ("calls", "self_s")),
    ("weighted_series.h_plus", ("calls", "self_s")),
    ("weighted_series.series_mul", ("calls", "self_s")),
    ("weighted_series.series", ("calls", "self_s")),
    ("weighted_series.gauss_norm", ("self_s",)),
    ("log_connection.validate_integrability", ("self_s",)),
    ("log_connection.shear", ("self_s",)),
    ("log_connection.is_sigma_unipotent", ("self_s",)),
    ("log_connection.log_convergence_check", ("self_s",)),
    ("cone.simplex_feasible", ("calls", "self_s")),
    ("cone.hilbert_basis", ("self_s",)),
    ("monoid_core.faces", ("self_s",)),
    ("monoid_core.is_saturated_bounded", ("self_s",)),
    ("monoid_core.membership", ("calls", "self_s")),
    ("monoid_core.default_weighting", ("self_s",)),
    ("documents.parse_connection", ("self_s",)),
    ("documents.parse_monoid", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s"}


def quantile(values, p, steps=32):
    """Harrell-Davis estimate of the p-quantile (0 < p < 1): the mean of the
    order statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    interval [i/n, (i+1)/n], integrated by Simpson's rule.  A round mixes
    job kinds whose times differ by steps, and a single order statistic
    jumps between them from run to run; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def start_worker(workload, seed, mode, budget, workdir, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode,
           str(budget), workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(line) != 2 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit code {proc.poll()})")
    return proc, (float(line[1]), wall)


def finish_worker(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")


def run_worker(workload, seed, mode, budget, workdir, env, deadline):
    os.makedirs(workdir, exist_ok=True)
    proc, _ = start_worker(workload, seed, mode, budget, workdir, env)
    finish_worker(proc, deadline)
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def failures(jobs):
    causes = {}
    for j in jobs:
        if j["cause"]:
            causes[j["cause"]] = causes.get(j["cause"], 0) + 1
    return causes


def summary(result) -> tuple[int, int]:
    """Print the job, check and failure counts; return (attempted, failed)."""
    jobs = result["jobs"]
    checked = sum(1 for j in jobs if j["checked"])
    failed = sum(1 for j in jobs if j["cause"])
    print(f"jobs={len(jobs)} rounds={result['rounds']} checked={checked} "
          f"crashed={len(jobs) - checked} failed={failed} causes={json.dumps(failures(jobs))}")
    return len(jobs), failed


def scaled_times(result, workload):
    return {j["id"]: scaled(j["seconds"], j["ref_s"], SENSITIVITY[workload])
            for j in result["jobs"]}


def end_to_end(result, setup, workload):
    jobs = result["jobs"]
    times = list(scaled_times(result, workload).values())
    cpu = [j["seconds"] for j in jobs]
    walls = [j["wall_s"] for j in jobs]
    refs = [j["ref_s"] for j in jobs]
    failed = sum(1 for j in jobs if j["cause"])
    p90 = quantile(times, 0.9)
    print(f"job_p90_s over {len(times)} jobs, {sum(1 for t in times if t > p90)} beyond it; "
          f"reference_s median {statistics.median(refs):.4f}, mean {statistics.mean(refs):.4f}; "
          f"unscaled cpu p50 {quantile(cpu, 0.5):.4f} s, p90 {quantile(cpu, 0.9):.4f} s, "
          f"sum {sum(cpu):.3f} s; wall p50 {quantile(walls, 0.5):.4f} s, "
          f"p90 {quantile(walls, 0.9):.4f} s, sum {sum(walls):.3f} s; setup over "
          f"{len(setup)} interpreters: cpu {statistics.median(c for c, _, _ in setup):.4f} s, "
          f"wall {statistics.median(w for _, w, _ in setup):.4f} s")
    return {
        "setup_s": (statistics.median(scaled(c, ref, SETUP_SENSITIVITY) for c, _, ref in setup),
                    "s"),
        "job_p50_s": (quantile(times, 0.5), "s"),
        "job_p90_s": (p90, "s"),
        "jobs_per_s": (len(jobs) / sum(times), "1/s"),
        "ok_ratio": ((len(jobs) - failed) / len(jobs), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced, workload):
    jobs = traced["jobs"]
    if "children" in traced:
        layers = {}
        for child in traced["children"]:
            for name, rec in child["layers"].items():
                acc = layers.setdefault(name, {})
                for key, value in rec.items():
                    acc[key] = acc.get(key, 0) + value
    else:
        layers = traced["layers"]
    metrics = {}
    for name, fields in LAYER_FIELDS:
        rec = layers.get(name, {})
        for field in fields:
            metrics[f"{name}.{field}"] = (rec.get(field, 0), UNITS[field])
    for name, key in (("cone.simplex_feasible", "feasible_ratio"),
                      ("monoid_core.is_saturated_bounded", "decided_ratio")):
        rec = layers.get(name, {})
        ratio = rec.get("useful", 0) / rec["calls"] if rec.get("calls") else 0.0
        metrics[f"{name}.{key}"] = (ratio, "ratio")

    span_jobs = traced.get("span_jobs", {})
    by_id = {j["id"]: j for j in jobs}
    shear_calls = layers.get("log_connection.shear", {}).get("calls", 0)
    metrics["log_connection.shear.calls_per_job"] = (shear_calls / len(jobs), "count")
    shear = span_jobs.get("log_connection.shear", {})
    for t in LADDER:
        spans = [d for job, ds in shear.items() for d in ds
                 if by_id[int(job)]["T"] == t and by_id[int(job)]["cell"].startswith("N2/")]
        metrics[f"log_connection.shear.N2.T{t}.p50_s"] = (median_or_zero(spans), "s")
    faces = span_jobs.get("monoid_core.faces", {})
    for k in RAY_COUNTS:
        per_job = [sum(ds) for job, ds in faces.items() if by_id[int(job)]["rays"] == k]
        metrics[f"monoid_core.faces.rays{k}.p50_s"] = (median_or_zero(per_job), "s")

    children = traced.get("children", [])
    metrics["cli.import_s"] = (median_or_zero([c["import_s"] for c in children]), "s")
    for sub in SUBCOMMANDS:
        ok = {j["id"] for j in jobs if j["subcommand"] == sub and j["expect_code"] == 0}
        mains = [c["main_s"] for c in children if c["job"] in ok]
        metrics[f"cli.{sub}.p50_s"] = (median_or_zero(mains), "s")

    plain_times, traced_times = scaled_times(plain, workload), scaled_times(traced, workload)
    if set(plain_times) != set(traced_times):
        raise BenchError("traced and untraced runs ran different jobs")
    metrics["trace.overhead_ratio"] = (
        sum(traced_times.values()) / sum(plain_times.values()) - 1.0, "ratio")
    metrics["trace.job_p50_delta_s"] = (
        statistics.median(traced_times.values()) - statistics.median(plain_times.values()), "s")
    return metrics


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.  Each CPU of
    a shared host changes speed on its own, so the reference computation
    measures the speed a job ran at only if both ran on the same CPU.  The
    jobs run one at a time, so one CPU is all they use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "logmonoid", "__init__.py")):
        print("error: run from the root of a logmonoid checkout (no src/logmonoid here)",
              file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"

    rounds = max(1, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))
    try:
        if args.trace:
            rounds = max(1, rounds // 2)
            plain = run_worker(args.workload, args.seed, "plain", rounds,
                               os.path.join(base, "plain"), env, deadline)
            result = run_worker(args.workload, args.seed, "traced", rounds,
                                os.path.join(base, "traced"), env, deadline)
            metrics = per_layer(plain, result, args.workload)
        else:
            setup = []  # (cpu, wall, reference) seconds per fresh interpreter
            for _ in range(SETUP_PROBES):
                ref_before = reference_seconds()
                proc, (cpu, wall) = start_worker(args.workload, args.seed, "probe", 0, base, env)
                finish_worker(proc, deadline)
                setup.append((cpu, wall, (ref_before + reference_seconds()) / 2))
            result = run_worker(args.workload, args.seed, "plain", rounds, base, env, deadline)
            metrics = end_to_end(result, setup, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    attempted, failed = summary(result)
    wrong = any(j["wrong"] for j in result["jobs"])
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
