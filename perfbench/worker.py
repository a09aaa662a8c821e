"""One benchmark process: a fresh interpreter that runs jobs one after another.

Usage (started by run.py, with the checkout's src/ on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD SEED MODE ROUNDS WORKDIR

MODE is `probe` (import the program, report ready, exit), `plain` (run
ROUNDS whole rounds of jobs) or `traced` (the same with span tracing).
The worker prints `ready` and the CPU seconds it has used so far once the
program is imported, and writes its job records to WORKDIR/result.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

WORKLOAD, SEED, MODE, ROUNDS, WORKDIR = sys.argv[1:6]

if WORKLOAD == "cli-batch":
    import logmonoid.cli  # noqa: F401  (what every CLI process imports)
else:
    import logmonoid  # noqa: F401
print("ready", time.process_time(), flush=True)
if MODE == "probe":
    sys.exit(0)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children (the CLI
    processes of cli-batch).  A job is timed by the CPU it uses, not by the
    wall clock: on a shared host the wall time of the same job swings with
    the load of other tenants (time stolen from the virtual CPU, other
    processes), which the CPU time of the job leaves out."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main() -> None:
    seed, rounds = int(SEED), int(ROUNDS)
    run, check, oracle = workloads.RUNNERS[WORKLOAD]
    make_round = gen.ROUNDS[WORKLOAD]
    tracer = None
    spans_dir = None
    if MODE == "traced":
        if WORKLOAD == "cli-batch":
            spans_dir = os.path.join(WORKDIR, "child-spans")
            os.makedirs(spans_dir, exist_ok=True)
        else:
            tracer = tracing.Tracer()
            tracing.install(tracer)

    records = []
    oracle_sample = []  # the first round, re-checked once the run is over
    ref_before = reference.reference_seconds()  # host speed; see reference.py
    for round_index in range(rounds):
        for job in make_round(seed, round_index):
            job_id = len(records)
            job["id"] = job_id
            args = ()
            if WORKLOAD == "cli-batch":
                jobdir = os.path.join(WORKDIR, f"job-{job_id}")
                os.makedirs(jobdir, exist_ok=True)
                for name, text in job["files"].items():
                    with open(os.path.join(jobdir, name), "w", encoding="utf-8") as fh:
                        fh.write(text)
                spans = None if spans_dir is None else os.path.join(spans_dir, f"{job_id}.json")
                args = (jobdir, spans)
            if tracer is not None:
                tracer.current_job = job_id
            cause = None
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            try:
                result = run(job, *args)
            except Exception as exc:  # a crash is a counted failure, never fatal
                result = None
                cause = f"exception-{type(exc).__name__}"
            wall = time.perf_counter() - wall0
            seconds = cpu_seconds() - cpu0
            ref_after = reference.reference_seconds()
            ref = (ref_before + ref_after) / 2
            ref_before = ref_after
            if tracer is not None:
                tracer.current_job = -1
            wrong = False
            if result is not None:
                cause, wrong = check(job, result)
            records.append({
                "id": job_id, "round": round_index, "cell": job["cell"], "seconds": seconds,
                "wall_s": wall, "ref_s": ref,
                "checked": result is not None, "cause": cause, "wrong": wrong, "T": job.get("T"),
                "rays": job.get("expect", {}).get("rays"), "subcommand": job.get("subcommand"),
                "expect_code": job.get("expect_code"),
            })
            if oracle is not None and round_index == 0 and result is not None:
                oracle_sample.append((records[-1], job, result))

    # read before the oracle runs, so the peak is the program's, not the oracle's
    who = resource.RUSAGE_CHILDREN if WORKLOAD == "cli-batch" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for record, job, result in oracle_sample:
        cause = oracle(job, result)
        if cause and not record["cause"]:
            record["cause"], record["wrong"] = cause, True
    out = {
        "jobs": records,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.write(os.path.join(WORKDIR, "spans.tsv"))
        out["layers"] = tracer.summary()
        out["span_jobs"] = {
            name: tracer.spans_by_job(name)
            for name in ("log_connection.shear", "monoid_core.faces")
        }
    if spans_dir is not None:
        out["children"] = []
        for rec in records:
            path = os.path.join(spans_dir, f"{rec['id']}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    out["children"].append(json.load(fh))
    with open(os.path.join(WORKDIR, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)


main()
