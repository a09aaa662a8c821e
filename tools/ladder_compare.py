"""Compare two checkouts on the connection-ladder jobs, in one process.

    python3 tools/ladder_compare.py OTHER [--seeds 41001 7 123 99] [--rounds 8] [--passes 3]

Run from the root of a checkout ("this"); OTHER is the root of another
checkout.  Both `src/logmonoid` packages are loaded into one interpreter
under distinct names, and perfbench's `gen` of this checkout draws the
jobs: every round of every seed, as the benchmark's connection-ladder
workload draws them.  A job runs what perfbench's `workloads.run_connection`
runs, on both packages, this one first on even jobs and the other first on
odd ones, each timed in CPU seconds.  Each pass runs every job once, after
emptying both packages' document caches, so a pass starts as a fresh
benchmark worker does (the modules stay compiled).  The `repr` of every
result but its context must be the same on both; the first difference
stops the run with exit status 1.  Printed: per pass the two CPU totals
and their ratio this/other, then per ladder cell the summed CPU over all
passes and its ratio.  Two copies of one tree (an A/A run) show how far a
ratio moves by chance on the host.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOGCONV_DEPTH = 2  # perfbench/workloads.py


def load(root: str, name: str) -> dict:
    """The modules a ladder job uses, from root's src/logmonoid loaded as package `name`."""
    src = os.path.join(os.path.abspath(root), "src", "logmonoid")
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "__init__.py"),
                                                  submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("documents", "log_connection", "monoid_core", "weighted_series")}


def run_connection(pkg: dict, job: dict) -> tuple:
    """One connection-ladder job, as perfbench's `workloads.run_connection`."""
    documents, lc, mc, ws = (pkg[m] for m in ("documents", "log_connection", "monoid_core", "weighted_series"))
    ctx, e = documents.parse_connection(job["doc"])
    integrable = lc.validate_integrability(e)
    decomposition = lc.exponents(e)
    sheared = lc.shear(e)
    sigma = documents.parse_sigma(ctx, job["sigma"])
    verdicts = [(sorted(f.generator_indices), lc.is_sigma_unipotent(e, sigma, f).verdict)
                for f in mc.faces(ctx.monoid)]
    logconv = lc.log_convergence_check(e, ws.Radius.p_power(1), ws.Radius.p_power(Fraction(1, 2)), LOGCONV_DEPTH)
    return ctx, integrable, decomposition, sheared, verdicts, logconv


def timed(pkg: dict, job: dict) -> tuple[float, str]:
    t0 = time.process_time()
    result = run_connection(pkg, job)
    return time.process_time() - t0, repr(result[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the other checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[41001, 7, 123, 99])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    jobs = [job for seed in args.seeds for r in range(args.rounds) for job in gen.connection_round(seed, r)]
    this, other = load(ROOT, "logmonoid_this"), load(args.other, "logmonoid_other")
    cells: dict[str, list[float]] = {}
    ratios = []
    for n in range(args.passes):
        for pkg in (this, other):
            pkg["documents"].clear_caches()
        totals = [0.0, 0.0]
        for j, job in enumerate(jobs):
            order = (0, 1) if j % 2 == 0 else (1, 0)
            out = {}
            for side in order:
                out[side] = timed((this, other)[side], job)
            if out[0][1] != out[1][1]:
                print(f"job {j} ({job['cell']}, pass {n + 1}): the results differ", file=sys.stderr)
                return 1
            cell = cells.setdefault(job["cell"], [0.0, 0.0, 0])
            for side in (0, 1):
                totals[side] += out[side][0]
                cell[side] += out[side][0]
            cell[2] += 1
        ratios.append(totals[0] / totals[1])
        print(f"pass {n + 1}: this {totals[0]:.3f} s  other {totals[1]:.3f} s  this/other {ratios[-1]:.3f}",
              flush=True)
    print(f"{len(jobs)} jobs per pass, every result repr-identical")
    print(f"{'cell':16s} {'runs':>5s} {'this ms':>9s} {'other ms':>9s} {'this/other':>10s}")
    for name, (a, b, runs) in cells.items():
        print(f"{name:16s} {runs:5d} {1e3 * a / runs:9.2f} {1e3 * b / runs:9.2f} {a / b:10.3f}")
    print(f"overall this/other: median {statistics.median(ratios):.3f}, range {min(ratios):.3f}-{max(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
