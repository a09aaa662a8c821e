"""Time each CLI subcommand as a cold process, one `python -m logmonoid` per run.

    python3 tools/cli_cold.py [--rounds N] [--compare OTHER_CHECKOUT]

The program is imported from this checkout's src/ (and from
OTHER_CHECKOUT/src); the documents are this checkout's tests/data
fixtures for both trees: `monoid-analyze` on m_even.json, each `connection`
subcommand on n2_sigma_pair_connection.json (with sigma_pair.json where a
subcommand reads one), and `connection shear` on a truncated copy of
rank2_connection.json (malformed JSON), on one without "rank" (a missing
field), and on a copy of n2_sigma_pair_connection.json with a t^(0,1) term
in its first matrix (not integrable: exit 4 once the engine has loaded).
`selftest`, which reads no document, is left out.

Every process runs with PYTHONPYCACHEPREFIX set to a directory made for
the run, so no bytecode left in either tree is read.  One untimed process
per case and tree, which may write bytecode, fills that directory; the
trees' own bytecode is then removed from it, and the timed processes run
with PYTHONDONTWRITEBYTECODE=1.  Each timed process thus compiles every
logmonoid module it imports from source and reads the stdlib's bytecode,
as `perfbench` cli-batch processes do on a host that keeps none for the
program.  A run's time is the CPU time of its
process (user + system, from RUSAGE_CHILDREN), which leaves out the time a
shared host's other tenants take.  Each row prints the exit code, the
median and quartiles of N runs in ms, and the `logmonoid.*` modules the
process loaded, read from one more, untimed, run under `-X importtime`.
With --compare the two trees run alternately, this checkout first in every
other round, and each row adds the ratio of the medians (this / other) and
the number of pairs this checkout took less CPU in.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
DATA = os.path.join(ROOT, "tests", "data")
CONNECTION = os.path.join(DATA, "n2_sigma_pair_connection.json")
SIGMA = ["--sigma", os.path.join(DATA, "sigma_pair.json")]


def _cases(scratch: str) -> list[tuple[str, list[str]]]:
    """(row name, logmonoid arguments) per case; the three faulty documents
    are written to scratch."""
    with open(os.path.join(DATA, "rank2_connection.json"), encoding="utf-8") as fh:
        text = fh.read()
    missing = json.loads(text)
    del missing["rank"]
    with open(CONNECTION, encoding="utf-8") as fh:
        not_integrable = json.load(fh)
    not_integrable["matrices"][0]["terms"] = [{"m": {"free": [0, 1]}, "entries": [["1"]]}]
    malformed_path, missing_path = os.path.join(scratch, "malformed.json"), os.path.join(scratch, "missing.json")
    not_integrable_path = os.path.join(scratch, "not_integrable.json")
    with open(malformed_path, "w", encoding="utf-8") as fh:
        fh.write(text[:40])
    with open(missing_path, "w", encoding="utf-8") as fh:
        json.dump(missing, fh)
    with open(not_integrable_path, "w", encoding="utf-8") as fh:
        json.dump(not_integrable, fh)
    return [
        ("monoid-analyze", ["monoid-analyze", os.path.join(DATA, "m_even.json")]),
        ("exponents", ["connection", "exponents", CONNECTION]),
        ("shear", ["connection", "shear", CONNECTION]),
        ("unipotent", ["connection", "unipotent", CONNECTION, *SIGMA, "--all-faces"]),
        ("dl", ["connection", "dl", CONNECTION]),
        ("homotopy", ["connection", "homotopy", CONNECTION, *SIGMA]),
        ("logconv", ["connection", "logconv", CONNECTION, "--depth", "2"]),
        ("shear/malformed", ["connection", "shear", malformed_path]),
        ("shear/missing-rank", ["connection", "shear", missing_path]),
        ("shear/not-integrable", ["connection", "shear", not_integrable_path]),
    ]


def _env(tree: str, pycache: str, write: bool = False) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": pycache}
    if write:
        del env["PYTHONDONTWRITEBYTECODE"]
    return env


def _warm_stdlib(trees: list[str], cases: list, pycache: str) -> None:
    """Fill pycache with the bytecode the cases import, less the trees' own."""
    for tree in trees:
        for _, argv in cases:
            subprocess.run([sys.executable, "-m", "logmonoid", *argv], env=_env(tree, pycache, write=True),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for tree in trees:
        shutil.rmtree(os.path.join(pycache, os.path.join(tree, "src").lstrip(os.sep)), ignore_errors=True)


def _timed(tree: str, argv: list[str], pycache: str) -> tuple[int, float]:
    """(exit code, CPU ms) of one cold process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "logmonoid", "--format", "json", *argv],
                          env=_env(tree, pycache), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, 1000 * cpu


def _loaded(tree: str, argv: list[str], pycache: str) -> list[str]:
    """The logmonoid submodules one process imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "logmonoid", *argv],
                          env=_env(tree, pycache), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return sorted(n.split(".", 1)[1] for n in names if n.startswith("logmonoid."))


def _spread(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return f"{q2:7.1f} [{q1:.1f}-{q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rounds", type=int, default=10, help="runs per case and tree (default 10)")
    parser.add_argument("--compare", metavar="OTHER_CHECKOUT", help="a second tree, run alternately with this one")
    args = parser.parse_args()
    trees = [ROOT] + ([os.path.abspath(args.compare)] if args.compare else [])
    with tempfile.TemporaryDirectory() as scratch:
        pycache = os.path.join(scratch, "pycache")
        cases = _cases(scratch)
        _warm_stdlib(trees, cases, pycache)
        times = {(name, t): [] for name, _ in cases for t in range(len(trees))}
        codes: dict[tuple[str, int], set] = {key: set() for key in times}
        for r in range(args.rounds):
            order = list(range(len(trees)))
            if r % 2:
                order.reverse()
            for name, argv in cases:
                for t in order:
                    code, ms = _timed(trees[t], argv, pycache)
                    times[name, t].append(ms)
                    codes[name, t].add(code)
        labels = ["this", "other"]
        print(f"CPU ms per cold process, median [quartiles] of {args.rounds} runs")
        for t, tree in enumerate(trees):
            print(f"  {labels[t]}: {tree}")
        for name, argv in cases:
            cells = [f"{labels[t]} exit {','.join(map(str, sorted(codes[name, t])))} {_spread(times[name, t])}"
                     for t in range(len(trees))]
            if len(trees) == 2:
                this, other = times[name, 0], times[name, 1]
                wins = sum(a < b for a, b in zip(this, other))
                cells.append(f"ratio {statistics.median(this) / statistics.median(other):.2f}, "
                             f"this less CPU in {wins}/{len(this)} pairs")
            print(f"{name}: " + " | ".join(cells))
            for t, tree in enumerate(trees):
                print(f"  {labels[t]} loads: {' '.join(_loaded(tree, argv, pycache))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
