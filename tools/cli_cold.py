"""Time each CLI subcommand as a cold process, one `python -m logmonoid` per run.

    python3 tools/cli_cold.py [--rounds N] [--compare OTHER]

The documents are this checkout's tests/data fixtures, for both trees:
`monoid-analyze` on m_even.json, each `connection` subcommand on
n2_sigma_pair_connection.json (with sigma_pair.json where it reads one),
and `connection shear` on a truncated copy of rank2_connection.json
(malformed JSON), on one without "rank", and on a copy of
n2_sigma_pair_connection.json with a t^(0,1) term in its first matrix (not
integrable: exit 4 once the engine has loaded); `selftest`, which reads no
document, is left out.  One untimed process per case and tree fills a
PYTHONPYCACHEPREFIX made for the run, and the trees' own bytecode is then
removed from it, so each timed process compiles the program from source and
reads the stdlib's bytecode, as perfbench cli-batch processes do.  A run's
figures are its process's CPU ms (user + system), which leaves out other
tenants' time, and its peak RSS in MB, the row "<case> rss": both are the
child's own rusage, read by `os.wait4` on it.  `ab.two_passes` runs N rounds (20 by
default; 10 could not resolve a 4-9 % change), the trees taking turns to go
first, and N more of the cases it flags; `ab.report` prints each case's
medians and IQRs, and with --compare the ratio, wins and a verdict that
both passes must make.  An exit code that differs between the trees makes
the exit status 1.  Last come each case's exit code, the
`logmonoid.*` modules it loads, from one more run under `-X importtime`,
and the source lines of the package files those are, with `__init__` and
`__main__`: what the process compiles when no bytecode is read.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import ab

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


def _warm_stdlib(trees: list[str], cases: list, pycache: str) -> None:
    """Fill pycache with the bytecode the cases import, less the trees' own."""
    for tree in trees:
        for _, argv in cases:
            subprocess.run([sys.executable, "-m", "logmonoid", *argv], env=ab.child_env(tree, pycache, write=True),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for tree in trees:
        shutil.rmtree(os.path.join(pycache, os.path.join(tree, "src").lstrip(os.sep)), ignore_errors=True)


def _round(tree: str, cases: list, pycache: str) -> dict:
    """{case: (CPU ms, "ms", exit code), case rss: (peak RSS, "MB", exit code)},
    one cold process per case, each figure from that process's own rusage."""
    out = {}
    for name, argv in cases:
        proc = subprocess.Popen([sys.executable, "-m", "logmonoid", "--format", "json", *argv],
                                env=ab.child_env(tree, pycache), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out[name] = 1000 * (usage.ru_utime + usage.ru_stime), "ms", f"exit {proc.returncode}"
        out[f"{name} rss"] = usage.ru_maxrss / 1024, "MB", f"exit {proc.returncode}"  # ru_maxrss is in KB on Linux
    return out


def _loaded(tree: str, argv: list[str], pycache: str) -> list[str]:
    """The logmonoid submodules one process imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "logmonoid", *argv],
                          env=ab.child_env(tree, pycache), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return sorted(n.split(".", 1)[1] for n in names if n.startswith("logmonoid."))


def _lines(tree: str, modules: list[str]) -> int:
    """Source lines of the package's __init__, __main__ and these modules."""
    total = 0
    for name in ("__init__", "__main__", *modules):
        with open(os.path.join(tree, "src", "logmonoid", f"{name}.py"), encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rounds", type=int, default=20, help="runs per case and tree (default 20)")
    parser.add_argument("--compare", metavar="OTHER", help="the root of a second checkout to run against this one")
    args = parser.parse_args()
    trees = [ROOT] + ([os.path.abspath(args.compare)] if args.compare else [])
    with tempfile.TemporaryDirectory() as scratch:
        pycache = os.path.join(scratch, "pycache")
        cases = _cases(scratch)
        _warm_stdlib(trees, cases, pycache)
        runs, again = ab.two_passes(trees, lambda names: lambda tree: _round(
            tree, [case for case in cases if names is None or {case[0], f"{case[0]} rss"} & set(names)], pycache),
            args.rounds)
        print(f"CPU ms and peak RSS per cold process over {args.rounds} rounds")
        for label, tree in zip(ab.LABELS, trees):
            print(f"  {label}: {tree}")
        status = ab.report(runs, again=again)
        for name, argv in cases:
            for label, tree, side in zip(ab.LABELS, trees, runs):
                modules = _loaded(tree, argv, pycache)
                print(f"{name} {label}: {side[0][name][2]}, {_lines(tree, modules)} package lines, "
                      f"loads {' '.join(modules)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
