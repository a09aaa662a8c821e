"""Run the CLI over every test fixture and print one fingerprint line per run.

    python3 tools/cli_sweep.py > sweep.txt

Run from the root of a checkout; the program is imported from ./src and
`logmonoid.cli.main` runs in this process.  The runs are every `connection`
subcommand on every connection document of tests/data, once with each
exponent-set document as `--sigma` (and `--all-faces`), in `--format json`
and `text`; `monoid-analyze` on every monoid document in both formats;
`logconv` on every connection document with `--radius 1/2 --eta 0.25`; and
`selftest` at p = 2, 3, 5, 7, 11.  Each line holds the argv, the exit code
and the sha256 of stdout and of stderr, so two checkouts give the same
output iff every run prints the same bytes and exits the same way: diff the
output of a change against that of its parent.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from logmonoid.cli import main as cli_main  # noqa: E402

DATA = "tests/data"
SUBCOMMANDS = ("exponents", "shear", "unipotent", "dl", "homotopy", "logconv")
FORMATS = ("json", "text")
PRIMES = (2, 3, 5, 7, 11)


def _fixtures() -> tuple[list[str], list[str], list[str]]:
    """The connection, exponent-set and monoid documents, by name."""
    connections, sigmas, monoids = [], [], []
    for name in sorted(os.listdir(os.path.join(ROOT, DATA))):
        if not name.endswith(".json"):
            continue
        path = f"{DATA}/{name}"
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            doc = json.load(fh)
        if "matrices" in doc:
            connections.append(path)
        elif "elements" in doc:
            sigmas.append(path)
        else:
            monoids.append(path)
    return connections, sigmas, monoids


def _argvs() -> list[list[str]]:
    connections, sigmas, monoids = _fixtures()
    out = []
    for fmt in FORMATS:
        for doc in connections:
            for sub in SUBCOMMANDS:
                for sigma in sigmas:
                    out.append(["--format", fmt, "connection", sub, doc, "--sigma", sigma, "--all-faces"])
        for doc in monoids:
            out.append(["--format", fmt, "monoid-analyze", doc])
    out += [["--format", "json", "connection", "logconv", doc, "--radius", "1/2", "--eta", "0.25"]
            for doc in connections]
    out += [["--prime", str(p), "selftest"] for p in PRIMES]
    return out


def _run(argv: list[str]) -> tuple[object, bytes, bytes]:
    """(exit code, stdout, stderr) of one in-process CLI run; an exception
    escaping main is reported as its type in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the sweep reports it
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> int:
    os.chdir(ROOT)
    for argv in _argvs():
        code, out, err = _run(argv)
        print(" ".join(argv), code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
