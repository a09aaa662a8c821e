"""Run `shear` over the shear fixtures and print one fingerprint line per run.

    python3 tools/shear_sweep.py > shear.txt

Run from the root of a checkout; the program is imported from ./src.  The
runs are the five `selftest._shear_fixtures` built at T = 2..40, and every
connection document of tests/data at its own truncation.  Each line holds
the fixture name, T and the sha256 of `repr(shear(e))` (the gauge and
inverse maps, constant models, bound report and bound constants), or the
type and message of the error `shear` raises, so two checkouts give the
same output iff every shear returns the same result: diff the output of a
change against that of its parent.  The inverse map is a property read
from the result, printed after the gauge map as when it was a field, so
the fingerprints are those of the earlier records.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from logmonoid import selftest  # noqa: E402
from logmonoid.documents import load_json, parse_connection  # noqa: E402
from logmonoid.errors import LogMonoidError  # noqa: E402
from logmonoid.shearing import shear  # noqa: E402

DATA = "tests/data"
TRUNCATIONS = range(2, 41)


def _fingerprint(e) -> str:
    try:
        r = shear(e)
    except LogMonoidError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    fields = dict.fromkeys(("gauge_map", "gauge_inverse_map", *r._fields))
    text = f"{type(r).__name__}({', '.join(f'{f}={getattr(r, f)!r}' for f in fields)})"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    os.chdir(ROOT)
    for t in TRUNCATIONS:
        for name, e, _ in selftest._shear_fixtures(t):
            print(name, t, _fingerprint(e))
    for name in sorted(os.listdir(DATA)):
        doc = load_json(f"{DATA}/{name}") if name.endswith(".json") else {}
        if "matrices" not in doc:
            continue
        e = parse_connection(doc)[1]
        print(f"{DATA}/{name}", e.truncation, _fingerprint(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
