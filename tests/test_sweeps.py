"""Byte-identity of every report: `tools/cli_sweep.py` (each CLI subcommand
on every fixture, and selftest) and `tools/shear_sweep.py` (`shear` on the
selftest fixtures at T = 2..40 and on every connection document), run in
this process, print the golden files under tests/golden line for line.  A
change that alters a report on purpose updates the golden file in the same
diff and names each changed line."""

import contextlib
import hashlib
import io
import random
import runpy
from functools import lru_cache
from pathlib import Path

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import documents

ROOT = Path(__file__).resolve().parents[1]
SHUFFLE_SEED = 23


@pytest.mark.parametrize("sweep", ["cli_sweep", "shear_sweep"])
def test_a_sweep_prints_its_golden_file(monkeypatch, sweep):
    monkeypatch.chdir(ROOT)
    main = runpy.run_path(str(ROOT / "tools" / f"{sweep}.py"), run_name=sweep)["main"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main() == 0
    golden = (ROOT / "tests" / "golden" / f"{sweep}.txt").read_text(encoding="utf-8")
    assert out.getvalue().splitlines() == golden.splitlines()


def test_the_cli_sweep_prints_its_golden_lines_in_any_order_and_cache_state(monkeypatch):
    """No answer depends on the call order or on what the caches hold: the
    cli sweep's argvs run in a seeded shuffled order, with the document
    caches emptied before about 3 runs in 10, the two document LRUs rebuilt
    at size 1 and PLAN_CACHE_SIZE = 1, and each prints its golden line."""
    monkeypatch.chdir(ROOT)
    sweep = runpy.run_path(str(ROOT / "tools" / "cli_sweep.py"), run_name="cli_sweep")
    for name in ("_monoid_section", "_converted"):
        monkeypatch.setattr(documents, name, lru_cache(maxsize=1)(getattr(documents, name).__wrapped__))
    monkeypatch.setattr(cmaps, "PLAN_CACHE_SIZE", 1)
    golden = (ROOT / "tests" / "golden" / "cli_sweep.txt").read_text(encoding="utf-8").splitlines()
    argvs = sweep["_argvs"]()
    assert len(golden) == len(argvs)
    expected = {" ".join(argv): line for argv, line in zip(argvs, golden)}
    rng = random.Random(SHUFFLE_SEED)
    rng.shuffle(argvs)
    documents.clear_caches()
    for argv in argvs:
        if rng.random() < 0.3:
            documents.clear_caches()
        code, out, err = sweep["_run"](argv)
        line = " ".join(map(str, (*argv, code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest())))
        assert line == expected[" ".join(argv)]
