"""Byte-identity of every report: `tools/cli_sweep.py` (each CLI subcommand
on every fixture, and selftest) and `tools/shear_sweep.py` (`shear` on the
selftest fixtures at T = 2..40 and on every connection document), run in
this process, print the golden files under tests/golden line for line.  A
change that alters a report on purpose updates the golden file in the same
diff and names each changed line."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("sweep", ["cli_sweep", "shear_sweep"])
def test_a_sweep_prints_its_golden_file(monkeypatch, sweep):
    monkeypatch.chdir(ROOT)
    main = runpy.run_path(str(ROOT / "tools" / f"{sweep}.py"), run_name=sweep)["main"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main() == 0
    golden = (ROOT / "tests" / "golden" / f"{sweep}.txt").read_text(encoding="utf-8")
    assert out.getvalue().splitlines() == golden.splitlines()
