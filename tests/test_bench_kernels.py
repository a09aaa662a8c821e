"""`tools/bench_kernels.py`, the A/B harness: the rule `tools/ab.py` reads
paired samples by, on synthetic samples, and one cheap row family run in
fresh child interpreters on this checkout against itself."""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OTHER = [100.0 + i for i in range(10)]  # median 104.5, IQR 5.5


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    return runpy.run_path(str(ROOT / "tools" / "bench_kernels.py"), run_name="bench_kernels")


def _runs(this, other, unit="us", outputs=("x", "x")):
    return [[{"row": (value, unit, out)} for value in side] for side, out in zip((this, other), outputs)]


@pytest.mark.parametrize("this, call", [
    ([x - 20 for x in OTHER[:9]] + [200.0], "faster"),
    ([x - 20 for x in OTHER[:8]] + [200.0, 201.0], "within noise"),
    ([x + 20 for x in OTHER[:9]] + [0.0], "slower"),
    (OTHER, "within noise"),
    ([x - 1 for x in OTHER], "within noise"),
], ids=["9 of 10 beyond the IQR", "8 of 10", "9 of 10 slower", "ties", "10 of 10 within the IQR"])
def test_a_row_is_faster_or_slower_only_with_nine_of_ten_pairs_and_a_gap_past_the_iqr(bench, this, call):
    assert bench["ab"].verdict(this, OTHER) == call


def test_the_report_prints_na_and_fails_on_differing_outputs(bench, capsys):
    report = bench["ab"].report
    assert report(_runs(OTHER, OTHER)) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("within noise")
    raised = _runs(OTHER, OTHER)
    raised[1] = [{"row": (None, "", "raised KeyError: 3")}] * 10
    assert report(raised) == 0
    assert "n/a: other raised KeyError: 3" in capsys.readouterr().out
    assert report(_runs(OTHER, OTHER, outputs=("x", "y"))) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("OUTPUT DIFFERS")
    assert report(_runs(OTHER, OTHER, unit="MB"), {"MB": "paths differ"}) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("not comparable: paths differ")


def test_a_call_stands_only_when_a_second_pass_over_the_flagged_rows_agrees(bench, capsys):
    """Rows called faster by a first pass run again, alone: "fast" is faster
    in both passes and is called, "fluke" only in the first and is not."""
    ab, first = bench["ab"], [x - 20 for x in OTHER]
    samples = {"this": {"fast": first * 2, "fluke": first + OTHER, "even": list(OTHER)},
               "other": {name: OTHER * 2 for name in ("fast", "fluke", "even")}}
    asked = []

    def run(names):
        asked.append(names)
        return lambda tree: {name: (xs.pop(0), "us", "x") for name, xs in samples[tree].items()
                             if names is None or name in names}

    runs, again = ab.two_passes(["this", "other"], run)
    assert asked == [None, ["fast", "fluke"]]
    assert ab.report(runs, again=again) == 0
    assert [line.rsplit("  ", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]] == [
        "faster, confirmed", "within noise (faster, then within noise)", "within noise"]
    assert ab.two_passes(["this", "other"], lambda names: lambda tree: {"even": (100.0, "us", "x")})[1] is None


def test_a_row_family_run_in_child_interpreters_agrees_with_itself(bench, tmp_path, capsys):
    ab, child = bench["ab"], bench["_child"]
    runs = ab.alternate([str(ROOT)] * 2, lambda tree: child(tree, ["charpoly_rows"], str(tmp_path)), rounds=1)
    assert list(runs[0][0]) == [f"int_charpoly + integer_roots n={n}" for n in (2, 3, 4)]
    assert ab.report(runs) == 0
    assert "OUTPUT DIFFERS" not in capsys.readouterr().out


def test_a_family_with_no_matching_row_builds_nothing(bench):
    """Each family names its rows before it calls into the engine or the
    benchmark's generators, so --rows skips a family none of whose row names
    match having built nothing; a family's names and rows agree in number."""
    roots = (str(ROOT / "src" / "logmonoid"), str(ROOT / "perfbench"))
    calls = []
    importlib.import_module("gen")  # what perfbench's generator module builds on import is not a family's

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name != "<module>" and code.co_filename.startswith(roots):
            calls.append(code.co_name)

    for key, (_, family) in bench["FAMILIES"].items():
        rows = family(bench["random"].Random(bench["SEED"]))
        sys.setprofile(profile)
        try:
            names = next(rows)
        finally:
            sys.setprofile(None)
        assert names and calls == [], (key, calls)
        rows.close()
    assert list(bench["_rows"](list(bench["FAMILIES"]), "^no such row$")) == []
    names = [name for name, _ in bench["_rows"](["charpoly_rows"], "n=3")]
    assert names == ["int_charpoly + integer_roots n=3"]
