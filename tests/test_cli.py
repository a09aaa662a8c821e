"""The command-line interface: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import selftest, shearing
from logmonoid.cli import _check_prime, main
from logmonoid.documents import parse_connection
from logmonoid.errors import CertificationFailed

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_monoid_analyze_m_even(capsys):
    code, out, _ = run(capsys, "--format", "json", "monoid-analyze", DATA / "m_even.json")
    assert code == 0
    report = json.loads(out)
    assert len(report["faces"]) == 4
    assert len(report["facets"]) == 2
    assert report["semi_saturated"] is True
    assert report["saturated"] is True
    assert report["sharp"] is True
    # ambient coordinates survive the round trip
    assert [g["ambient"] for g in report["generators"]] == [[2, 0], [1, 1], [0, 2]]


def test_monoid_analyze_nm1(capsys):
    code, out, _ = run(capsys, "--format", "json", "monoid-analyze", DATA / "nm1.json")
    assert code == 0
    report = json.loads(out)
    assert report["semi_saturated"] is True
    assert report["saturated"] is False


def test_monoid_analyze_torsion(capsys):
    code, out, _ = run(capsys, "--format", "json", "monoid-analyze", DATA / "torsion.json")
    assert code == 0
    report = json.loads(out)
    assert report["semi_saturated"] is False
    assert report["gp"]["torsion"] == [2]


def test_monoid_analyze_twenty_rays(capsys):
    """The cone over the moment-curve rays (i, i^2, 1), i < 20: 2k + 2 faces."""
    code, out, err = run(capsys, "--format", "json", "monoid-analyze", DATA / "moment_curve_20.json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert len(report["faces"]) == 42 and len(report["facets"]) == 20
    assert sorted(report["facets"]) == sorted([[i, i + 1] for i in range(19)] + [[0, 19]])
    assert report["semi_saturated"] is False  # Z^3 / <e3, (19, 361, 0)> has torsion


def test_monoid_analyze_rank4_saturation(capsys):
    for name, saturated in (("pyramid_pentagon.json", False), ("pyramid_pentagon_saturated.json", True)):
        code, out, _ = run(capsys, "--format", "json", "monoid-analyze", DATA / name)
        assert code == 0
        report = json.loads(out)
        assert report["saturated"] is saturated and report["semi_saturated"] is True
        assert len(report["faces"]) == 24 and len(report["facets"]) == 6


def test_monoid_analyze_forty_rays_in_rank_four(capsys, tmp_path):
    """The cone over the moment-curve rays (1, t, t^2, t^3), t = 1..40, in
    rank 4: its Hilbert basis is out of reach, but the saturation verdict
    stops at the first parallelepiped point outside the monoid."""
    doc = tmp_path / "moment_curve_rank4_40.json"
    doc.write_text(json.dumps({"embedded_generators": [[1, t, t * t, t ** 3] for t in range(1, 41)]}))
    code, out, err = run(capsys, "--format", "json", "monoid-analyze", doc)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["saturated"] is False and report["sharp"] is True
    assert len(report["generators"]) == 40


def test_reports_are_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "--format", "json", "connection", "shear", DATA / "rank2_connection.json"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_connection_exponents(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "exponents", DATA / "rank2_connection.json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["integrable"] is True
    assert sorted(report["exponents"]) == [["0"], ["1/2"]]


def test_connection_shear_report(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "shear", DATA / "rank2_connection.json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound_violations"] == 0
    assert report["constant_model"] == [[["0", "0"], ["0", "1/2"]]]


def test_connection_unipotent_all_faces(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "unipotent",
        DATA / "vertex_counterexample.json", "--sigma", DATA / "sigma_zero.json", "--all-faces",
    )
    assert code == 0
    report = json.loads(out)
    verdicts = {tuple(row["face"]): row["verdict"] for row in report["faces"]}
    assert verdicts[()] is False
    assert verdicts[(0,)] is True
    assert verdicts[(2,)] is True
    assert report["all_unipotent"] is False


def test_connection_unipotent_single_face(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "unipotent",
        DATA / "vertex_counterexample.json", "--sigma", DATA / "sigma_zero.json", "--face", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["faces"]) == 1


def test_connection_homotopy(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "homotopy",
        DATA / "n2_sigma_pair_connection.json", "--sigma", DATA / "sigma_pair.json",
    )
    assert code == 0
    assert json.loads(out)["residuals_zero"] is True


def test_connection_logconv(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "connection", "logconv",
        DATA / "rank2_connection.json", "--depth", "5",
    )
    assert code == 0
    assert json.loads(out)["log_convergent"] is True


def test_exit_code_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "monoid-analyze", tmp_path / "missing.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "monoid-analyze", bad)
    assert code == 2


def _terms(*points):
    return [{"m": {"free": p}, "entries": [[str(k)]]} for k, p in enumerate(points, 1)]


@pytest.mark.parametrize("field,value", [
    ("rank", 0), ("truncation", -1), ("embedding", "x"),
    ("embedding", [[1, "a"], [0, 1]]), ("embedding", [[1, 2.5], [0, 1]]),
    # a monomial listed twice for one index: in one item, in two items, in a base matrix
    ("matrices", [{"i": 0, "terms": _terms([1, 0], [0, 1], [1, 0])}, {"i": 1, "terms": []}]),
    ("matrices", [{"i": 0, "terms": _terms([0, 1])}, {"i": 1, "terms": []}, {"i": 0, "terms": _terms([0, 1])}]),
    ("base_matrices", [{"i": 0, "terms": _terms([0, 0], [0, 0])}]),
    # t^-(1,0) has h^- > 0: not a term of a disk matrix
    ("matrices", [{"i": 0, "terms": _terms([-1, 0])}, {"i": 1, "terms": []}]),
])
def test_exit_code_bad_rank_or_truncation(capsys, tmp_path, field, value):
    doc = json.loads((DATA / "n2_sigma_pair_connection.json").read_text())
    doc[field] = value
    path = tmp_path / f"bad_{field}.json"
    path.write_text(json.dumps(doc))
    for sub in ("exponents", "shear", "homotopy", "logconv", "dl", "unipotent"):
        code, out, err = run(capsys, "connection", sub, path)
        assert (code, out) == (2, ""), sub
        assert field in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["monoid", "rank", "truncation"])
def test_a_missing_connection_field_names_itself(capsys, tmp_path, field):
    """A connection document without one of its required fields exits 2
    with "connection document needs '<field>'" under every subcommand; it
    once printed Python's KeyError text ("bad connection document: 'rank'")."""
    doc = json.loads((DATA / "n2_sigma_pair_connection.json").read_text())
    del doc[field]
    path = tmp_path / f"no_{field}.json"
    path.write_text(json.dumps(doc))
    for sub in ("exponents", "shear", "homotopy", "logconv", "dl", "unipotent"):
        code, out, err = run(capsys, "connection", sub, path)
        assert (code, out) == (2, ""), sub
        assert f"connection document needs '{field}'" in err and "Traceback" not in err


def test_torsion_on_an_embedded_monoid_is_a_parse_error(capsys, tmp_path):
    """Embedded generators lie in Z^k: a "torsion" field beside them, or an
    element with a torsion part, exits 2 naming the field (the field once
    gave gp = Z and put every element with torsion outside the group)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"embedded_generators": [[1, 1]], "torsion": [2]}))
    code, out, err = run(capsys, "monoid-analyze", path)
    assert (code, out) == (2, "") and "torsion" in err and "Traceback" not in err
    doc = {"monoid": {"embedded_generators": [[1, 0], [0, 1]], "torsion": []}, "embedding": [[1, 0], [0, 1]],
           "rank": 1, "truncation": 3,
           "matrices": [{"i": 0, "terms": [{"m": {"free": [1, 0], "torsion": [1]}, "entries": [["1"]]}]}]}
    path.write_text(json.dumps(doc))
    for sub in ("exponents", "shear"):
        code, out, err = run(capsys, "connection", sub, path)
        assert (code, out) == (2, "") and "torsion" in err and "Traceback" not in err, sub
    doc["matrices"][0]["terms"][0]["m"]["torsion"] = []
    path.write_text(json.dumps(doc))
    assert run(capsys, "connection", "exponents", path)[0] == 0


def test_integer_fields_reject_what_int_would_coerce(capsys, tmp_path):
    """free [1.5] was read as t^1, "12" as (1, 2), and null failed with a
    message about NoneType: each is exit 2 naming the field."""
    doc = {"monoid": {"generators": 2, "relations": []}, "embedding": [[1, 0], [0, 1]], "rank": 1,
           "truncation": 4, "matrices": [{"i": 0, "terms": [{"m": {"free": [1, 0]}, "entries": [["1"]]}]}]}
    path = tmp_path / "doc.json"
    for free in ([1.5, 0], "12", None, [True, 0]):
        doc["matrices"][0]["terms"][0]["m"]["free"] = free
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "connection", "exponents", path)
        assert (code, out) == (2, "") and "free: expected" in err and "NoneType" not in err, free
    doc["matrices"][0]["terms"][0]["m"]["free"] = ["1", 0]
    path.write_text(json.dumps(doc))
    assert run(capsys, "connection", "exponents", path)[0] == 0


def test_exit_code_hypothesis_violation(capsys, tmp_path):
    doc = {
        "monoid": {"generators": 1, "relations": []},
        "embedding": [[1]],
        "rank": 2,
        "truncation": 6,
        "matrices": [
            {"i": 0, "terms": [
                {"m": {"free": [0]}, "entries": [["0", "0"], ["0", "1"]]},
                {"m": {"free": [1]}, "entries": [["0", "1"], ["0", "0"]]},
            ]}
        ],
    }
    path = tmp_path / "bad_exponents.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "connection", "shear", path)
    assert code == 4
    assert "NI" in err


def test_exit_code_shear_not_integrable(capsys, tmp_path):
    # d_0 A^1 - d_1 A^0 + [A^0, A^1] = -t^(0,1) N with N nilpotent, not zero
    doc = {
        "monoid": {"generators": 2, "relations": []},
        "embedding": [[1, 0], [0, 1]],
        "rank": 2,
        "truncation": 3,
        "matrices": [
            {"i": 0, "terms": [{"m": {"free": [0, 1]}, "entries": [["0", "1"], ["0", "0"]]}]},
            {"i": 1, "terms": []},
        ],
    }
    path = tmp_path / "non_integrable.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "connection", "shear", path)
    assert code == 4
    assert out == ""
    assert "not integrable" in err and "Traceback" not in err


def test_exit_code_logconv_not_integrable(capsys, tmp_path):
    # the single term t^(0,1) (1/5) E_12 in A^0 leaves d_1 A^0 in the bracket
    doc = {
        "monoid": {"generators": 2, "relations": []},
        "embedding": [[1, 0], [0, 1]],
        "rank": 2,
        "truncation": 3,
        "matrices": [{"i": 0, "terms": [{"m": {"free": [0, 1]}, "entries": [["0", "1/5"], ["0", "0"]]}]}],
    }
    path = tmp_path / "non_integrable.json"
    path.write_text(json.dumps(doc))
    for sub in ("shear", "logconv"):
        code, out, err = run(capsys, "connection", sub, path, "--depth", "2")
        assert (code, out) == (4, ""), sub
        assert "not integrable" in err and "Traceback" not in err


def test_exit_code_dl_non_constant(capsys):
    code, out, err = run(capsys, "connection", "dl", DATA / "rank2_connection.json", "--l", "4")
    assert code == 4
    assert out == ""
    assert "constant" in err and "Traceback" not in err


def test_weight_bound_is_a_parse_error():
    """The CLI has no --weight-bound option: a process given one exits 2
    with argparse's usage message and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "logmonoid", "--weight-bound", "3", "monoid-analyze", str(DATA / "nm1.json")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "usage: logmonoid" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["monoid-analyze", DATA / "m_even.json"], ["selftest"],
                                  ["connection", "shear", DATA / "rank2_connection.json"]])
def test_a_closed_stdout_ends_quietly_with_the_computed_status(argv):
    """A child whose stdout is a pipe with its read end already closed
    exits with the status it computed (0 here, a report or selftest's own)
    and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "logmonoid", *map(str, argv)], stdout=write_end,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_text_format_renders(capsys):
    code, out, _ = run(capsys, "monoid-analyze", DATA / "m_even.json")
    assert code == 0
    assert "semi_saturated: True" in out


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"[PASS] {name}" for name in selftest.CHECKS
    ]


def test_selftest_prime_7(capsys):
    code, out, _ = run(capsys, "--prime", "7", "selftest")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"[PASS] {name}" for name in selftest.CHECKS
    ]


def test_selftest_detects_corruption(capsys, monkeypatch):
    """A wrong coefficient in the rank2-N shear fixture fails the shear entry,
    and the command exits 1 with a [FAIL] line and no traceback."""
    build = selftest._shear_fixtures

    def corrupted(truncation):
        e = selftest.build_module(
            mc.free_monoid(1), [{(0,): ((0, 0), (0, Fraction(1, 2))), (1,): ((0, 2), (0, 0))}],
            2, truncation,
        )
        return [("rank2-N", e, None)] + build(truncation)[1:]

    monkeypatch.setattr(selftest, "_shear_fixtures", corrupted)
    monkeypatch.setattr(selftest, "CHECKS", {"04_shear_suite": selftest.CHECKS["04_shear_suite"]})
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert out.startswith("[FAIL] 04_shear_suite: rank2-N: unexpected first-order gauge")
    assert "Traceback" not in err


def test_selftest_reports_a_crashing_check(capsys, monkeypatch):
    def crash(prime):
        raise ValueError(f"no data at p={prime}")

    monkeypatch.setattr(selftest, "CHECKS", {"crash": crash})
    code, out, err = run(capsys, "--prime", "3", "selftest")
    assert (code, out, err) == (1, "[FAIL] crash: ValueError: no data at p=3\n", "")


DOCUMENTS = sorted(DATA.glob("*.json"))
SIGMAS = [d for d in DOCUMENTS if d.name.startswith("sigma")]


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[d.name for d in DOCUMENTS])
def test_every_fixture_exits_with_a_documented_code(capsys, doc):
    """Every subcommand on every fixture returns 0, 2 or 4; none raises."""
    argvs = [["monoid-analyze", doc]]
    for sub in ("exponents", "shear", "homotopy", "logconv", "dl", "unipotent"):
        for sigma in SIGMAS:
            argv = ["connection", sub, doc, "--sigma", sigma]
            argvs.append(argv + ["--all-faces"] if sub == "unipotent" else argv)
    failures = []
    for argv in argvs:
        try:
            code, _, err = run(capsys, "--format", "json", *argv)
        except Exception as exc:  # an exception escaping main is the failure
            failures.append((argv[:2], repr(exc)))
            continue
        if code not in (0, 2, 4) or "Traceback" in err:
            failures.append((argv[:2], code, err))
    assert not failures


def test_exit_codes_on_the_connection_path(capsys, tmp_path):
    annulus = DATA / "vertex_counterexample.json"
    code, out, err = run(capsys, "connection", "shear", annulus)
    assert (code, out) == (4, "")
    assert "disk or point" in err
    code, out, err = run(capsys, "connection", "logconv", annulus)
    assert (code, out) == (4, "")
    assert "disks" in err
    disk = DATA / "n2_sigma_pair_connection.json"
    for flag, value in (("--eta", "0"), ("--eta", "zero"), ("--radius", "zero"), ("--depth", "0"),
                        ("--depth", "-3")):
        code, out, err = run(capsys, "connection", "logconv", disk, flag, value)
        assert (code, out) == (2, "")
        assert flag in err
    # a monoid with a nonzero unit: homotopy's weight <= 4 ball needs a sharp
    # monoid, and building it ended in a ValueError traceback (exit 1)
    units = tmp_path / "units.json"
    units.write_text(json.dumps({
        "monoid": {"generators": 2, "relations": [[[2, 0], [0, 0]]]}, "embedding": [[1]], "rank": 1,
        "truncation": 3, "matrices": [{"i": 0, "terms": [{"m": {"free": [0]}, "entries": [["1/2"]]}]}]}))
    (tmp_path / "sigma.json").write_text(json.dumps({"elements": [["0"], ["1/3"]]}))
    code, out, err = run(capsys, "connection", "homotopy", units, "--sigma", tmp_path / "sigma.json")
    assert (code, out) == (4, "") and "homotopy's test keys" in err and "Traceback" not in err


def _document(name, **fields):
    doc = json.loads((DATA / name).read_text())
    doc.update(fields)
    return doc


def _matrix(terms):
    return [{"i": 0, "terms": terms}, {"i": 1, "terms": []}]


N2_DOC, EMBEDDED_DOC = "n2_sigma_pair_connection.json", "vertex_counterexample.json"
SIGMA = {"elements": [[0, 0]]}


@pytest.mark.parametrize("argv, connection, sigma, message", [
    (["monoid-analyze"], [1], None, "monoid document must be an object"),
    (["connection", "exponents"], [1], None, "connection document must be an object"),
    (["connection", "exponents"], _document(N2_DOC, monoid=[2]), None, "monoid document must be an object"),
    (["connection", "homotopy"], _document(N2_DOC), [1], "sigma document needs 'elements'"),
    (["connection", "exponents"], _document(N2_DOC, matrices=_matrix([{"m": [1, 0], "entries": [["1"]]}])), None,
     "gp element must be"),
    (["connection", "exponents"], _document(N2_DOC, embedding=[[1, 0, 0], [0, 1, 0]]), None,
     "embedding rows must have length 2"),
    (["connection", "exponents"], _document(EMBEDDED_DOC, embedding=[[1, 0, 0], [0, 1, 0]]), None,
     "embedding rows must have ambient length 2"),
    (["connection", "exponents"], _document(N2_DOC, embedding=[[1, 0], [1, 0]]), None, "bad embedding"),
    (["connection", "exponents"], _document(N2_DOC, interval_kind="ring"), None, "interval_kind must be"),
    (["connection", "exponents"], _document(N2_DOC, matrices=[{"i": 2, "terms": []}]), None,
     "matrix index 2 out of range"),
    (["connection", "exponents"], _document(N2_DOC, matrices=_matrix([{"m": {"free": [1, 0]}, "entries": [["1", "0"]]}])),
     None, "matrix entries must be rank x rank"),
    (["connection", "homotopy"], _document(N2_DOC), {"elements": [[0, 0, 0]]}, "exponent vector must have length 2"),
    (["connection", "homotopy"], _document(EMBEDDED_DOC), {"elements": [[0, 0, 0]]},
     "exponent vector must have ambient length 2"),
    (["connection", "exponents"], _document(EMBEDDED_DOC, matrices=_matrix([{"m": {"free": [2, 0, 0]}, "entries": [["1"]]}])),
     None, "element has wrong shape"),
    (["monoid-analyze"], {"generators": 10 ** 40}, None, f"generators: {10 ** 40} unit vectors of length"),
    (["connection", "exponents"], _document(N2_DOC, monoid={"generators": 10 ** 40}), None,
     f"generators: {10 ** 40} unit vectors of length"),
])
def test_malformed_documents_exit_2_naming_the_cause(capsys, tmp_path, argv, connection, sigma, message):
    """Each ParseError of the document layer, at the monoid, connection and
    sigma levels, is exit 2 with its message and no traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(connection))
    extra = []
    if sigma is not None:
        (tmp_path / "sigma.json").write_text(json.dumps(sigma))
        extra = ["--sigma", tmp_path / "sigma.json"]
    code, out, err = run(capsys, *argv, path, *extra)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


@pytest.mark.parametrize("rank", [10 ** 40, str(10 ** 40), 2 ** 32])
@pytest.mark.parametrize("sub", ["exponents", "shear", "dl"])
def test_a_rank_past_what_a_matrix_holds_is_a_parse_error(capsys, tmp_path, sub, rank):
    """A rank whose rank x rank entries exceed sys.maxsize ended in an
    OverflowError traceback (exit 1) from the residues; it is exit 2 naming
    `rank`, decided before any matrix is built."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"monoid": {"generators": 1, "relations": []}, "rank": rank, "truncation": 2}))
    code, out, err = run(capsys, "connection", sub, path)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == f"parse error: rank: a {int(rank)} x {int(rank)} matrix has more entries than a list holds ({sys.maxsize})\n"


def test_a_module_check_failing_on_a_parsed_document_is_exit_2(capsys, monkeypatch):
    """parse_connection checks every field LogNablaModule checks before it
    builds the module, so no document reaches the module's own checks; one
    that fails there is still exit 2 with its message, not a traceback."""

    def failing(*args):
        raise ValueError("connection matrices must be rank x rank")

    monkeypatch.setattr(lc, "LogNablaModule", failing)
    code, out, err = run(capsys, "connection", "exponents", DATA / N2_DOC)
    assert (code, out) == (2, "") and "rank x rank" in err and "Traceback" not in err


def test_a_failed_self_check_is_exit_3_naming_it(capsys, monkeypatch):
    """A B_m that misses the all-directions identity (a perturbed Sylvester
    solve) is a CertificationFailed: exit 3 naming the check, where it was a
    bare AssertionError escaping as a traceback with exit 1."""
    solve = shearing.sylvester_solve

    def perturbed(solver, rhs):
        bm, dm = solve(solver, rhs)
        return (bm[0] + dm, *bm[1:]), dm

    monkeypatch.setattr(shearing, "sylvester_solve", perturbed)
    code, out, err = run(capsys, "connection", "shear", DATA / "rank2_connection.json")
    assert (code, out) == (3, "") and "Traceback" not in err
    assert err.startswith("certification failed: shear all-directions identity")


def test_a_singular_sylvester_operator_past_the_ni_check_is_exit_3(capsys, monkeypatch, tmp_path):
    """Past the NI check no Sylvester operator that shear solves is
    singular.  With the check switched off, the residue diag(0, 1) (NI
    violated: exit 4 with the check on) takes the divisor 0 - 1 + 1 at m = 1
    to the solver, a fault of the program: exit 3 naming the check, not a
    violated hypothesis."""
    doc = _document("rank2_connection.json")
    doc["matrices"][0]["terms"][0]["entries"][1][1] = "1"
    path = tmp_path / "ni_violated.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "connection", "shear", path)[0] == 4
    monkeypatch.setattr(lc, "_check_ni_coordinatewise", lambda spectra: None)
    _, e = parse_connection(doc)
    with pytest.raises(CertificationFailed, match="Sylvester"):
        shearing.shear(e)
    code, out, err = run(capsys, "connection", "shear", path)
    assert (code, out) == (3, "") and "Traceback" not in err
    assert err.startswith("certification failed: Sylvester")


@pytest.mark.parametrize("elements", [5, [5], "[[0, 0]]", [[0, 0], 5]])
def test_a_malformed_sigma_is_a_parse_error(capsys, tmp_path, elements):
    """"elements" that is not a list of vectors ended in a TypeError
    traceback (exit 1); it is exit 2 naming the field."""
    (tmp_path / "sigma.json").write_text(json.dumps({"elements": elements}))
    for sub in ("unipotent", "homotopy"):
        code, out, err = run(capsys, "connection", sub, DATA / N2_DOC, "--sigma", tmp_path / "sigma.json", "--all-faces")
        assert (code, out) == (2, "") and "elements" in err and "Traceback" not in err, sub


@pytest.mark.parametrize("entry, code", [
    ("1e99999", 2), ("1E5", 2), ("2.5e-3", 2), ("-1e3/7", 2),
    ("1234567890123456789012345678901234567890/1234567890123456789012345678901234567891", 0),
])
def test_exponent_notation_is_a_parse_error(capsys, tmp_path, entry, code):
    """"1e99999" was read as a 100,000-digit integer, and rendering it broke
    int's digit limit (exit 1 with a traceback); an entry in exponent
    notation is exit 2 naming it, while 40-digit a/b entries still run."""
    doc = _document("rank2_connection.json")
    doc["matrices"][0]["terms"][0]["entries"][1][1] = entry
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "--format", "json", "connection", "exponents", path)
    assert got == code and "Traceback" not in err
    if code:
        assert out == "" and repr(entry) in err
    else:
        assert json.loads(out)["exponents"] == [["0"], [entry]]


def test_an_integer_past_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    """json reads a 5,000-digit integer with int(), past its 4,300-digit
    limit: a ValueError that is not a JSONDecodeError, once a traceback."""
    path = tmp_path / "doc.json"
    path.write_text('{"generators": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, "monoid-analyze", path)
    assert (code, out) == (2, "") and "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--prime", "4", "monoid-analyze", DATA / "nm1.json"], "--prime must be a prime number, got 4"),
    (["connection", "unipotent", DATA / N2_DOC, "--sigma", DATA / "sigma_zero.json", "--face", "99"],
     "--face must be an index into the 4 faces"),
    (["connection", "unipotent", DATA / N2_DOC, "--sigma", DATA / "sigma_zero.json"],
     "--face must be an index into the 4 faces"),
])
def test_bad_options_exit_2_naming_the_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_an_unknown_format_exits_2_from_argparse(capsys):
    """argparse's choices limit --format, so main adds no check of its own;
    main's --prime check is in test_bad_options_exit_2_naming_the_option."""
    with pytest.raises(SystemExit) as exit_:
        main(["--format", "xml", "monoid-analyze", str(DATA / "nm1.json")])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "") and "invalid choice: 'xml'" in captured.err


def test_prime_is_decided_as_trial_division_decides_it():
    for n in range(-3, 5000):
        is_prime = n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        if is_prime:
            _check_prime(n)
        else:
            with pytest.raises(ValueError, match=f"--prime must be a prime number, got {n}$"):
                _check_prime(n)


@pytest.mark.parametrize("prime, accepted", [
    (2 ** 61 - 1, True),
    (3317044064679887385961979, False),  # 17 * 1709 * ..., just below the exact range
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # strong pseudoprime to the bases 2, 3, ..., 23
])
def test_a_large_prime_is_decided_at_once(capsys, prime, accepted):
    """Miller-Rabin to the first 13 prime bases, exact below 3.3 * 10^24,
    where trial division up to sqrt(p) would not finish."""
    code, out, err = run(capsys, "--prime", prime, "monoid-analyze", DATA / "nm1.json")
    assert code == (0 if accepted else 2) and "Traceback" not in err
    if not accepted:
        assert (out, err) == ("", f"error: --prime must be a prime number, got {prime}\n")


@pytest.mark.parametrize("prime", [3317044064679887385961981, 10 ** 400])
def test_a_prime_past_the_exact_range_exits_2_naming_it(capsys, prime):
    code, out, err = run(capsys, "--prime", prime, "monoid-analyze", DATA / "nm1.json")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith("error: --prime must be below 3317044064679887385961981, where its primality is decided")


def test_monoid_analyze_a_monoid_with_units(capsys, tmp_path):
    """Z x N: the unit generators are (1, 0) and (-1, 0), and saturation is
    not decided."""
    path = tmp_path / "units.json"
    path.write_text(json.dumps({"embedded_generators": [[1, 0], [-1, 0], [0, 1]]}))
    code, out, err = run(capsys, "--format", "json", "monoid-analyze", path)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["sharp"] is False and report["saturated"] == "not-applicable (monoid has units)"
    assert [u["ambient"] for u in report["units"]] == [[1, 0], [-1, 0]]


# Run under -S in a fresh process: the logmonoid modules loaded by `import
# logmonoid`, by `import logmonoid.cli`, by each argv of the JSON list
# argv[1] run through `cli.main` after a fresh `import logmonoid.cli`, and
# last by a fresh `import logmonoid.log_connection`.
_IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("logmonoid."))
import logmonoid
print(loaded())
import logmonoid.cli
print(loaded(), sorted(m for m in ("dataclasses", "inspect", "random") if m in sys.modules))
print(logmonoid.EnumerationBudget(3))
for argv in json.loads(sys.argv[1]):
    for name in [m for m in sys.modules if m.startswith("logmonoid")]:
        del sys.modules[name]
    import logmonoid.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = logmonoid.cli.main(argv)
    print(argv[1] if argv[0] == "connection" else argv[0], code, loaded())
for name in [m for m in sys.modules if m.startswith("logmonoid")]:
    del sys.modules[name]
import logmonoid.log_connection
print(loaded())
"""


def test_cli_process_imports_only_what_it_runs(tmp_path):
    """`import logmonoid` loads no submodule, and `import logmonoid.cli`
    only `errors` and `documents`: no engine module, nor dataclasses (or the
    inspect it pulls in) nor random; the package still answers for
    `EnumerationBudget`.  Each subcommand then runs in-process on the
    fixtures from a fresh `import logmonoid.cli` and loads only the layers
    it runs: a connection document that the JSON alone rejects (malformed,
    missing rank, a bad rational, misshapen entries) exits 2 before any
    engine module loads; monoid-analyze loads neither weighted_series nor
    log_connection; exponents, shear, unipotent and logconv, and the exit-4
    paths of exponents (an irrational exponent) and shear (a connection
    that is not integrable), load neither weighted_series nor
    constant_models; homotopy loads constant_models, and dl also
    weighted_series for its constant sections.  Of the three stage modules,
    shear loads only shearing (on its exit-4 path too), unipotent only
    unipotence and logconv only log_convergence; exponents, homotopy and dl
    load none, and nor does `import logmonoid.log_connection`.  -S keeps
    site-packages .pth files out of sys.modules."""
    good = (DATA / "rank2_connection.json").read_text()
    bad_rational, bad_shape, missing_rank, irrational = (json.loads(good) for _ in range(4))
    bad_rational["matrices"][0]["terms"][0]["entries"][0][0] = "1/0"
    bad_shape["matrices"][0]["terms"][0]["entries"].append(["0", "0", "0"])
    del missing_rank["rank"]
    irrational["matrices"][0]["terms"][0]["entries"] = [["0", "2"], ["1", "0"]]
    not_integrable = json.loads((DATA / "n2_sigma_pair_connection.json").read_text())
    not_integrable["matrices"][0]["terms"] = [{"m": {"free": [0, 1]}, "entries": [["1"]]}]
    paths = {}
    for name, text in [("malformed", good[:40]), ("bad_rational", json.dumps(bad_rational)),
                       ("bad_shape", json.dumps(bad_shape)), ("missing_rank", json.dumps(missing_rank)),
                       ("irrational", json.dumps(irrational)), ("not_integrable", json.dumps(not_integrable))]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    conn, sigma = str(DATA / "n2_sigma_pair_connection.json"), ["--sigma", str(DATA / "sigma_pair.json")]
    runs = [["connection", "shear", str(paths[name])]
            for name in ("malformed", "bad_rational", "bad_shape", "missing_rank")] + [
        ["monoid-analyze", str(DATA / "nm1.json")],
        *(["connection", sub, conn, *extra] for sub, extra in [
            ("exponents", []), ("shear", []), ("unipotent", [*sigma, "--all-faces"]), ("logconv", ["--depth", "2"]),
        ]),
        ["connection", "exponents", str(paths["irrational"])],
        ["connection", "shear", str(paths["not_integrable"])],
        ["connection", "homotopy", conn, *sigma],
        ["connection", "dl", conn],
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    front = ["cli", "documents", "errors"]
    monoid = sorted(front + ["abelian", "cone", "monoid_core", "qlin", "snf"])
    engine = sorted(monoid + ["coefficient_maps", "log_connection"])
    models = sorted(engine + ["constant_models"])
    stage = {sub: sorted(engine + [module]) for sub, module in [
        ("shear", "shearing"), ("unipotent", "unipotence"), ("logconv", "log_convergence")]}
    assert proc.stdout.splitlines() == [
        "[]", f"{front} []", "EnumerationBudget(weight_bound=3, element_cap=100000)",
        *[f"shear 2 {front}"] * 4,
        f"monoid-analyze 0 {monoid}",
        f"exponents 0 {engine}", *(f"{sub} 0 {stage[sub]}" for sub in ("shear", "unipotent", "logconv")),
        f"exponents 4 {engine}", f"shear 4 {stage['shear']}",
        f"homotopy 0 {models}", f"dl 0 {sorted(models + ['weighted_series'])}",
        f"{sorted(set(engine) - {'cli', 'documents'})}",
    ]


def test_readme_quick_tour_runs():
    """The README's library quick tour, which starts with `from logmonoid
    import *`, runs as written in a fresh process."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from logmonoid import *" in tour and "facet_embedding(" in tour
    proc = subprocess.run(
        [sys.executable, "-S", "-c", tour], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_attribute_errors_name_the_attribute():
    import logmonoid

    with pytest.raises(AttributeError, match="no_such_name"):
        logmonoid.no_such_name


def test_the_package_exports_every_error_class():
    """Every LogMonoidError subclass in `errors` resolves as logmonoid.<name>
    and is bound by `from logmonoid import *`."""
    import inspect

    import logmonoid
    from logmonoid import errors

    names = {name for name, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.LogMonoidError)}
    assert {"LogMonoidError", "NotIntegrable", "NIViolated", "SDViolated"} <= names
    for name in names:
        assert getattr(logmonoid, name) is getattr(errors, name)
    star: dict = {}
    exec("from logmonoid import *", star)
    assert names <= star.keys()


@pytest.mark.parametrize("field, value, named", [
    ("matrices", 5, "matrices: expected a list"),
    ("matrices", ["x"], "matrices: expected an object with 'i'"),
    ("matrices", [{"terms": []}], "matrices: expected an object with 'i'"),
    ("matrices", [{"i": 0, "terms": 5}], "matrices: index 0: terms: expected a list"),
    ("matrices", [{"i": 0, "terms": ["x"]}], "matrices: index 0: terms: expected an object"),
    ("matrices", _matrix([{"m": {"free": [1, 0]}}]), "terms: expected an object with 'm' and 'entries'"),
    ("matrices", _matrix([{"m": {"free": [1, 0]}, "entries": 5}]), "matrices: index 0: entries"),
    ("matrices", _matrix([{"m": {"free": [1, 0]}, "entries": "1"}]), "matrices: index 0: entries"),
    ("matrices", _matrix([{"m": {"free": [1, 0]}, "entries": [5]}]), "matrices: index 0: entries"),
    ("base_matrices", 5, "base_matrices: expected a list"),
    ("base_matrices", [[0]], "base_matrices: expected an object with 'i'"),
])
def test_a_misshapen_matrix_list_names_the_field(capsys, tmp_path, field, value, named):
    """"matrices", "terms" or "entries" of the wrong shape once exited 2
    with Python's own text ("'int' object is not iterable", "string indices
    must be integers"); the message names the field."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(N2_DOC, **{field: value})))
    code, out, err = run(capsys, "connection", "exponents", path)
    assert (code, out) == (2, "") and named in err and "Traceback" not in err
    assert "not iterable" not in err and "indices must be" not in err and "object has no" not in err
