"""What one job of each workload runs, and how its result is checked.

`run_*` is the timed part and calls only the public API (or, for
cli-batch, one `python -m logmonoid` process).  `check_*` runs after the
timer stops and returns (failure cause or None, wrong answer?).  A wrong
answer is a completed job whose output disagrees with the planted one;
every other failure (an exception, an unexpected exit code, a traceback)
is counted under its cause but is not a wrong answer.  `oracle_monoid`
re-checks the first round of monoid-analysis against `logmonoid.oracle`
once the run is over.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import gen

from logmonoid import documents, log_connection as lc, monoid_core as mc, oracle
from logmonoid import weighted_series as ws
from logmonoid.errors import BudgetExceeded

LOGCONV_DEPTH = 2
SATURATION_BOUND = 3


# ---------------------------------------------------------------------------
# connection-ladder
# ---------------------------------------------------------------------------

def run_connection(job):
    ctx, e = documents.parse_connection(job["doc"])
    integrable = lc.validate_integrability(e)
    decomposition = lc.exponents(e)
    sheared = lc.shear(e)
    sigma = documents.parse_sigma(ctx, job["sigma"])
    verdicts = [
        (sorted(f.generator_indices), lc.is_sigma_unipotent(e, sigma, f).verdict)
        for f in mc.faces(ctx.monoid)
    ]
    logconv = lc.log_convergence_check(
        e, ws.Radius.p_power(1), ws.Radius.p_power(F(1, 2)), LOGCONV_DEPTH
    )
    return ctx, integrable, decomposition, sheared, verdicts, logconv


def _qmatrix(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def check_connection(job, result):
    ctx, integrable, decomposition, sheared, verdicts, logconv = result
    expect = job["expect"]
    if not integrable:
        return "not-integrable", True
    if tuple(sheared.constant_model) != tuple(_qmatrix(a) for a in expect["constant_model"]):
        return "constant-model", True
    planted = {}
    for key, mat in expect["gauge_inverse"]:
        elt = ctx.parse_element({"free": key})
        planted[elt] = _qmatrix(mat)
    n = len(sheared.gauge)
    got = {}
    for i in range(n):
        for j in range(n):
            for key, c in sheared.gauge[i][j].terms:
                got.setdefault(key, [[F(0)] * n for _ in range(n)])[i][j] = c
    got = {k: tuple(tuple(row) for row in mat) for k, mat in got.items()}
    if got != planted:
        return "gauge", True
    if not all(r.ok for r in sheared.bound_report):
        return "bound-report", True
    planted_exps = {ctx.parse_exponent_vector(v) for v in expect["exponents"]}
    if set(decomposition.exponents) != planted_exps:
        return "exponents", True
    if len(verdicts) != expect["face_count"]:
        return "face-count", True
    exps_amb = [[F(x) for x in v] for v in expect["exponents"]]
    sigma_amb = [[F(x) for x in v] for v in expect["sigma"]]
    for face, verdict in verdicts:
        if verdict != gen.unipotence_expected(expect["gens"], face, exps_amb, sigma_amb):
            return "unipotence", True
    if not isinstance(logconv, bool):
        return "logconv", True
    return None, False


# ---------------------------------------------------------------------------
# monoid-analysis
# ---------------------------------------------------------------------------

def _combine(m, coeffs):
    g = m.gp.zero()
    for c, x in zip(coeffs, m.generators):
        g = m.gp.add(g, m.gp.scale(c, x))
    return g


def run_monoid(job):
    ctx = documents.parse_monoid(job["doc"])
    m = ctx.monoid
    faces = mc.faces(m)
    facets = mc.facets(m)
    units = mc.units(m)
    weights = mc.default_weighting(m)
    semi = mc.is_semi_saturated(m)
    saturated = mc.is_saturated_bounded(m, SATURATION_BOUND) if mc.is_sharp(m) else None
    q = job["queries"]
    member = [mc.membership(m, _combine(m, c)) for c in q["membership"]]
    divides = [mc.divides(m, _combine(m, a), _combine(m, b)) for a, b in q["divides"]]
    h_plus = [ws.h_plus(m, ctx.weighting, _combine(m, c)) for c in q["h_plus"]]
    return ctx, faces, facets, units, weights, semi, saturated, member, divides, h_plus


def check_monoid(job, result):
    ctx, faces, facets, units, weights, semi, saturated, member, divides, h_plus = result
    expect = job["expect"]
    m = ctx.monoid
    got = sorted(sorted(f.generator_indices) for f in faces)
    if got != expect["faces"]:
        return "faces", True
    if expect["kind"] == "polygon" and len(faces) != 2 * expect["vertices"] + 2:
        return "face-count", True
    proper = [set(f) for f in expect["faces"] if len(f) < len(m.generators)]
    maximal = sorted(sorted(f) for f in proper if not any(f < g for g in proper))
    if sorted(sorted(f.generator_indices) for f in facets) != maximal:
        return "facets", True
    if bool(units) == expect["sharp"]:
        return "units", True
    if any(w < 0 for w in weights) or (expect["sharp"] and 0 in weights):
        return "weighting", True
    if expect["torsion"] and semi:
        return "semi-saturated", True
    if expect["torsion"] and saturated is not False:
        return "saturated", True
    return None, False


def oracle_monoid(job, result):
    """Membership, divisibility and h+ against the brute-force oracle; faces
    too on the torsion monoids N^n / (a x_i = a x_j), whose non-faces are
    caught by the relation itself, within weight a * max h(x).  Returns the
    failure cause or None; monoids with units are outside the oracle."""
    ctx, faces, _facets, _units, _weights, _semi, _sat, member, divides, h_plus = result
    if not job["expect"]["sharp"]:
        return None
    m = ctx.monoid
    weight = ctx.weighting
    q = job["queries"]
    for coeffs, fast in zip(q["membership"], member):
        g = _combine(m, coeffs)
        bound = max(1, int(weight(g)))
        if oracle.brute_membership(m, g, oracle.EnumerationBudget(bound)) != fast:
            return "oracle-membership"
    for (a, b), fast in zip(q["divides"], divides):
        diff = m.gp.sub(_combine(m, b), _combine(m, a))
        bound = max(1, int(weight(diff)))
        if oracle.brute_membership(m, diff, oracle.EnumerationBudget(bound)) != fast:
            return "oracle-divides"
    for coeffs, fast in zip(q["h_plus"], h_plus):
        g = _combine(m, coeffs)
        try:
            slow = oracle.brute_h_plus(m, g, oracle.EnumerationBudget(fast + 1))
        except BudgetExceeded:
            return "oracle-h_plus"
        if slow != fast:
            return "oracle-h_plus"
    if job["expect"]["kind"] == "torsion":
        bound = (job["expect"]["torsion"] + 1) * max(weight.values)
        brute = oracle.brute_faces(m, oracle.EnumerationBudget(bound))
        ball = set(oracle.enumerate_monoid(m, oracle.EnumerationBudget(bound)))
        fast = {frozenset(_closure(m, f.generators(), ball)) for f in faces}
        if fast != set(brute):
            return "oracle-faces"
    return None


def _closure(m, gens, ball):
    elems = {m.gp.zero()}
    frontier = list(elems)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                c = m.gp.add(e, g)
                if c in ball and c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return elems


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def run_cli(job, workdir, spans_path=None):
    """One CLI process in workdir; traced runs start it through the bootstrap."""
    cmd = [sys.executable, "-m", "logmonoid"]
    if spans_path is not None:
        boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_boot.py")
        cmd = [sys.executable, boot, spans_path, str(job["id"])]
    proc = subprocess.run(cmd + ["--format", "json"] + job["argv"], cwd=workdir,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def check_cli(job, result):
    code, out, err = result
    if "Traceback" in err:
        return f"traceback-exit-{code}@{job['cell']}", False
    if code != job["expect_code"]:
        return f"exit-{code}-expected-{job['expect_code']}@{job['cell']}", False
    if code != 0:
        return None, False
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "unparsable-output", True
    expect = job["expect"]
    sub = job["subcommand"]
    if sub == "monoid-analyze":
        ok = sorted(report["faces"]) == expect["faces"]
    elif sub == "exponents":
        ok = report["integrable"] is True and sorted(report["exponents"]) == sorted(
            expect["exponents"]
        )
    elif sub == "shear":
        planted = {tuple(k): mat for k, mat in expect["gauge_inverse"] if any(k)}
        got = {tuple(t["m"]["free"]): t["entries"] for t in report["gauge_terms"]
               if any(t["m"]["free"])}
        ok = (report["constant_model"] == expect["constant_model"]
              and report["bound_violations"] == 0 and got == planted)
    elif sub == "unipotent":
        exps = [[F(x) for x in v] for v in expect["exponents"]]
        sigma = [[F(x) for x in v] for v in expect["sigma"]]
        ok = len(report["faces"]) == expect["face_count"] and all(
            row["verdict"] == gen.unipotence_expected(expect["gens"], row["face"], exps, sigma)
            for row in report["faces"]
        )
    elif sub == "homotopy":
        ok = report["residuals_zero"] is True
    elif sub == "logconv":
        ok = isinstance(report["log_convergent"], bool)
    else:  # dl on a constant connection
        ok = len(report["h0_witnesses"]) == len(expect["constant_model"][0])
    return (None, False) if ok else (f"wrong-{sub}", True)


# workload -> (timed run, check, oracle re-check of the first round's jobs)
RUNNERS = {
    "connection-ladder": (run_connection, check_connection, None),
    "monoid-analysis": (run_monoid, check_monoid, oracle_monoid),
    "cli-batch": (run_cli, check_cli, None),
}
