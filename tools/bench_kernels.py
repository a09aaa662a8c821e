"""Microbenchmark of the exact kernels, and the A/B harness for two checkouts.

    python3 tools/bench_kernels.py [--compare OTHER] [--rows PATTERN]

The rows come from the registry FAMILIES: one entry per row family, with a
one-line description and its own generator seeded with SEED, so every run
times the same inputs.  A row calls its function in loops of doubling
length until one takes 20 ms (the first call's result is the row's
output), then times one more loop of that length between two reference
timings: its figure is CPU microseconds per call brought to the
benchmark's reference host speed by perfbench's `reference.scaled` with
the mean of the two, since a shared host's CPU speed swings with the other
tenants' load.  A plain run times every row once in this process and
prints it under its family's description.  With --compare, `ab.alternate`
runs ten rounds, the two checkouts taking turns to go first; each round
starts a fresh interpreter per checkout (`ab.child_env`: its src first on
the path, no bytecode read from the trees) that runs every row once, and
`ab.report` prints per row both medians, the ratio, wins, both IQRs and a
verdict by its rule, which ten more rounds of the rows it flags must
confirm (`ab.two_passes`).  --rows runs only the rows whose names match
PATTERN (`re.search`), so that a claim names its rows before the run; a
family names its rows before it builds their inputs, so a family with no
matching row builds nothing.  A row that raises on one tree prints n/a, and
the rest of its family does not run there.  A row whose output (the sha256 of `_text` of its result, made
after the timing) differs between the trees makes the exit status 1.
Peak RSS follows the length of the checkout's path, so its rows are
compared only when both paths have the same length.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = "bench_kernels_child"  # run_name of a --compare child, whose program comes from PYTHONPATH
if __name__ != CHILD:
    sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]

import ab  # noqa: E402
from logmonoid import cli, cone  # noqa: E402
from logmonoid import coefficient_maps as cmaps  # noqa: E402
from logmonoid import constant_models as cmod  # noqa: E402
from logmonoid import documents  # noqa: E402
from logmonoid import log_connection as lc  # noqa: E402
from logmonoid import monoid_core as mc  # noqa: E402
from logmonoid import oracle  # noqa: E402
from logmonoid import selftest  # noqa: E402
from logmonoid import snf  # noqa: E402
from logmonoid import weighted_series as ws  # noqa: E402
from logmonoid import qlin  # noqa: E402
from logmonoid.qlin import over_lcm, solve_map  # noqa: E402
from logmonoid.log_convergence import log_convergence_check  # noqa: E402
from logmonoid.shearing import ShearResult, _eigenbasis_data, shear  # noqa: E402
from logmonoid.unipotence import is_sigma_unipotent  # noqa: E402
from reference import reference_seconds, scaled  # noqa: E402

SEED = 1
MONOID_ROUND_SEED = 7
MOMENT_CURVE_RAYS = (10, 12, 16, 20, 30, 40)
SHEAR_FIXTURES = ("rank2-N2-planted", "rank2-M_even-planted")
ORACLE_SHEAR_FIXTURES = ("rank2-N", "rank1-N", "rank2-N2-planted")  # the fixtures selftest 04 checks against the oracle
SHEAR_TRUNCATIONS = (8, 12, 20, 30, 40)
FIRST_SHEAR_TRUNCATIONS = (40, 60, 80)
FIRST_SHEAR_JORDAN = (("N^2", 2, 4, 20), ("N^2", 2, 4, 30), ("N^3", 3, 2, 12))  # (monoid, its rank, n, T)
LADDER_SEEDS = (41001, 7, 123, 99)
LADDER_ROUNDS = 8
DENOMINATORS = (1, 1, 2, 3, 5, 6)
FAMILIES: dict = {}


def family(description: str):
    """Register a row family under its function's name: a generator that
    yields the list of its row names before it builds anything, then one row
    per name, in order: fn, or (fn, calls) for an fn making `calls` calls;
    fn None reads the peak RSS."""
    def register(rows):
        FAMILIES[rows.__name__] = description, rows
        return rows
    return register


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _triangular(rng: random.Random, n: int):
    """An upper triangular A0 with eigenvalues 0, 1/2, 1/3 (diagonalizable,
    no integer differences) and a right-hand side as integers over one
    denominator."""
    eigs = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
    a0 = [[eigs[i] if i == j else (_rational(rng) if j > i else Fraction(0))
           for j in range(n)] for i in range(n)]
    (rhs,), den = over_lcm([[_rational(rng) for _ in range(n * n)]])
    return a0, (rhs, den)


def _sylvester(a0, m: int = 1):
    """What shear builds for A0: the rows of its Sylvester equations in its
    eigenbasis, once per direction, and the NI divisors of m."""
    b, d = over_lcm(a0)
    eigs, p, q, nil = _eigenbasis_data((b, d), lc._residue_spectrum((b, d)))
    basis = qlin.eigenbasis_sylvester(d, p, q, nil[0], 2 * lc._nilpotency_index(nil) - 1)
    return basis, [x - y + m * d for x in eigs for y in eigs]


def _series(rng: random.Random, m, h, t: int):
    keys = m.index.weighted(h.values).upto(t)
    return ws.series(m, h, {k: _rational(rng) for k in keys}, t)


def _series_matrix_map(rng: random.Random, m, h, n: int, t: int):
    """The coefficient map of an n x n matrix of `_series` entries, drawn in
    the same order."""
    keys = m.index.weighted(h.values).upto(t)
    entries = [[_rational(rng) for k in keys] for _ in range(n * n)]
    return cmaps.coefficient_map(h, t, {k: [entry[j] for entry in entries] for j, k in enumerate(keys)})


def _module(rng: random.Random, m, n: int, t: int):
    """An integrable rank-n module over m: diag(0, 1/2, 1/3) and diag(1/3,
    1/3, 1/3) (cut to n) in the basis e (I + G), G dense up to weight t.  No
    denominator is divisible by 5, so every P_k is 5-adically integral and
    log_convergence_check runs its whole frontier."""
    diagonals = ((0, Fraction(1, 2), Fraction(1, 3))[:n], (Fraction(1, 3),) * n)
    model = [[[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)] for diag in diagonals]
    keys = m.index.weighted(ws.default_weighting(m).values).upto(t)[1:]
    gauge = {k[0]: [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
             for k in keys}
    return selftest.gauge_built_module(m, model, gauge, n, t)[0]


def _planted_jordan(rng: random.Random, m, n: int, t: int):
    """A rank-n module over m, shear's input at scale: residues P J P^-1 for
    `_jordan`'s (P, J), then P D_k P^-1 with D_k the diagonal of J over k + 2
    (constant on J's block, so they commute), in the basis e (I + G), G a
    random integer matrix at each generator of m."""
    p, j = _jordan(rng, n)
    r = lc.facet_embedding(m).r
    model = [_conjugate(p, j)] + [_conjugate(p, [[Fraction(j[i][i], k + 2) if i == c else 0 for c in range(n)]
                                                 for i in range(n)]) for k in range(r - 1)]
    gauge = {g[0]: [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for g in m.generators}
    return selftest.gauge_built_module(m, model, gauge, n, t)[0]


def _integrability_then_log_convergence(e, one, eta) -> bool:
    """What a ladder job asks of a module before and after its shear:
    integrability, then log-convergence at depth 2."""
    return lc.validate_integrability(e) and log_convergence_check(e, one, eta, 2)


def _first_shear(e):
    """shear of a fresh copy of e, with the index's plans emptied first (the
    monoid's ball is kept)."""
    e.monoid.index.weighted(e.weighting.values).plans.clear()
    return shear(e._replace())


def _jordan(rng: random.Random, n: int):
    """(P, J): J a Jordan block of size 2 first, then eigenvalues drawn from
    {0, 1/2, 1/3, 1/4}; P unipotent upper triangular."""
    eigs = [rng.choice((0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))) for _ in range(n - 1)]
    eigs.insert(0, eigs[0])
    j = [[eigs[i] if i == k else int((i, k) == (0, 1)) for k in range(n)] for i in range(n)]
    p = [[int(i == k) if k <= i else rng.randint(-2, 2) for k in range(n)] for i in range(n)]
    return p, j


def _conjugate(p, j):
    """P J P^-1 as Fraction rows, for an invertible integer P."""
    rows, den, _ = solve_map(p)
    j_rows, j_den = over_lcm(j)
    return tuple(tuple(Fraction(x, den * j_den) for x in row) for row in snf.mat_mul(snf.mat_mul(p, j_rows), rows))


def _unipotence_module(rng: random.Random, m, t: int):
    """A constant rank-3 module over m (one residue per embedding row) with
    commuting residues P J P^-1: J = [[1/2, 1, 0], [0, 1/2, 0], [0, 0, 0]],
    diag(1/3, 1/3, 1/4) and diag(0, 0, 1/2); P unipotent.  Returns it with
    Sigma, its own exponent set, and the faces of m."""
    h = Fraction(1, 2)
    cores = ([[h, 1, 0], [0, h, 0], [0, 0, 0]], [[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 4)]],
             [[0, 0, 0], [0, 0, 0], [0, 0, h]])
    p = [[int(i == k) if k <= i else rng.randint(-2, 2) for k in range(3)] for i in range(3)]
    emb = lc.facet_embedding(m)
    model = [_conjugate(p, c) for c in cores[: emb.r]]
    e = cmod.apply_ui(emb, ws.default_weighting(m), model, t)
    return e, lc.exponents(e).exponent_set(m), mc.faces(m)


def _dl_module(rng: random.Random, m, n: int):
    """A constant rank-n module over m = N or N^2 at truncation 4: residue
    P J P^-1 for `_jordan`'s (P, J), and over N^2 also P D P^-1, D half the
    diagonal of J (it commutes with J, and no two eigenvalues of either
    residue differ by a nonzero integer)."""
    p, j = _jordan(rng, n)
    d = [[Fraction(j[i][i], 2) if i == k else 0 for k in range(n)] for i in range(n)]
    emb = lc.facet_embedding(m)
    return cmod.apply_ui(emb, ws.default_weighting(m), [_conjugate(p, j), _conjugate(p, d)][: emb.r], 4)


def _dl_witnesses(e):
    """What `connection dl` computes, on a fresh copy of e: the projection
    polynomials and `dl_limit` on each basis section."""
    f = e._replace()
    m, h, t, n = f.monoid, f.weighting, f.truncation, f.rank
    return cmod.default_projection_polynomials(f), [
        cmod.dl_limit(f, tuple(ws.constant_series(m, h, int(j == c), t) for j in range(n))) for c in range(n)]


def _spectra(e):
    """The residue spectra, decomposition and eigenbasis data of a fresh copy of e."""
    f = e._replace()
    return lc.exponents(f), f.eigenbasis_data


def _unipotence_on_all_faces(e, sigma, faces):
    """Every face's verdict, on fresh copies of e and Sigma (the monoid is
    not copied, so its face projections are computed on the first call only)."""
    f, s = e._replace(), sigma._replace()
    return [is_sigma_unipotent(f, s, face) for face in faces]


def _weighting_lp(rng: random.Random, k: int):
    """support_functional's LP (lam*v >= 1 on every ray) for k rays of a
    pointed cone in Z^3: lam = lam+ - lam-, one surplus column per ray."""
    rays = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
    a = [[*v, *(-x for x in v)] + [-int(j == i) for j in range(k)] for i, v in enumerate(rays)]
    return a, [1] * k


def _embedded_document(rng: random.Random, gens, t: int) -> dict:
    """A rank-2 connection document on the monoid generated by gens, in
    ambient coordinates with the identity embedding: one random matrix per
    direction at every sum of at most t generators (each of weight 1)."""
    dim = len(gens[0])
    keys = frontier = {(0,) * dim}
    for _ in range(t):
        frontier = {tuple(a + b for a, b in zip(k, g)) for k in frontier for g in gens} - keys
        keys = keys | frontier

    def entry():
        x = _rational(rng)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return {"monoid": {"embedded_generators": gens}, "embedding": [[int(i == j) for j in range(dim)] for i in range(dim)],
            "rank": 2, "truncation": t,
            "matrices": [{"i": i, "terms": [{"m": {"free": list(k)}, "entries": [[entry(), entry()], [entry(), entry()]]}
                                            for k in sorted(keys)]} for i in range(dim)]}


def _cold_document(parse, doc: dict):
    """parse(doc) with the caches of analysed monoid sections and
    converted monomials emptied first, as in a fresh process: the Smith
    forms, the weighting, every |h| and every monomial's conversion are cold."""
    documents.clear_caches()
    return parse(doc)


def _cold(m, fn, keys):
    """fn(key) for every key, the weighted indices of m and of its sharp
    quotient emptied first, so every ball and |h| is computed afresh."""
    for index in (m.index, m.index.sharp[0].index):
        index._weighted.clear()
    return [fn(k) for k in keys]


def _cold_monoid_documents() -> list:
    """(name, document builder) for the monoid-analysis shapes of the
    benchmark: the cones over the lattice 5- and 7-gons, the cone over the
    pyramid on the 5-gon, and N^4 / (2 x_i = 2 x_j), whose gp has torsion Z/2."""
    import gen
    return [("polygon k=5", lambda: gen.polygon_cone(5, 0, 0)[0]), ("polygon k=7", lambda: gen.polygon_cone(7, 0, 0)[0]),
            ("pyramid k=5", lambda: gen.pyramid_cone(5, 0)[0]),
            ("torsion Z/2 n=4", lambda: gen.torsion_monoid(random.Random(SEED), 4, 2)[0])]


def _cold_semi_saturation(m) -> bool:
    """is_semi_saturated on a fresh copy of m that is handed m's faces, so
    the verdict and any face quotient it takes are cold."""
    fresh = mc.FineMonoid(m.gp, m.generators)
    fresh.index.faces = tuple(mc.Face(fresh, f.generator_indices) for f in mc.faces(m))
    return mc.is_semi_saturated(fresh)


def _monoid_round_smith_inputs() -> list:
    """The matrices one seeded monoid-analysis round of the benchmark hands
    `snf.smith_normal_form`, in call order.  Their number falls when the
    saturation or semi-saturation verdict takes fewer Smith forms."""
    import gen
    import workloads
    inputs = []
    smith = snf.smith_normal_form
    snf.smith_normal_form = lambda a: inputs.append(a) or smith(a)
    try:
        for job in gen.monoid_round(MONOID_ROUND_SEED, 0):
            workloads.run_monoid(job)
    finally:
        snf.smith_normal_form = smith
    return inputs


def _data_monoid(name: str):
    """The embedded monoid of tests/data/<name>.json."""
    path = os.path.join(ROOT, "tests", "data", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return mc.from_embedded(json.load(fh)["embedded_generators"])[0]


def _saturation_invariance(m) -> bool:
    """saturation_invariance_check on [p^-1, 1] at the vertex point of a
    fresh copy of m, so its weighting, saturation, balls and h+ memo are
    cold.  The vertex point has |t^g| = 1 on the units and t^g = 0 on every
    other generator."""
    fresh = mc.FineMonoid(m.gp, m.generators)
    pts = [ws.valuation_point(fresh, [0 if v == 0 else qlin.INF for v in ws.default_weighting(fresh).values])]
    return ws.saturation_invariance_check(fresh, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)


def _cold_weighted(m, values) -> tuple:
    """(numerators, denominator) of MonoidIndex.weighted(values) on a fresh
    copy of m, so the functional is solved afresh."""
    index = mc.FineMonoid(m.gp, m.generators).index.weighted(values)
    return index.numerators, index.denominator


def _ladder_cell(jobs) -> list:
    """perfbench's `workloads.run_connection` of each job, the document
    caches emptied first; each result without its context."""
    import workloads
    documents.clear_caches()
    return [workloads.run_connection(job)[1:] for job in jobs]


def _text(out) -> str:
    """repr(out), with each shear result in it, at any depth of lists and
    tuples, printed with B^-1 after B as when B^-1 was a field.  A result's
    B^-1 is computed here, after its row is timed, if it is not yet."""
    if type(out) in (list, tuple):
        inner = ", ".join(map(_text, out)) + ("," if type(out) is tuple and len(out) == 1 else "")
        return f"[{inner}]" if type(out) is list else f"({inner})"
    if isinstance(out, ShearResult):
        fields = dict.fromkeys(("gauge_map", "gauge_inverse_map", *out._fields))
        return f"{type(out).__name__}({', '.join(f'{f}={getattr(out, f)!r}' for f in fields)})"
    return repr(out)


@family("the shear's Sylvester solver build and per-key solve, for triangular A0 and for P J P^-1 with a Jordan block")
def sylvester_rows(rng):
    cases = ((1, "diagonal"), (2, "diagonal"), (3, "diagonal"), (2, "jordan"), (3, "jordan"))
    yield [f"sylvester {part} {kind} n={n}" for n, kind in cases for part in ("solver", "solve")]
    for n, kind in cases:
        if kind == "diagonal":
            a0, rhs = _triangular(rng, n)
        else:
            a0, rhs = _conjugate(*_jordan(rng, n)), ([rng.randint(-9, 9) for _ in range(n * n)], 1)
        basis, divisors = _sylvester(a0)
        solver = qlin.sylvester_solver(basis, divisors)
        yield lambda: qlin.sylvester_solver(basis, divisors)
        yield lambda: cmaps._reduced(*qlin.sylvester_solve(solver, rhs))


@family("series_mul and gauss_norm (radius p^-1/2) of dense disk series over N^2, T = 3..6")
def series_rows(rng):
    truncations = (3, 4, 5, 6)
    yield [f"{kernel} N^2 disk T={t}" for t in truncations for kernel in ("series_mul", "gauss_norm")]
    n2 = mc.free_monoid(2)
    h, half = ws.default_weighting(n2), cmaps.Radius.p_power(Fraction(1, 2))
    for t in truncations:
        f, g = _series(rng, n2, h, t), _series(rng, n2, h, t)
        yield lambda: ws.series_mul(f, g)
        yield lambda: ws.gauss_norm(f, half)


@family("cone.simplex_feasible on the default weighting's LP of k integer rays in Z^3 (2*3 + k columns)")
def simplex_rows(rng):
    rays = (4, 6, 9)
    yield [f"simplex_feasible rays={k}" for k in rays]
    for k in rays:
        a, b = _weighting_lp(rng, k)
        yield lambda: cone.simplex_feasible(a, b)


@family("the pair plan of n x n maps of disk series over N^2: its build, and _map_mul with the index's plan kept")
def plan_rows(rng):
    cases = [(n, t) for n in (2, 3) for t in (4, 6)]
    yield [f"plan {part} n={n} N^2 T={t}" for n, t in cases for part in ("build", "product")]
    n2 = mc.free_monoid(2)
    h = ws.default_weighting(n2)
    index = n2.index.weighted(h.values)
    for n, t in cases:
        (a, _), (b, _) = (_series_matrix_map(rng, n2, h, n, t) for _ in range(2))
        supports = tuple(k for k, _ in a), tuple(k for k, _ in b)
        yield lambda: cmaps.PairPlan(index, t, n, *supports).entries
        yield lambda: cmaps._map_mul(n2, h, t, a, b, n)


@family("validate_integrability and log_convergence_check (eta p^-1/2) on fresh copies of integrable modules over N^2")
def connection_rows(rng):
    cases = [(n, t) for n in (1, 2, 3) for t in (4, 6)]
    yield [name for n, t in cases for name in (
        [f"validate_integrability n={n} N^2 T={t}"] * (n > 1)
        + [f"log_convergence_check depth={depth} n={n} N^2 T={t}" for depth in (2, 4)]
        + [f"integrability + log_convergence_check depth=2 n=2 N^2 T={t}"] * (n == 2))]
    n2 = mc.free_monoid(2)
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(Fraction(1, 2))
    for n, t in cases:
        e = _module(rng, n2, n, t)
        if n > 1:
            yield lambda: lc.validate_integrability(e._replace())
        for depth in (2, 4):
            yield lambda: log_convergence_check(e._replace(), one, eta, depth)
        if n == 2:
            yield lambda: _integrability_then_log_convergence(e._replace(), one, eta)


@family("qlin.integer_roots of int_charpoly of the integer rows of P J P^-1 (what _residue_spectrum runs)")
def charpoly_rows(rng):
    ranks = (2, 3, 4)
    yield [f"int_charpoly + integer_roots n={n}" for n in ranks]
    for n in ranks:
        b, _ = over_lcm(_conjugate(*_jordan(rng, n)))
        yield lambda: qlin.integer_roots(qlin.int_charpoly(b))


@family("exponents and eigenbasis data of fresh copies of integrable rank-n modules over N^2")
def spectra_rows(rng):
    ranks = (2, 3)
    yield [f"module spectra n={n} N^2 T=4" for n in ranks]
    for n in ranks:
        e = _module(rng, mc.free_monoid(2), n, 4)
        yield lambda: _spectra(e)


@family("is_sigma_unipotent on every face of a constant rank-3 module with a Jordan block, fresh module and Sigma")
def unipotence_rows(rng):
    monoids = (("M_even", selftest._m_even), ("N^3", lambda: mc.free_monoid(3)))
    yield [f"is_sigma_unipotent all faces {name} T=4" for name, _ in monoids]
    for _, monoid in monoids:
        e, sigma, faces = _unipotence_module(rng, monoid(), 4)
        yield lambda: _unipotence_on_all_faces(e, sigma, faces)


@family("shear of selftest fixtures, run again on the same module (integrability, residues and plans warm)")
def shear_rows(rng):
    yield [f"shear {name} T={t}" for t in SHEAR_TRUNCATIONS for name in SHEAR_FIXTURES]
    for t in SHEAR_TRUNCATIONS:
        for name, e, _ in selftest._shear_fixtures(t):
            if name in SHEAR_FIXTURES:
                yield lambda: shear(e)


@family("shear of a fresh rank2-N2-planted with the index's plans emptied, then the process's peak RSS; "
        "then of fresh planted Jordan modules (`_planted_jordan`)")
def first_shear_rows(rng):
    yield [name for t in FIRST_SHEAR_TRUNCATIONS
           for name in (f"first shear rank2-N2-planted T={t}", f"peak RSS after the first shear T={t}")] + [
        f"first shear Jordan {name} n={n} T={t}" for name, _, n, t in FIRST_SHEAR_JORDAN]
    for t in FIRST_SHEAR_TRUNCATIONS:
        e = next(e for name, e, _ in selftest._shear_fixtures(t) if name == "rank2-N2-planted")
        yield lambda: _first_shear(e)
        yield None
    for _, rank, n, t in FIRST_SHEAR_JORDAN:
        e = _planted_jordan(rng, mc.free_monoid(rank), n, t)
        yield lambda: _first_shear(e)


@family("documents.parse_connection of rank-2 embedded documents, caches emptied (cold) or kept (warm)")
def parse_connection_rows(rng):
    cases = [(name, gens, t) for name, gens in (("N^2", [[1, 0], [0, 1]]), ("N^3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                                ("M_even", [[2, 0], [1, 1], [0, 2]])) for t in (4, 8, 12)]
    yield [f"parse_connection {name} T={t}{warm}" for name, _, t in cases for warm in ("", " warm")]
    for _, gens, t in cases:
        doc = _embedded_document(rng, gens, t)
        yield lambda: _cold_document(documents.parse_connection, doc)[1]
        yield lambda: documents.parse_connection(doc)[1]


@family("h and membership (keys and keys minus a generator) on the cone over the unit square, indices emptied")
def pyramid_rows(rng):
    weights = (4, 8)
    yield [f"cold {kernel} pyramid W={w}" for w in weights for kernel in ("h", "membership")]
    pyramid, _ = mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    h = ws.default_weighting(pyramid)
    for w in weights:
        keys = pyramid.index.weighted(h.values).upto(w)
        shifted = keys + [pyramid.gp.sub(k, pyramid.generators[0]) for k in keys]
        yield lambda: _cold(pyramid, lambda k: ws.h_plus(pyramid, h, k), keys)
        yield lambda: _cold(pyramid, lambda k: mc.membership(pyramid, k), shifted)


@family("documents.parse_monoid of perfbench's monoid-analysis shapes, caches emptied")
def parse_monoid_rows(rng):
    shapes = _cold_monoid_documents()
    yield [f"cold parse_monoid {name}" for name, _ in shapes]
    for _, make in shapes:
        doc = make()
        yield lambda: _cold_document(documents.parse_monoid, doc)[:3]


@family("is_semi_saturated on fresh copies of those shapes and of moment_curve_20, given their faces")
def semi_saturation_rows(rng):
    shapes = _cold_monoid_documents() + [("moment_curve_20", None)]
    yield [f"cold semi-saturation {name}" for name, _ in shapes]
    for _, make in shapes:
        m = documents.parse_monoid(make()).monoid if make else _data_monoid("moment_curve_20")
        yield lambda: _cold_semi_saturation(m)


@family("snf.smith_normal_form per input, over the inputs one seeded monoid-analysis round hands it")
def smith_rows(rng):
    yield ["smith_normal_form monoid round"]
    inputs = _monoid_round_smith_inputs()
    yield lambda: [snf.smith_normal_form(a) for a in inputs], len(inputs)


@family("is_saturated_bounded on fresh rank-4 moment-curve cones over (1, t, t^2, t^3), t = 1..k")
def saturation_rows(rng):
    yield [f"is_saturated_bounded rank-4 curve k={k}" for k in MOMENT_CURVE_RAYS]
    for k in MOMENT_CURVE_RAYS:
        curve, _ = mc.from_embedded([[1, t, t * t, t ** 3] for t in range(1, k + 1)])
        yield lambda: mc.is_saturated_bounded(mc.FineMonoid(curve.gp, curve.generators))


@family("monoid_core.section of the five selftest surjections per call (their indices warm after the first)")
def section_rows(rng):
    yield ["section 5 selftest surjections"]
    surjections = selftest._surjections()
    yield lambda: [mc.section(f) for f in surjections]


@family("saturation_invariance_check at the vertex point of fresh <2, 3> and pyramid_pentagon monoids")
def saturation_invariance_rows(rng):
    monoids = (("N\\{1}", selftest._nm1), ("pyramid_pentagon", lambda: _data_monoid("pyramid_pentagon")))
    yield [f"saturation_invariance_check {name}" for name, _ in monoids]
    for _, monoid in monoids:
        m = monoid()
        yield lambda: _saturation_invariance(m)


@family("the functional solves: selftest's 09 check at p = 5 (60 point functionals), the oracle's shear "
        "solve at order 3 on the first three selftest shear fixtures (T = 12), and a cold MonoidIndex.weighted")
def functional_rows(rng):
    import gen
    shapes = (("units_cone c=2", lambda: gen.units_cone(2)[0]),
              ("torsion Z/2 n=4", lambda: gen.torsion_monoid(random.Random(SEED), 4, 2)[0]))
    yield (["saturation_invariance_check selftest 09 p=5"]
           + [f"brute_shear_order {name} k=3" for name in ORACLE_SHEAR_FIXTURES]
           + [f"cold weighted {name}" for name, _ in shapes])
    yield lambda: selftest.CHECKS["09_saturation_invariance"](5)
    fixtures = {name: e for name, e, _ in selftest._shear_fixtures(12)}
    for name in ORACLE_SHEAR_FIXTURES:
        e = fixtures[name]
        yield lambda: oracle.brute_shear_order(e, 3)
    for _, doc in shapes:
        m = documents.parse_monoid(doc()).monoid
        values = mc.default_weighting(m)
        yield lambda: _cold_weighted(m, values)


@family("dl_limit on the basis sections of fresh constant modules over N and N^2, and dl_constant_term of disk series")
def dl_rows(rng):
    cases, truncations = [(name, n) for name in ("N", "N^2") for n in (2, 3, 4)], (4, 8)
    yield ([f"dl_limit basis sections n={n} {name} T=4" for name, n in cases]
           + [f"dl_constant_term N^2 disk T={t} l={t}" for t in truncations])
    n2 = mc.free_monoid(2)
    monoids = {"N": mc.free_monoid(1), "N^2": n2}
    for name, n in cases:
        e = _dl_module(rng, monoids[name], n)
        yield lambda: _dl_witnesses(e)
    emb, h = lc.facet_embedding(n2), ws.default_weighting(n2)
    for t in truncations:
        f = _series(rng, n2, h, t)
        yield lambda: cmod.dl_constant_term(f, t, emb)


@family("the homotopy identity: selftest's 07_homotopy check at p = 5, and `connection homotopy` in-process "
        "(documents cached after the first call)")
def homotopy_rows(rng):
    fixtures = (("n2_sigma_pair", "sigma_pair"), ("plane_m_even", "sigma_plane"))
    yield ["homotopy selftest 07_homotopy p=5"] + [f"connection homotopy {doc} + {sigma}" for doc, sigma in fixtures]
    yield lambda: selftest.CHECKS["07_homotopy"](5)
    data = os.path.join(ROOT, "tests", "data")
    for doc, sigma in fixtures:
        args = cli.build_parser().parse_args(["connection", "homotopy", os.path.join(data, f"{doc}_connection.json"),
                                              "--sigma", os.path.join(data, f"{sigma}.json")])
        yield lambda: cli.cmd_connection(args)


@family("per job, perfbench's connection-ladder jobs of one cell over seeds 41001, 7, 123, 99 and rounds 0-7")
def ladder_rows(rng):
    import gen
    # gen.connection_round's cell names, in the order its jobs first meet them
    cells = list(dict.fromkeys(f"{monoid}/r{n}/T{t}" for monoid, n, t, _ in gen.CONNECTION_CELLS))
    yield [f"ladder {cell}" for cell in cells]
    jobs: dict[str, list] = {cell: [] for cell in cells}
    for seed in LADDER_SEEDS:
        for r in range(LADDER_ROUNDS):
            for job in gen.connection_round(seed, r):
                jobs[job["cell"]].append(job)
    for cell in cells:
        yield lambda: _ladder_cell(jobs[cell]), len(jobs[cell])


def _time(fn) -> tuple[float, object]:
    """(host-scaled CPU microseconds per call of fn(), its result): loops of
    doubling length from one call until one takes 20 ms, then one sample of
    that many calls between two reference timings."""
    t0 = time.process_time()
    out, loops = fn(), 1
    while time.process_time() - t0 < 0.02:
        loops *= 2
        t0 = time.process_time()
        for _ in range(loops):
            fn()
    ref = reference_seconds()
    t0 = time.process_time()
    for _ in range(loops):
        fn()
    cpu = time.process_time() - t0
    return scaled(cpu / loops, (ref + reference_seconds()) / 2, 1.0) * 1e6, out


def _rows(families, pattern: str = ""):
    """(row, (value, unit, output)) for each row of the named families that matches
    pattern, in order; (None, "", error) for a row that raises, which ends its family.
    A family none of whose row names match builds nothing."""
    for key in families:
        name = key  # a family that raises between its rows is reported under its own name
        try:
            rows = FAMILIES[key][1](random.Random(SEED))
            names = next(rows)
            if not any(re.search(pattern, n) for n in names):
                continue
            for name, row in zip(names, rows, strict=True):
                if not re.search(pattern, name):
                    continue
                fn, *calls = row if isinstance(row, tuple) else (row,)
                if fn is None:
                    yield name, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
                else:
                    us, out = _time(fn)
                    yield name, (us / (calls[0] if calls else 1), "us", hashlib.sha256(_text(out).encode()).hexdigest())
                name = key
        except Exception as exc:
            yield name, (None, "", f"raised {type(exc).__name__}: {exc}")


def _child(tree: str, families, pycache: str, pattern: str = "") -> dict:
    """The rows of families that match pattern, run once in a fresh interpreter on tree's program."""
    boot = f"import runpy; runpy.run_path({__file__!r}, run_name={CHILD!r})"
    proc = subprocess.run([sys.executable, "-c", boot, pattern, *families], env=ab.child_env(tree, pycache),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return {name: tuple(row) for name, row in map(json.loads, proc.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", metavar="OTHER", help="the root of a second checkout to run against this one")
    parser.add_argument("--rows", metavar="PATTERN", default="", help="run only the rows whose names match PATTERN")
    args = parser.parse_args(argv)
    if not args.compare:
        for key, (description, _) in FAMILIES.items():
            print(f"# {description}")
            for name, (value, unit, out) in _rows([key], args.rows):
                print(f"{name:50s} {value:10.1f} {unit}" if value is not None else f"{name:50s} n/a: {out}", flush=True)
        return 0
    trees = [ROOT, os.path.abspath(args.compare)]
    with tempfile.TemporaryDirectory() as pycache:
        runs, again = ab.two_passes(trees, lambda names: lambda tree: _child(
            tree, list(FAMILIES), pycache, args.rows if names is None else f"^({'|'.join(map(re.escape, names))})$"))
    for label, tree in zip(ab.LABELS, trees):
        print(f"{label}: {tree}")
    lengths = [len(tree) for tree in trees]
    why = f"the checkouts' paths have lengths {lengths[0]} and {lengths[1]}, and peak RSS follows that length"
    return ab.report(runs, {"MB": why} if lengths[0] != lengths[1] else None, again)


if __name__ == "__main__":
    sys.exit(main())
if __name__ == CHILD:
    for row in _rows(sys.argv[2:], sys.argv[1]):
        print(json.dumps(row), flush=True)
