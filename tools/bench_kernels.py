"""Microbenchmark of the exact kernels: host-scaled microseconds per call.

    python3 tools/bench_kernels.py

Run from the root of a checkout; the program is imported from ./src.  Times
`qlin.qmat_mul` on n x n matrices for n = 1, 2, 3; the shear's Sylvester
solver of A0 X - X A0 + X = RHS (`qlin.sylvester_solver`: the NI divisors'
lcm and the series factors, built once per direction and coordinate) and
its per-key solve (`qlin.sylvester_solve`: steps + 1 integer mat-vecs on vec(X)
in A0's eigenbasis, then the gcd reduction), for an upper triangular A0
with eigenvalues 0, 1/2, 1/3 (diagonalizable, n = 1, 2, 3) and for
`_jordan_conjugate`'s P J P^-1 with a 2 x 2 Jordan block (n = 2, 3, drawn
from their own seeded generator); `weighted_series.series_mul`, `series_add` and `gauss_norm`
(radius p^-1/2) on dense disk series over N^2 truncated at T = 3..6; `cone.simplex_feasible` on the default weighting's
LP for k integer rays in Z^3 (k = 4, 6, 9: 2*3 + k columns, k rows); and,
on the coefficient maps of n x n matrices of those series for n = 2, 3 at
T = 4, 6, the build of their `coefficient_maps.PairPlan` (the symbolic
phase) and `_map_mul` with that plan kept by the index (the numeric
phase: the row and column planes and the gathers); and, on an integrable rank-n module
over N^2 truncated at T (a diagonal constant model rewritten by a gauge
I + G, G dense up to weight T) for n = 2, 3 and T = 4, 6,
`validate_integrability`, and for n = 1, 2, 3 and T = 4, 6
`log_convergence_check` at depth 2 and 4 (radius 1, eta = p^-1/2), and for
n = 2 `validate_integrability` then `log_convergence_check` at depth 2, the
pair that shares the module's compositions (d_i + A^i) A^j, each
call on a fresh copy of the module, so no cached verdict is reused (the
rank-1 modules draw from their own seeded generator, so the other rows
keep their inputs).  The spectral rows time `qlin.integer_roots` of
`qlin.int_charpoly` on the integer rows b = d A of n x n matrices
A = P J P^-1 (J in Jordan form with eigenvalues in {0, 1/2, 1/3, 1/4},
P unipotent) for n = 2, 3, 4, what `_residue_spectrum` runs;
`exponents` plus `eigenbasis_data` on fresh copies of the rank-n modules
above (n = 2, 3, T = 4); and `is_sigma_unipotent` over every face, on a
fresh copy of the module and of Sigma (its own exponent set), for a
constant rank-3 module with a Jordan block over M_even and over N^3 at
T = 4 (the monoid is not copied, so its face projections, held by its
index, are computed on the first call only).  The shear rows time a whole `shear` (both gauge recursions, the
bound records and the checks; the module's integrability and residue
analysis and the index's plans are kept after the first call) of the selftest fixtures
rank2-N2-planted and rank2-M_even-planted built at T = 8, 12, 20, 30, 40.
The first-shear rows time `shear` of rank2-N2-planted at T = 40, 60, 80 on
a fresh copy of the module with the index's plans emptied, so its
integrability, residue analysis and plans are cold (the monoid's ball is
kept); after each of them the process's peak RSS (ru_maxrss) is printed.
The document rows time `documents.parse_connection` of a rank-2 connection
document on an embedded monoid (N^2, N^3 and M_even in ambient
coordinates, identity embedding) with a matrix at every key of weight
<= T in every direction, for T = 4, 8, 12; each call empties the caches
of analysed monoid sections, embeddings and converted monomials first, so
the Smith forms, the weighting, every |h| and every monomial's conversion
are cold.  The warm rows time the same parse again with the caches kept:
the monoid, its index, the embedding and the converted monomials are
reused, and only the matrix entries are read.  The cold monoid rows time
`documents.parse_monoid` with the default weighting, the caches of
analysed monoid sections emptied first, on the monoid-analysis shapes of
the benchmark (perfbench's `gen`): the cones over the lattice 5- and
7-gons and over the pyramid on the 5-gon, and N^4 / (2 x_i = 2 x_j),
whose gp has torsion.  The cold semi-saturation rows time
`is_semi_saturated` on those four shapes and on tests/data/moment_curve_20.json,
each call on a fresh copy of the monoid given the original's face list, so
the verdict and any face quotient it takes are cold but the faces are not
enumerated again.  The
pyramid rows time h and `membership` on the cone over the unit square
(a sharp monoid in Z^3) for the keys of weight <= W (W = 4, 8), and for
membership also each key minus a generator, with the weighted indices of
the monoid and of its sharp quotient emptied before each call.  The Smith
row times `snf.smith_normal_form` per input over the inputs one seeded
monoid-analysis round of the benchmark (perfbench's `gen.monoid_round` run
through `workloads.run_monoid`) hands it, in call order; their number n,
in the row's name, falls when the saturation verdict stops earlier or the
semi-saturation verdict takes fewer Smith forms, so the per-call figure is
then taken over different inputs.  The
saturation rows time `is_saturated_bounded` on the rank-4 moment-curve
cones over (1, t, t^2, t^3), t = 1..k, for k = 10, 12, 16, 20, 30, 40,
each call on a fresh copy of the monoid (its cone, triangulation and ball
cold).  The section row times `monoid_core.section` of each of the five
selftest surjections, per round of five: the indices of their source and
target monoids are warm after the first round, while the image monoid and
the Smith forms of f^gp and of the splitting are built on every call.  The
saturation invariance rows time `saturation_invariance_check` on [p^-1, 1]
at the vertex point of N \\ {1} = <2, 3> and of the cone over the pentagon
pyramid of tests/data/pyramid_pentagon.json, each call on a fresh copy of
the monoid (its weighting, saturation, balls and h+ memo cold).  The
D_l rows time what `connection dl` computes, the module's projection
polynomials and `dl_limit` on each basis section, on a fresh copy of a
constant rank-n module (n = 2, 3, 4, truncation 4) over N (residue
P J P^-1, J a Jordan block of size 2 and eigenvalues from {0, 1/2, 1/3,
1/4}, P unipotent) and over N^2 (that residue and P D P^-1, D half the
diagonal of J), so the residue analysis is cold; and `dl_constant_term` at
l = T of a dense disk series over N^2 truncated at T = 4, 8.  They draw
from their own seeded generator, so the other rows keep their inputs.
Entries are small rationals (numerators -9..9, denominators up to
6) or small integers from a fixed seed, so every run measures the same
inputs.  Each figure is the median over REPEATS repeats of a loop of at
least 20 ms, in CPU microseconds per call, brought to the benchmark's
reference host speed by perfbench's `reference.scaled` with the mean of the
`reference_seconds` taken before and after the row (sensitivity 1): on a
shared host the CPU speed swings with the other tenants' load, and the raw
figures of two runs of one tree could differ by 1.5x.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from logmonoid import cone  # noqa: E402
from logmonoid import coefficient_maps as cmaps  # noqa: E402
from logmonoid import constant_models as cmod  # noqa: E402
from logmonoid import documents  # noqa: E402
from logmonoid import log_connection as lc  # noqa: E402
from logmonoid import monoid_core as mc  # noqa: E402
from logmonoid import selftest  # noqa: E402
from logmonoid import snf  # noqa: E402
from logmonoid import weighted_series as ws  # noqa: E402
from logmonoid import qlin  # noqa: E402
from logmonoid.qlin import inverse_over_lcm, over_lcm, qmat, qmat_mul  # noqa: E402
from reference import reference_seconds, scaled  # noqa: E402

SEED = 1
MONOID_ROUND_SEED = 7
MOMENT_CURVE_RAYS = (10, 12, 16, 20, 30, 40)
REPEATS = 7
SHEAR_FIXTURES = ("rank2-N2-planted", "rank2-M_even-planted")
SHEAR_TRUNCATIONS = (8, 12, 20, 30, 40)
FIRST_SHEAR_TRUNCATIONS = (40, 60, 80)
DENOMINATORS = (1, 1, 2, 3, 5, 6)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _matrix(rng: random.Random, n: int):
    return qmat([[_rational(rng) for _ in range(n)] for _ in range(n)])


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
    eigs, p, q, nil = lc._eigenbasis_data((b, d), lc._residue_spectrum((b, d)))
    basis = qlin.eigenbasis_sylvester(d, p, q, nil[0], lc._ad_nilpotency(nil))
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
    1/3, 1/3) (cut to n) in the basis e (I + G).  No denominator is divisible
    by 5, so every P_k is 5-adically integral and log_convergence_check runs
    its whole frontier."""
    diagonals = ((0, Fraction(1, 2), Fraction(1, 3))[:n], (Fraction(1, 3),) * n)
    model = [[[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)] for diag in diagonals]
    keys = m.index.weighted(ws.default_weighting(m).values).upto(t)[1:]
    gauge = {k[0]: [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
             for k in keys}
    return selftest.gauge_built_module(m, model, gauge, n, t)[0]


def _integrability_then_log_convergence(e, one, eta) -> bool:
    """What a ladder job asks of a module before and after its shear:
    integrability, then log-convergence at depth 2."""
    return lc.validate_integrability(e) and lc.log_convergence_check(e, one, eta, 2)


def _first_shear(e):
    """shear of a fresh copy of e, with the index's plans emptied first."""
    e.monoid.index.weighted(e.weighting.values).plans.clear()
    return lc.shear(e._replace())


def _jordan(rng: random.Random, n: int):
    """(P, J): J a Jordan block of size 2 first, then eigenvalues drawn from
    {0, 1/2, 1/3, 1/4}; P unipotent upper triangular."""
    eigs = [rng.choice((0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))) for _ in range(n - 1)]
    eigs.insert(0, eigs[0])
    j = [[eigs[i] if i == k else int((i, k) == (0, 1)) for k in range(n)] for i in range(n)]
    p = [[int(i == k) if k <= i else rng.randint(-2, 2) for k in range(n)] for i in range(n)]
    return p, j


def _jordan_conjugate(rng: random.Random, n: int):
    """P J P^-1 for `_jordan`'s (P, J)."""
    return _conjugate(*_jordan(rng, n))


def _conjugate(p, j):
    """P J P^-1 as Fraction rows, for an invertible integer P."""
    rows, den = inverse_over_lcm(p)
    return qmat_mul(qmat_mul(qmat(p), qmat(j)), qmat([[Fraction(x, den) for x in row] for row in rows]))


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
    """Every face's verdict, on fresh copies of e and Sigma."""
    f, s = e._replace(), sigma._replace()
    return [lc.is_sigma_unipotent(f, s, face) for face in faces]


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


def _cold_parse(doc: dict):
    """parse_connection of doc with the caches of analysed monoid sections,
    embeddings and converted monomials emptied first, as in a fresh
    process."""
    documents.clear_caches()
    return documents.parse_connection(doc)


def _cold(m, fn, keys):
    """fn(key) for every key, the weighted indices of m and of its sharp
    quotient emptied first, so every ball and |h| is computed afresh."""
    for index in (m.index, m.index.sharp[0].index):
        index._weighted.clear()
    return [fn(k) for k in keys]


def _perfbench_gen():
    import gen
    return gen


def _cold_monoid_documents() -> list:
    """(name, document) for the monoid-analysis shapes of the benchmark: the
    cones over the lattice 5- and 7-gons, the cone over the pyramid on the
    5-gon, and N^4 / (2 x_i = 2 x_j), whose gp has torsion Z/2."""
    gen = _perfbench_gen()
    return [("polygon k=5", gen.polygon_cone(5, 0, 0)[0]), ("polygon k=7", gen.polygon_cone(7, 0, 0)[0]),
            ("pyramid k=5", gen.pyramid_cone(5, 0)[0]),
            ("torsion Z/2 n=4", gen.torsion_monoid(random.Random(SEED), 4, 2)[0])]


def _cold_monoid(doc: dict):
    """parse_monoid of doc, its default weighting included, with the caches
    of analysed monoid sections emptied first, as in a fresh process."""
    documents.clear_caches()
    return documents.parse_monoid(doc)


def _cold_semi_saturation(m) -> bool:
    """is_semi_saturated on a fresh copy of m that is handed m's faces."""
    fresh = mc.FineMonoid(m.gp, m.generators)
    fresh.index.faces = tuple(mc.Face(fresh, f.generator_indices) for f in mc.faces(m))
    return mc.is_semi_saturated(fresh)


def _monoid_round_smith_inputs() -> list:
    """The matrices one seeded monoid-analysis round of the benchmark hands
    `snf.smith_normal_form`, in call order."""
    gen = _perfbench_gen()
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


def _time(fn) -> float:
    """Median CPU microseconds per call of fn(), scaled to the reference
    host speed."""
    loops = 1
    while True:
        t0 = time.process_time()
        for _ in range(loops):
            fn()
        if time.process_time() - t0 >= 0.02:
            break
        loops *= 2
    ref = reference_seconds()
    samples = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        for _ in range(loops):
            fn()
        samples.append((time.process_time() - t0) / loops)
    ref = (ref + reference_seconds()) / 2
    return scaled(statistics.median(samples), ref, 1.0) * 1e6


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


def main() -> int:
    def row(name: str, fn, calls: int = 1) -> None:
        """Print the row's host-scaled microseconds per call of fn, which
        makes `calls` calls."""
        print(f"{name:42s} {_time(fn) / calls:10.1f} us", flush=True)

    rng = random.Random(SEED)
    for n in (1, 2, 3):
        a, b = _matrix(rng, n), _matrix(rng, n)
        row(f"qmat_mul n={n}", lambda: qmat_mul(a, b))
    jordan_rng = random.Random(SEED)
    for n, kind in ((1, "diagonal"), (2, "diagonal"), (3, "diagonal"), (2, "jordan"), (3, "jordan")):
        if kind == "diagonal":
            a0, rhs = _triangular(rng, n)
        else:
            a0, rhs = _jordan_conjugate(jordan_rng, n), ([jordan_rng.randint(-9, 9) for _ in range(n * n)], 1)
        basis, divisors = _sylvester(a0)
        solver = qlin.sylvester_solver(basis, divisors)
        row(f"sylvester solver {kind} n={n}", lambda: qlin.sylvester_solver(basis, divisors))
        row(f"sylvester solve {kind} n={n}", lambda: lc._reduced(*qlin.sylvester_solve(solver, rhs)))
    n2 = mc.free_monoid(2)
    h = ws.default_weighting(n2)
    half = cmaps.Radius.p_power(Fraction(1, 2))
    for t in (3, 4, 5, 6):
        f, g = _series(rng, n2, h, t), _series(rng, n2, h, t)
        row(f"series_mul N^2 disk T={t}", lambda: ws.series_mul(f, g))
        row(f"series_add N^2 disk T={t}", lambda: ws.series_add(f, g))
        row(f"gauss_norm N^2 disk T={t}", lambda: ws.gauss_norm(f, half))
    for k in (4, 6, 9):
        la, lb = _weighting_lp(rng, k)
        row(f"simplex_feasible rays={k}", lambda: cone.simplex_feasible(la, lb))
    for n in (2, 3):
        for t in (4, 6):
            (a, _), (b, _) = (_series_matrix_map(rng, n2, h, n, t) for _ in range(2))
            supports = tuple(k for k, _ in a), tuple(k for k, _ in b)
            index = n2.index.weighted(h.values)
            row(f"plan build n={n} N^2 T={t}", lambda: cmaps.PairPlan(index, t, n, *supports))
            row(f"plan product n={n} N^2 T={t}", lambda: cmaps._map_mul(n2, h, t, a, b, n))
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(Fraction(1, 2))
    rank1_rng = random.Random(SEED)
    for n in (1, 2, 3):
        for t in (4, 6):
            if n == 1:
                e = _module(rank1_rng, n2, n, t)
            else:
                e = _module(rng, n2, n, t)
                row(f"validate_integrability n={n} N^2 T={t}",
                    lambda: lc.validate_integrability(e._replace()))
            for depth in (2, 4):
                row(f"log_convergence_check depth={depth} n={n} N^2 T={t}",
                    lambda: lc.log_convergence_check(e._replace(), one, eta, depth))
            if n == 2:
                row(f"integrability + log_convergence_check depth=2 n=2 N^2 T={t}",
                    lambda: _integrability_then_log_convergence(e._replace(), one, eta))
    for n in (2, 3, 4):
        b, _ = over_lcm(_jordan_conjugate(rng, n))
        row(f"int_charpoly + integer_roots n={n}", lambda: qlin.integer_roots(qlin.int_charpoly(b)))
    for n in (2, 3):
        e = _module(rng, n2, n, 4)
        row(f"module spectra n={n} N^2 T=4", lambda: _spectra(e))
    for name, m in (("M_even", selftest._m_even()), ("N^3", mc.free_monoid(3))):
        e, sigma, faces = _unipotence_module(rng, m, 4)
        row(f"is_sigma_unipotent all faces {name} T=4", lambda: _unipotence_on_all_faces(e, sigma, faces))
    for t in SHEAR_TRUNCATIONS:
        for name, e, _ in selftest._shear_fixtures(t):
            if name in SHEAR_FIXTURES:
                row(f"shear {name} T={t}", lambda: lc.shear(e))
    for t in FIRST_SHEAR_TRUNCATIONS:
        e = next(e for name, e, _ in selftest._shear_fixtures(t) if name == "rank2-N2-planted")
        row(f"first shear rank2-N2-planted T={t}", lambda: _first_shear(e))
        print(f"{'peak RSS after the first shear T=' + str(t):42s} "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:10.1f} MB", flush=True)
    doc_rng = random.Random(SEED)
    for name, gens in (("N^2", [[1, 0], [0, 1]]), ("N^3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       ("M_even", [[2, 0], [1, 1], [0, 2]])):
        for t in (4, 8, 12):
            doc = _embedded_document(doc_rng, gens, t)
            row(f"parse_connection {name} T={t}", lambda: _cold_parse(doc))
            row(f"parse_connection {name} T={t} warm", lambda: documents.parse_connection(doc))
    pyramid, _ = mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    h = ws.default_weighting(pyramid)
    for w in (4, 8):
        keys = pyramid.index.weighted(h.values).upto(w)
        shifted = keys + [pyramid.gp.sub(k, pyramid.generators[0]) for k in keys]
        row(f"cold h pyramid W={w}", lambda: _cold(pyramid, lambda k: ws.h_plus(pyramid, h, k), keys))
        row(f"cold membership pyramid W={w}",
            lambda: _cold(pyramid, lambda k: mc.membership(pyramid, k), shifted))
    for name, doc in _cold_monoid_documents():
        row(f"cold parse_monoid {name}", lambda: _cold_monoid(doc))
    semi = [(name, documents.parse_monoid(doc).monoid) for name, doc in _cold_monoid_documents()]
    for name, m in semi + [("moment_curve_20", _data_monoid("moment_curve_20"))]:
        row(f"cold semi-saturation {name}", lambda: _cold_semi_saturation(m))
    inputs = _monoid_round_smith_inputs()
    row(f"smith_normal_form monoid round (n={len(inputs)})", lambda: [snf.smith_normal_form(a) for a in inputs],
        len(inputs))
    for k in MOMENT_CURVE_RAYS:
        curve, _ = mc.from_embedded([[1, t, t * t, t ** 3] for t in range(1, k + 1)])
        row(f"is_saturated_bounded rank-4 curve k={k}",
            lambda: mc.is_saturated_bounded(mc.FineMonoid(curve.gp, curve.generators)))
    surjections = selftest._surjections()
    row("section 5 selftest surjections", lambda: [mc.section(f) for f in surjections])
    for name, m in (("N\\{1}", selftest._nm1()), ("pyramid_pentagon", _data_monoid("pyramid_pentagon"))):
        row(f"saturation_invariance_check {name}", lambda: _saturation_invariance(m))
    dl_rng = random.Random(SEED)
    for name, m in (("N", mc.free_monoid(1)), ("N^2", n2)):
        for n in (2, 3, 4):
            e = _dl_module(dl_rng, m, n)
            row(f"dl_limit basis sections n={n} {name} T=4", lambda: _dl_witnesses(e))
    emb, h = lc.facet_embedding(n2), ws.default_weighting(n2)
    for t in (4, 8):
        f = _series(dl_rng, n2, h, t)
        row(f"dl_constant_term N^2 disk T={t} l={t}", lambda: cmod.dl_constant_term(f, t, emb))
    return 0


if __name__ == "__main__":
    sys.exit(main())
