"""Microbenchmark of the exact kernels: microseconds per call.

    python3 tools/bench_kernels.py

Run from the root of a checkout; the program is imported from ./src.  Times
`qlin.qmat_mul` on n x n matrices and the shear recursion's per-key
Sylvester solve (A0 X - X A0 + m X = RHS: the integer product of the
operator's cached inverse with the RHS, then the gcd reduction), for
n = 1, 2, 3; `weighted_series.series_mul`, `series_add` and `gauss_norm`
(radius p^-1/2) on dense disk series over N^2 truncated at T = 3..6; `cone.simplex_feasible` on the default weighting's
LP for k integer rays in Z^3 (k = 4, 6, 9: 2*3 + k columns, k rows); and
`weighted_series._map_mul` on the coefficient maps of n x n matrices of
those series for n = 2, 3 at T = 4, 6; and, on an integrable rank-n module
over N^2 truncated at T (a diagonal constant model rewritten by a gauge
I + G, G dense up to weight T) for n = 2, 3 and T = 4, 6,
`validate_integrability` and `log_convergence_check` at depth 2 and 4
(radius 1, eta = p^-1/2), each call on a fresh copy of the module, so no
cached verdict is reused.  The spectral rows time `qlin.rational_roots` of
`qlin.charpoly` on n x n matrices P J P^-1 (J in Jordan form with
eigenvalues in {0, 1/2, 1/3, 1/4}, P unipotent) for n = 2, 3, 4;
`exponents` plus `eigenbasis_data` on fresh copies of the rank-n modules
above (n = 2, 3, T = 4); and `is_sigma_unipotent` over every face, on a
fresh copy of the module and of Sigma (its own exponent set), for a
constant rank-3 module with a Jordan block over M_even and over N^3 at
T = 4.  The shear rows time a whole `shear` (both gauge recursions, the
bound records and the checks; the module's integrability and residue
analysis are cached after the first call) of the selftest fixtures
rank2-N2-planted and rank2-M_even-planted built at T = 8, 12, 20, 30, 40.
The document rows time `documents.parse_connection` of a rank-2 connection
document on an embedded monoid (N^2, N^3 and M_even in ambient
coordinates, identity embedding) with a matrix at every key of weight
<= T in every direction, for T = 4, 8, 12; each call parses a fresh
monoid, so the Smith forms, the weighting and every |h| are cold.  The
pyramid rows time h and `membership` on the cone over the unit square
(a sharp monoid in Z^3) for the keys of weight <= W (W = 4, 8), and for
membership also each key minus a generator, with the weighted indices of
the monoid and of its sharp quotient emptied before each call.  The Smith
row times `snf.smith_normal_form` per input over the inputs one seeded
monoid-analysis round of the benchmark (perfbench's `gen.monoid_round` run
through `workloads.run_monoid`) hands it, in call order; their number n,
in the row's name, falls when the saturation verdict stops earlier.  The
saturation rows time `is_saturated_bounded` on the rank-4 moment-curve
cones over (1, t, t^2, t^3), t = 1..k, for k = 10, 12, 16, 20, 30, 40,
each call on a fresh copy of the monoid (its cone, triangulation and ball
cold).
Entries are small rationals (numerators -9..9, denominators up to
6) or small integers from a fixed seed, so every run measures the same
inputs.  Each figure is the median over REPEATS repeats of a loop of at
least 20 ms, in wall-clock microseconds per call; stdlib only.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from logmonoid import cone  # noqa: E402
from logmonoid import documents  # noqa: E402
from logmonoid import log_connection as lc  # noqa: E402
from logmonoid import monoid_core as mc  # noqa: E402
from logmonoid import selftest  # noqa: E402
from logmonoid import snf  # noqa: E402
from logmonoid import weighted_series as ws  # noqa: E402
from logmonoid import qlin  # noqa: E402
from logmonoid.qlin import over_lcm, qinverse, qmat, qmat_mul  # noqa: E402

SEED = 1
MONOID_ROUND_SEED = 7
MOMENT_CURVE_RAYS = (10, 12, 16, 20, 30, 40)
REPEATS = 7
SHEAR_FIXTURES = ("rank2-N2-planted", "rank2-M_even-planted")
SHEAR_TRUNCATIONS = (8, 12, 20, 30, 40)
DENOMINATORS = (1, 1, 2, 3, 5, 6)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _matrix(rng: random.Random, n: int):
    return qmat([[_rational(rng) for _ in range(n)] for _ in range(n)])


def _sylvester(rng: random.Random, n: int):
    """The shear's cached inverse of the Sylvester operator for an upper
    triangular A0 with eigenvalues 0, 1/2, 1/3 (no integer differences) and
    m = 1, and a right-hand side, both as integers over one denominator."""
    eigs = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
    a0 = [[eigs[i] if i == j else (_rational(rng) if j > i else Fraction(0))
           for j in range(n)] for i in range(n)]
    (rhs,), den = over_lcm([[_rational(rng) for _ in range(n * n)]])
    return lc._sylvester_inverse(*lc._sylvester(*over_lcm(a0), 1)), (rhs, den)


def _series(rng: random.Random, m, h, t: int):
    keys = m.index.weighted(h.values).upto(t)
    return ws.series(m, h, {k: _rational(rng) for k in keys}, t)


def _series_matrix_map(rng: random.Random, m, h, n: int, t: int):
    """The coefficient map of an n x n matrix of `_series` entries, drawn in
    the same order."""
    keys = m.index.weighted(h.values).upto(t)
    entries = [[_rational(rng) for k in keys] for _ in range(n * n)]
    return lc.coefficient_map(h, t, {k: [entry[j] for entry in entries] for j, k in enumerate(keys)})


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


def _jordan_conjugate(rng: random.Random, n: int):
    """P J P^-1: a Jordan block of size 2 first, then eigenvalues drawn
    from {0, 1/2, 1/3, 1/4}; P unipotent upper triangular."""
    eigs = [rng.choice((0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))) for _ in range(n - 1)]
    eigs.insert(0, eigs[0])
    j = [[eigs[i] if i == k else int((i, k) == (0, 1)) for k in range(n)] for i in range(n)]
    p = qmat([[int(i == k) if k <= i else rng.randint(-2, 2) for k in range(n)] for i in range(n)])
    return qmat_mul(qmat_mul(p, qmat(j)), qinverse(p))


def _unipotence_module(rng: random.Random, m, t: int):
    """A constant rank-3 module over m (one residue per embedding row) with
    commuting residues P J P^-1: J = [[1/2, 1, 0], [0, 1/2, 0], [0, 0, 0]],
    diag(1/3, 1/3, 1/4) and diag(0, 0, 1/2); P unipotent.  Returns it with
    Sigma, its own exponent set, and the faces of m."""
    h = Fraction(1, 2)
    cores = ([[h, 1, 0], [0, h, 0], [0, 0, 0]], [[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 4)]],
             [[0, 0, 0], [0, 0, 0], [0, 0, h]])
    p = qmat([[int(i == k) if k <= i else rng.randint(-2, 2) for k in range(3)] for i in range(3)])
    emb = lc.facet_embedding(m)
    model = [qmat_mul(qmat_mul(p, qmat(c)), qinverse(p)) for c in cores[: emb.r]]
    e = lc.apply_ui(emb, ws.default_weighting(m), model, t)
    return e, lc.exponents(e).exponent_set(m), mc.faces(m)


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


def _cold(m, fn, keys):
    """fn(key) for every key, the weighted indices of m and of its sharp
    quotient emptied first, so every ball and |h| is computed afresh."""
    for index in (m.index, m.index.sharp[0].index):
        index._weighted.clear()
    return [fn(k) for k in keys]


def _monoid_round_smith_inputs() -> list:
    """The matrices one seeded monoid-analysis round of the benchmark hands
    `snf.smith_normal_form`, in call order."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
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


def _time(fn) -> float:
    """Median microseconds per call of fn()."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= 0.02:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops * 1e6)
    return statistics.median(samples)


def main() -> int:
    rng = random.Random(SEED)
    rows = []
    for n in (1, 2, 3):
        a, b = _matrix(rng, n), _matrix(rng, n)
        rows.append((f"qmat_mul n={n}", _time(lambda: qmat_mul(a, b))))
    for n in (1, 2, 3):
        inv, rhs = _sylvester(rng, n)
        rows.append((f"sylvester solve n={n}", _time(lambda: lc._sylvester_solve(inv, rhs))))
    n2 = mc.free_monoid(2)
    h = ws.default_weighting(n2)
    half = ws.Radius.p_power(Fraction(1, 2))
    for t in (3, 4, 5, 6):
        f, g = _series(rng, n2, h, t), _series(rng, n2, h, t)
        rows.append((f"series_mul N^2 disk T={t}", _time(lambda: ws.series_mul(f, g))))
        rows.append((f"series_add N^2 disk T={t}", _time(lambda: ws.series_add(f, g))))
        rows.append((f"gauss_norm N^2 disk T={t}", _time(lambda: ws.gauss_norm(f, half))))
    for k in (4, 6, 9):
        la, lb = _weighting_lp(rng, k)
        rows.append((f"simplex_feasible rays={k}", _time(lambda: cone.simplex_feasible(la, lb))))
    for n in (2, 3):
        for t in (4, 6):
            (a, _), (b, _) = (_series_matrix_map(rng, n2, h, n, t) for _ in range(2))
            rows.append((f"_map_mul n={n} N^2 T={t}", _time(lambda: ws._map_mul(n2, h, t, a, b, n))))
    one, eta = ws.Radius.one(), ws.Radius.p_power(Fraction(1, 2))
    for n in (2, 3):
        for t in (4, 6):
            e = _module(rng, n2, n, t)
            rows.append((f"validate_integrability n={n} N^2 T={t}",
                         _time(lambda: lc.validate_integrability(e._replace()))))
            for depth in (2, 4):
                rows.append((f"log_convergence_check depth={depth} n={n} N^2 T={t}",
                             _time(lambda: lc.log_convergence_check(e._replace(), one, eta, depth))))
    for n in (2, 3, 4):
        a = _jordan_conjugate(rng, n)
        rows.append((f"charpoly + rational_roots n={n}", _time(lambda: qlin.rational_roots(qlin.charpoly(a)))))
    for n in (2, 3):
        e = _module(rng, n2, n, 4)
        rows.append((f"module spectra n={n} N^2 T=4", _time(lambda: _spectra(e))))
    for name, m in (("M_even", selftest._m_even()), ("N^3", mc.free_monoid(3))):
        e, sigma, faces = _unipotence_module(rng, m, 4)
        rows.append((f"is_sigma_unipotent all faces {name} T=4", _time(lambda: _unipotence_on_all_faces(e, sigma, faces))))
    for t in SHEAR_TRUNCATIONS:
        for name, e, _ in selftest._shear_fixtures(t):
            if name in SHEAR_FIXTURES:
                rows.append((f"shear {name} T={t}", _time(lambda: lc.shear(e))))
    doc_rng = random.Random(SEED)
    for name, gens in (("N^2", [[1, 0], [0, 1]]), ("N^3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       ("M_even", [[2, 0], [1, 1], [0, 2]])):
        for t in (4, 8, 12):
            doc = _embedded_document(doc_rng, gens, t)
            rows.append((f"parse_connection {name} T={t}", _time(lambda: documents.parse_connection(doc))))
    pyramid, _ = mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    h = ws.default_weighting(pyramid)
    for w in (4, 8):
        keys = mc.WeightedIndex(pyramid.index, h.values).upto(w)
        shifted = keys + [pyramid.gp.sub(k, pyramid.generators[0]) for k in keys]
        rows.append((f"cold h pyramid W={w}", _time(lambda: _cold(pyramid, lambda k: ws.h_plus(pyramid, h, k), keys))))
        rows.append((f"cold membership pyramid W={w}",
                     _time(lambda: _cold(pyramid, lambda k: mc.membership(pyramid, k), shifted))))
    inputs = _monoid_round_smith_inputs()
    rows.append((f"smith_normal_form monoid round (n={len(inputs)})",
                 _time(lambda: [snf.smith_normal_form(a) for a in inputs]) / len(inputs)))
    for k in MOMENT_CURVE_RAYS:
        curve, _ = mc.from_embedded([[1, t, t * t, t ** 3] for t in range(1, k + 1)])
        rows.append((f"is_saturated_bounded rank-4 curve k={k}",
                     _time(lambda: mc.is_saturated_bounded(mc.FineMonoid(curve.gp, curve.generators)))))
    for name, us in rows:
        print(f"{name:42s} {us:10.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
