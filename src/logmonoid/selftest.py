"""The ten acceptance criteria as one ordered registry of named checks.

`CHECKS` maps a criterion name to a function of the prime returning
(ok, detail).  `logmonoid selftest` runs it through `run`, and
tests/test_acceptance.py runs each entry as its own test.  Every check is
exact; the prime only enters through p-adic norms, so the suite must pass
for any prime.  The connection builders here are shared with the tests.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from typing import Callable

from . import coefficient_maps as cmaps
from . import constant_models as cmod
from . import log_connection as lc
from . import monoid_core as mc
from . import oracle as orc
from . import weighted_series as ws
from .shearing import shear
from .snf import identity, mat_vec
from .unipotence import is_sigma_unipotent

F = Fraction

# ---------------------------------------------------------------------------
# connection builders
# ---------------------------------------------------------------------------


def _coefficients(monoid, h, per_key, truncation, annulus=False):
    """The coefficient map of {key: square matrix of rationals}; a key is a
    free-coordinate tuple or a (free, torsion) pair."""
    elts = {
        key: monoid.gp.element(*key) if key and isinstance(key[0], tuple) else monoid.element(key)
        for key in per_key
    }
    coeffs = {elts[k]: [x for row in mat for x in row] for k, mat in per_key.items()}
    return cmaps.coefficient_map(h, truncation, coeffs, annulus)


def build_module(monoid, matrix_terms, rank, truncation, embedding=None, kind="disk",
                 base_terms=None):
    """matrix_terms: list (per embedding coordinate) of {key: rank x rank rationals}."""
    h = ws.default_weighting(monoid)
    emb = embedding or lc.facet_embedding(monoid)

    def build(terms):
        return tuple(_coefficients(monoid, h, t, truncation, kind == "annulus") for t in terms)

    return lc.LogNablaModule(rank, emb, h, truncation, build(matrix_terms),
                             build(base_terms) if base_terms else None, kind)


def _identity(h, truncation, n):
    """The n x n identity as a coefficient map."""
    return cmaps.coefficient_map(h, truncation, {h.monoid.gp.zero(): [int(i == j) for i in range(n) for j in range(n)]})


def gauge_built_module(monoid, constant_model, gauge_terms, rank, truncation,
                       base_model=None):
    """U_I(constant_model) rewritten in the basis e*G, G = I + gauge_terms:
    shear must invert G.  Returns (module, G, G^{-1}), G and G^{-1} as
    coefficient maps."""
    h = ws.default_weighting(monoid)
    u = cmod.apply_ui(lc.facet_embedding(monoid), h, constant_model, truncation,
                    base_model=base_model)
    zero = (0,) * monoid.gp.free_rank
    g = _coefficients(monoid, h, {zero: identity(rank), **gauge_terms}, truncation)
    g_inv = cmaps.inverse_map(monoid.index.weighted(h.values), truncation, g, rank)
    return cmod.gauge_transform(u, g, g_inv), g, g_inv


def _nm1():
    """N \\ {1} embedded as <2, 3>."""
    return mc.from_embedded([[2], [3]])[0]


def _m_even():
    """{(a1, a2) in N^2 : a1 + a2 even} via the presentation e1 + e3 = 2 e2."""
    return mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))])


def _shear_fixtures(truncation):
    """(name, module, planted gauge inverse or None) for the shear suite."""
    n1, n2, m_even = mc.free_monoid(1), mc.free_monoid(2), _m_even()
    half, third = F(1, 2), F(1, 3)
    fixtures = [
        # diag(0, 1/2) + t E12
        ("rank2-N", build_module(
            n1, [{(0,): ((0, 0), (0, half)), (1,): ((0, 1), (0, 0))}], 2, truncation), None),
        ("rank1-N", build_module(
            n1, [{(0,): ((third,),), (1,): ((1,),), (2,): ((F(2, 7),),), (3,): ((F(-1, 2),),)}],
            1, truncation), None),
    ]
    planted = [
        ("rank2-N2-planted", n2, [((0, 0), (0, half)), ((third, 0), (0, third))],
         {(1, 0): ((0, 1), (0, 0)), (1, 1): ((0, 0), (half, 0)), (0, 2): ((0, F(1, 5)), (0, 0))}),
        ("rank3-N-jordan", n1, [((0, 0, 0), (0, half, 1), (0, 0, half))],
         {(1,): ((0, 1, 0), (0, 0, 1), (0, 0, 0)), (2,): ((0, 0, 3), (0, 0, 0), (0, 0, 0))}),
        # planted on the interior generator t^{g2}
        ("rank2-M_even-planted", m_even, [((0, 0), (0, half)), ((0, 0), (0, third))],
         {m_even.generators[1][0]: ((0, 1), (0, 0))}),
    ]
    for name, m, model, gauge in planted:
        e, _g, g_inv = gauge_built_module(m, model, gauge, len(model[0]), truncation)
        fixtures.append((name, e, g_inv))
    return fixtures


def _face_sets(m, ball) -> set[frozenset]:
    """Every face of m as its element set inside the oracle's ball."""
    return {frozenset(orc._closure_in_ball(m, f.generators(), ball)) for f in mc.faces(m)}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

CHECKS: dict[str, Callable[[int], tuple[bool, str]]] = {}


class _Failed(Exception):
    pass


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise _Failed(detail)


def _criterion(name):
    """Register a check that returns its detail line and fails by _require."""
    def register(check):
        def entry(prime: int) -> tuple[bool, str]:
            try:
                return True, check(prime)
            except _Failed as exc:
                return False, str(exc)

        entry.__doc__ = check.__doc__
        CHECKS[name] = entry
        return entry

    return register


@_criterion("01_semi_saturatedness")
def _semi_saturatedness(prime):
    """N, N\\{1}, M_even semi-saturated; the 2x=2y torsion monoid is not."""
    torsion = mc.from_presentation(2, [((2, 0), (0, 2))])
    expected = [(mc.free_monoid(1), True), (_nm1(), True), (_m_even(), True), (torsion, False)]
    for m, want in expected:
        _require(mc.is_semi_saturated(m) is want, f"wrong verdict on {m}")
    return f"{len(expected)} monoids"


@_criterion("02_face_census")
def _face_census(prime):
    """faces(M_even): exactly 4 faces and 2 facets, matching brute_faces."""
    m, budget = _m_even(), orc.EnumerationBudget(6)
    brute = orc.brute_faces(m, budget)
    counts = (len(mc.faces(m)), len(mc.facets(m)), len(brute))
    _require(counts == (4, 2, 4), f"faces, facets, oracle faces = {counts}")
    _require(_face_sets(m, set(orc.enumerate_monoid(m, budget))) == set(brute), "face sets differ")
    return "4 faces, 2 facets, oracle census equal"


@cache
def _surjections():
    """The five fixture surjections of the section criterion, built once per process."""
    n1, n2, n3, m_even = mc.free_monoid(1), mc.free_monoid(2), mc.free_monoid(3), _m_even()
    return (
        mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((1,)))),
        mc.MonoidHom(n3, m_even, m_even.generators),
        mc.MonoidHom(n1, n1, (n1.element((1,)),)),
        mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((2,)))),
        mc.MonoidHom(n3, n2, (n2.element((1, 0)), n2.element((0, 1)), n2.element((1, 1)))),
    )


@_criterion("03_section_invariants")
def _section_invariants(prime):
    """Five fixture surjections: the invariants `section` checks (f(N) in
    M, onto, f o s = id, the splitting of N^gp), plus f(s(g)) = g and the
    kernel rank re-checked here."""
    fixtures = _surjections()
    for k, f in enumerate(fixtures):
        sd = mc.section(f)  # raises if any invariant fails
        for g in f.target.generators:
            _require(f.gp_apply(sd.section.gp_apply(g)) == g, f"surjection {k}: f(s(g)) != g")
        rank = f.source.gp.free_rank - f.target.gp.free_rank
        _require(sd.kernel.free_rank == rank, f"surjection {k}: kernel rank")
    return f"{len(fixtures)} surjections, all invariants machine-checked"


@_criterion("04_shear_suite")
def _shear_suite(prime):
    """Five fixture connections at T = 12: the all-directions gauge identity,
    B B' = I = B' B, the round trip through U_I, the norm bound in valuation
    form, the planted gauges, the hand-solved first-order gauge of rank2-N,
    and order <= 3 agreement with the oracle's dense solve on the first three."""
    # solved by hand from the weight-1 recursion
    first_order = {"rank2-N": ((F(0), F(-2)), (F(0), F(0)))}
    fixtures = _shear_fixtures(12)
    orders = 0
    for k, (name, e, planted) in enumerate(fixtures):
        _require(lc.validate_integrability(e), f"{name}: not integrable")
        sr = shear(e, p=prime)
        m, n = e.monoid, e.rank
        b, b_inv = sr.gauge_map, sr.gauge_inverse_map
        u = cmod.apply_ui(e.embedding, e.weighting, sr.constant_model, e.truncation)
        # A^i B + d_i B = B A^i_0 for every i (the (**) family, all m)
        for i, (a, a0) in enumerate(zip(e.matrices, u.matrices)):
            same = lc.map_product(e, a, b, i) == lc.map_product(e, b, a0)
            _require(same, f"{name}: gauge identity fails in direction {i}")
        ident = _identity(e.weighting, e.truncation, n)
        _require(lc.map_product(e, b, b_inv) == ident, f"{name}: B B' != I")
        _require(lc.map_product(e, b_inv, b) == ident, f"{name}: B' B != I")
        _require(cmod.gauge_transform(u, b_inv, b).matrices == e.matrices, f"{name}: round trip")
        # |B_m| <= Z_m^e C^{2h(m)} a^{-h(m)} in valuation form
        _require(all(r.ok for r in sr.bound_report), f"{name}: norm bound violated")
        _require(planted is None or b == planted, f"{name}: planted gauge missed")
        if name in first_order:
            got = cmaps.coefficient(b, m.element((1,)), n)
            _require(got == first_order[name], f"{name}: unexpected first-order gauge {got}")
        if k < 3:
            for key, bm in orc.brute_shear_order(e, 3).items():
                _require(cmaps.coefficient(b, key, n) == bm, f"{name}: oracle disagrees at {key}")
        orders += len(sr.bound_report)
    return f"{len(fixtures)} fixtures at T=12, {orders} orders, all identities exact"


@_criterion("05_vertex_counterexample")
def _vertex_counterexample(prime):
    """The rank-1 module with nabla(e) = e dx/(2x): {0}-unipotent along both
    facets and the whole monoid, NOT {0}-unipotent at the vertex."""
    m = _m_even()
    xi = tuple(F(c, 2) for c in m.generators[0][0])  # ambient (2, 0): t^{g1} = x
    e = cmod.apply_ui(lc.facet_embedding(m), ws.default_weighting(m), [((F(0),),)] * 2, 12,
                    xi_twist=xi, interval_kind="annulus")
    sigma = lc.ExponentSet(m, ((F(0), F(0)),))
    verdicts = {
        tuple(sorted(f.generator_indices)): is_sigma_unipotent(e, sigma, f).verdict
        for f in mc.faces(m)
    }
    _require(verdicts == {(): False, (0,): True, (2,): True, (0, 1, 2): True}, str(verdicts))
    return f"facets true/true, vertex false: {verdicts}"


@_criterion("06_dl_suite")
def _dl_suite(prime):
    """D_l kills tracked t^m with 0 < |m_i| <= l and fixes constants; on two
    constant models dl_limit gives the frozen H^0_{xi_1} witness (5, 0), an
    eigenvector of every residue, and dl_projection agrees with it for l >= T."""
    n2, t = mc.free_monoid(2), 6
    h, emb, zero = ws.default_weighting(n2), lc.facet_embedding(n2), n2.gp.zero()

    def s(terms):
        return ws.series(n2, h, {n2.element(k): c for k, c in terms.items()}, t)

    killed = cmod.dl_constant_term(s({(1, 0): 1, (0, 2): 3, (2, 1): 5}), t, emb)
    _require(killed.is_zero(), "D_6 leaves a tracked monomial")
    const = s({(0, 0): F(3, 7)})
    for l in (1, 3, 6):
        fixed = ws.series_equal(cmod.dl_constant_term(const, l, emb), const)
        _require(fixed, f"D_{l} moves a constant")
    out = cmod.dl_constant_term(s({(0, 0): 1, (1, 1): 3}), 2, emb)
    _require(dict(out.terms) == {zero: 1}, "D_2(1 + 3xy) != 1")
    models = [
        [((0, 1), (0, 0)), ((0, 0), (0, 0))],
        [((F(1, 5), 0), (0, F(1, 5))), ((0, 1), (0, 0))],
    ]
    vectors = [
        (s({(0, 0): 2, (1, 0): 1, (1, 1): 4}), s({(0, 0): 5, (0, 1): 7})),
        (s({(0, 0): 1, (1, 0): 2}), s({(0, 0): 5})),
    ]
    for k, model in enumerate(models):
        e = cmod.apply_ui(emb, h, model, t)
        target = lc.exponents(e).eigentuples[0]
        for v in vectors:
            w = cmod.dl_limit(e, v)  # asserts res_i(w) = xi_{i,1} w internally
            _require(w == (5, 0), f"model {k}: limit {w}")
            for r, x in zip(lc.residue(e), target):
                eigen = mat_vec(r, w) == tuple(x * c for c in w)
                _require(eigen, f"model {k}: the limit is not a residue eigenvector")
            for l in (t, t + 2):
                proj = cmod.dl_projection(e, v, l)
                exact = tuple(f.coeff(zero) for f in proj) == w
                _require(exact and all(key == zero for f in proj for key, _ in f.terms),
                         f"model {k}: D_{l} projection differs from the limit")
    return f"D_l termwise, {len(models)} models x {len(vectors)} sections, H^0 witnesses exact"


@_criterion("07_homotopy")
def _homotopy(prime):
    """nabla_F phi + phi nabla_F = id - g1 g2 on every monomial over the
    weight <= 4 ball of N^2, for four NI pairs (xi, xi')."""
    n2 = mc.free_monoid(2)
    emb = lc.facet_embedding(n2)
    ball = n2.index.weighted(ws.default_weighting(n2).values).upto(4)
    monomials = [(key, wedge) for key in sorted(ball)
                 for size in range(emb.r + 1) for wedge in itertools.combinations(range(emb.r), size)]
    zero, fifth = (F(0), F(0)), F(1, 5)
    pairs = [(zero, (F(1, 2), F(1, 3))), ((fifth, 2 * fifth), (3 * fifth, fifth)),
             ((fifth, F(0)), (F(0), 2 * fifth)), (zero, zero)]
    for xi, xi_p in pairs:
        _require(cmod.homotopy_check(emb, xi, xi_p, monomials).all_zero, f"residual for {xi} -> {xi_p}")
    return f"{len(pairs)} pairs, {len(monomials)} forms, residuals identically 0"


@_criterion("08_log_convexity")
def _log_convexity(prime):
    """|f|_{a^c b^{1-c}} <= |f|_a^c |f|_b^{1-c} for 20 seeded nonzero series."""
    n2 = mc.free_monoid(2)
    rng = random.Random(20260808)
    h = ws.default_weighting(n2)
    trials = 0
    while trials < 20:
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            key = n2.element((rng.randint(-3, 3), rng.randint(-3, 3)))
            coeffs[key] = F(rng.randint(-50, 50), rng.randint(1, 20))
        f = ws.series(n2, h, coeffs, 12, annulus=True)
        if f.is_zero():
            continue
        trials += 1
        a = cmaps.Radius(F(rng.randint(0, 8), rng.randint(1, 4)))
        b = cmaps.Radius(F(rng.randint(0, 8), rng.randint(1, 4)))
        va = ws.gauss_norm(f, a, prime).exponent
        vb = ws.gauss_norm(f, b, prime).exponent
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            vm = ws.gauss_norm(f, a.mix(b, c), prime).exponent
            _require(vm >= c * va + (1 - c) * vb, f"series {trials} at c = {c}")
    return f"{trials} seeded series at c in {{1/4, 1/2, 3/4}}"


@_criterion("09_saturation_invariance")
def _saturation_invariance(prime):
    """A_M[a,b] = A_{M^sat}[a,b] for M = N\\{1} on six valuation points and
    10 seeded intervals with 0 < a <= b."""
    m = _nm1()
    pts = [
        ws.valuation_point(m, (F(2) * q, F(3) * q))
        for q in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(7, 4))
    ]
    rng = random.Random(7)
    for _ in range(10):
        qb = F(rng.randint(0, 4), rng.randint(1, 3))
        qa = qb + F(rng.randint(0, 4), rng.randint(1, 3))
        ok = ws.saturation_invariance_check(m, cmaps.Radius(qa), cmaps.Radius(qb), pts)
        _require(ok, f"a=p^-{qa} b=p^-{qb}")
    return f"10 intervals, {len(pts)} points, membership + h+ bound agree"


@_criterion("10_oracle_equivalence")
def _oracle_equivalence(prime):
    """Fast faces, membership and h+ equal the brute-force oracle's within
    weight 6 on N, N^2, N\\{1} and M_even.  Probes: the ball and the
    differences of its 12 least elements; for h+ on N^2 and M_even also every
    difference of two elements of the weight <= 3 ball."""
    budget = orc.EnumerationBudget(6)
    n2, m_even = mc.free_monoid(2), _m_even()
    for m in (mc.free_monoid(1), n2, _nm1(), m_even):
        h = ws.default_weighting(m)
        ball = set(orc.enumerate_monoid(m, budget))
        _require(_face_sets(m, ball) == set(orc.brute_faces(m, budget)), f"faces of {m}")
        sample = sorted(ball)[:12]
        probes = {m.gp.sub(x, y) for x in sample for y in sample} | ball
        probes = {g for g in probes if h(g) <= 6}
        for g in sorted(probes):
            _require(mc.membership(m, g) == (g in ball), f"membership of {g} in {m}")
        if m in (n2, m_even):
            small = orc.enumerate_monoid(m, orc.EnumerationBudget(3))
            probes |= {m.gp.sub(x, y) for x in small for y in small}
        for g in sorted(probes):
            if ws.h_abs(m, h, g) <= 6:
                fast = ws.h_plus(m, h, g)
                _require(fast == orc.brute_h_plus(m, g, budget), f"h+ of {g} in {m}")
    return "faces, membership and h+ agree on 4 monoids"


def run(prime: int = 5) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for every check; a crash is a failure with its message."""
    results = []
    for name, check in CHECKS.items():
        try:
            results.append((name, *check(prime)))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
