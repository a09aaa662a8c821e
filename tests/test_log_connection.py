"""Embeddings, (S-D) checks, residues/exponents, shearing, U_I, unipotence,
D_l operators, the homotopy identity and log-convergence."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import documents, selftest
from logmonoid import snf
from logmonoid.abelian import group_quotient
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import weighted_series as ws
from logmonoid.errors import (
    DenominatorVanishes,
    IrrationalExponent,
    NotDiskModule,
    NotIntegrable,
    NotMonoidSupported,
    NotSemiSaturated,
    NotSharp,
    SingularSylvester,
)
from logmonoid.qlin import padic_valuation, qinverse, qmat, qmat_mul, qmat_vec

from conftest import build_module, build_series, gauge_built_module

F = Fraction
DATA = Path(__file__).parent / "data"


def _ident_smat(module):
    n = module.rank
    return lc.smat_from_rational(
        module.monoid, module.weighting,
        tuple(tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)),
        module.truncation,
    )


def _shear_identity_holds(module, result):
    """A^i B + d_i B = B A^i_0 as series matrices, for every i."""
    b = result.gauge
    for i in range(module.embedding.r):
        lhs = lc.smat_add(
            lc.smat_mul(module.matrices[i], b),
            lc.smat_partial(b, module.embedding, i),
        )
        rhs = lc.smat_mul(
            b,
            lc.smat_from_rational(
                module.monoid, module.weighting, result.constant_model[i], module.truncation
            ),
        )
        if not lc.smat_equal(lhs, rhs):
            return False
    return True


# -- embeddings ----------------------------------------------------------------

def test_facet_embedding_n2(n2):
    emb = lc.facet_embedding(n2)
    assert sorted(emb.matrix) == [(0, 1), (1, 0)]


def test_facet_embedding_m_even(m_even):
    emb = lc.facet_embedding(m_even)
    assert emb.r == 2
    assert qinverse(qmat(emb.matrix)) is not None
    for g in m_even.generators:
        assert all(c >= 0 for c in emb.coords(g))
    # both facet functionals vanish on their facet and are positive outside
    for f, row in m_even.index.facet_normals.items():
        for i, g in enumerate(m_even.generators):
            v = sum(row[k] * g[0][k] for k in range(len(row)))
            assert (v == 0) == (i in f.generator_indices)


def _quotient_row(m, face):
    """The map gp^free -> (M/F)^gp = Z given by the facet's group quotient
    (one Smith form), sign-normalized to be >= 0 on the generators."""
    q, project = group_quotient(m.gp, face.generators())
    assert q.free_rank == 1 and not q.torsion_invariants
    d = m.gp.free_rank
    row = tuple(project(m.gp.element(tuple(int(i == k) for i in range(d))))[0][0] for k in range(d))
    if any(sum(r * x for r, x in zip(row, g[0])) < 0 for g in m.generators):
        row = tuple(-x for x in row)
    return row


def test_facet_normals_are_the_quotient_rows(n1, n2, n3, nm1, m_even):
    """On every sharp semi-saturated fixture each facet's normal, read from
    the index, is the row its group quotient gives."""
    monoids = [n1, n2, n3, nm1[0], m_even]
    for path in sorted(DATA.glob("*.json")):
        doc = documents.load_json(path)
        if "elements" not in doc:  # a monoid or connection document
            monoids.append(documents.parse_monoid(doc.get("monoid", doc)).monoid)
    fixtures = [m for m in monoids if mc.is_sharp(m) and mc.is_semi_saturated(m)]
    assert len(fixtures) >= 11
    for m in fixtures:
        normals = m.index.facet_normals
        assert list(normals) == list(mc.facets(m))
        assert [_quotient_row(m, f) for f in normals] == list(normals.values())


def test_facet_embedding_nm1(nm1):
    emb = lc.facet_embedding(nm1[0])
    assert emb.matrix in (((1,),), ((-1,),))
    assert all(c >= 0 for g in nm1[0].generators for c in emb.coords(g))


def test_facet_embedding_rejects_torsion(torsion_monoid):
    with pytest.raises(NotSemiSaturated):
        lc.facet_embedding(torsion_monoid)


def test_facet_embedding_needs_generators_spanning_gp():
    """One generator in Z^2: its facet quotient Z^2 / <(1, 0)> is not Z."""
    m = mc.FineMonoid(mc.AbelianGroup(2, ()), (((1, 0), ()),))
    assert mc.is_sharp(m) and mc.is_semi_saturated(m)
    with pytest.raises(NotSemiSaturated, match="not isomorphic to Z"):
        lc.facet_embedding(m)


# -- (S-D) ----------------------------------------------------------------------

def test_check_sd_zero(m_even):
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)),))
    assert lc.check_sd(sigma)
    assert lc.check_sd(sigma, "NI_and_NL")


def test_check_sd_half_on_both_facets(m_even):
    g2 = m_even.generators[1]  # ambient (1,1): facet images 1/2, 1/2
    xi = tuple(F(c, 2) for c in g2[0])
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)), xi))
    assert lc.check_sd(sigma)


def test_check_sd_integer_difference(m_even):
    g2 = m_even.generators[1]
    xi = tuple(F(3 * c) for c in g2[0])  # facet images 3, 3
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)), xi))
    assert not lc.check_sd(sigma)


# -- integrability ----------------------------------------------------------------

def test_integrability_constant_commuting(n2):
    e = build_module(n2, [{(0, 0): ((0, 1), (0, 0))}, {(0, 0): ((0, 0), (0, 0))}], 2, 6)
    assert lc.validate_integrability(e)


def test_integrability_rank1_always(n1):
    e = build_module(n1, [{(0,): ((F(1, 3),),), (1,): ((2,),), (2,): ((F(5, 7),),)}], 1, 6)
    assert lc.validate_integrability(e)


def test_integrability_failing_instance(n2):
    # A^1 = t^{(1,1)} E12, A^2 = 0: d_2 A^1 has a nonzero coefficient
    e = build_module(n2, [{(1, 1): ((0, 1), (0, 0))}, {}], 2, 6)
    assert not lc.validate_integrability(e)
    assert e.integrability_defect is not None


# -- residues and exponents ---------------------------------------------------------

def test_exponents_diagonal(n1):
    e = build_module(n1, [{(0,): ((0, 0), (0, F(1, 2)))}], 2, 6)
    dec = lc.exponents(e)
    assert dec.exponents == ((F(0),), (F(1, 2),))
    assert dec.multiplicities == (1, 1)


def test_exponents_nilpotent(n2):
    e = build_module(
        n2,
        [{(0, 0): ((0, 1, 0), (0, 0, 1), (0, 0, 0))}, {(0, 0): ((0, 0, 0),) * 3}],
        3, 6,
    )
    dec = lc.exponents(e)
    assert dec.exponents == ((F(0), F(0)),)
    assert dec.multiplicities == (3,)


def test_exponents_rank1_twist(m_even):
    h = ws.default_weighting(m_even)
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])
    e = lc.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi)
    dec = lc.exponents(e)
    assert dec.exponents == (xi,)  # (2,0) tensor 1/2


def test_exponents_irrational_rejected(n1):
    # x^2 = 2 has no rational roots
    e = build_module(n1, [{(0,): ((0, 1), (2, 0))}], 2, 6)
    with pytest.raises(IrrationalExponent):
        lc.exponents(e)


def test_exponents_conjugation_invariant(n2):
    a1 = ((F(0), F(1), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1, 2)))
    a2 = ((F(1, 3), F(0), F(0)), (F(0), F(1, 3), F(0)), (F(0), F(0), F(2, 3)))
    e = build_module(n2, [{(0, 0): a1}, {(0, 0): a2}], 3, 6)
    p = qmat(((1, 2, 0), (0, 1, 5), (1, 0, 1)))
    pinv = qinverse(p)
    conj = [qmat_mul(qmat_mul(pinv, qmat(a)), p) for a in (a1, a2)]
    e2 = build_module(n2, [{(0, 0): conj[0]}, {(0, 0): conj[1]}], 3, 6)
    d1, d2 = lc.exponents(e), lc.exponents(e2)
    pairs1 = sorted(zip(d1.exponents, d1.multiplicities))
    pairs2 = sorted(zip(d2.exponents, d2.multiplicities))
    assert pairs1 == pairs2


def test_exponents_subquotient_stability(n1):
    # a block-diagonal module: each diagonal block is a submodule
    full = build_module(n1, [{(0,): ((F(1, 2), 0), (0, F(1, 3)))}], 2, 6)
    sub = build_module(n1, [{(0,): ((F(1, 2),),)}], 1, 6)
    exps_full = set(lc.exponents(full).exponents)
    exps_sub = set(lc.exponents(sub).exponents)
    assert exps_sub <= exps_full


# -- shearing ---------------------------------------------------------------------

def _rank2_n_module(truncation=12):
    n1 = mc.free_monoid(1)
    return build_module(
        n1,
        [{(0,): ((0, 0), (0, F(1, 2))), (1,): ((0, 1), (0, 0))}],
        2, truncation,
    )


def test_shear_constant_module_gauge_is_identity(n2):
    e = build_module(n2, [{(0, 0): ((F(1, 2),),)}, {(0, 0): ((F(1, 3),),)}], 1, 8)
    sr = lc.shear(e)
    assert lc.smat_equal(sr.gauge, _ident_smat(e))


def test_shear_rank2_example():
    e = _rank2_n_module(10)
    sr = lc.shear(e)
    one = e.monoid.element((1,))
    assert lc.smat_coefficient(sr.gauge, one) == ((F(0), F(-2)), (F(0), F(0)))
    assert sr.constant_model == (((F(0), F(0)), (F(0), F(1, 2))),)
    assert _shear_identity_holds(e, sr)
    assert lc.smat_equal(lc.smat_mul(sr.gauge, sr.gauge_inverse), _ident_smat(e))
    assert lc.smat_equal(lc.smat_mul(sr.gauge_inverse, sr.gauge), _ident_smat(e))
    assert all(r.ok for r in sr.bound_report)


def test_shear_round_trip():
    e = _rank2_n_module(8)
    sr = lc.shear(e)
    u = lc.apply_ui(e.embedding, e.weighting, sr.constant_model, e.truncation)
    back = lc.gauge_transform(u, sr.gauge_inverse, sr.gauge)
    assert all(lc.smat_equal(a, b) for a, b in zip(back.matrices, e.matrices))


def test_shear_recovers_planted_gauge(n2):
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    gauge_terms = {(1, 0): ((0, 1), (0, 0)), (1, 1): ((0, 0), (F(1, 2), 0))}
    e, g, g_inv = gauge_built_module(n2, [c1, c2], gauge_terms, 2, 8)
    assert lc.validate_integrability(e)
    sr = lc.shear(e)
    # the shear gauge undoes the planted basis change: B = G^{-1}
    assert lc.smat_equal(sr.gauge, g_inv)
    assert lc.smat_equal(sr.gauge_inverse, g)
    assert sr.constant_model == (qmat(c1), qmat(c2))
    assert _shear_identity_holds(e, sr)
    assert all(r.ok for r in sr.bound_report)


def test_shear_rank3_with_jordan_block(n1):
    c = ((F(0), F(0), F(0)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1, 2)))
    gauge_terms = {(1,): ((0, 1, 0), (0, 0, 0), (1, 0, 0)), (2,): ((0, 0, 2), (0, 0, 0), (0, 0, 0))}
    e, g, g_inv = gauge_built_module(n1, [c], gauge_terms, 3, 9)
    sr = lc.shear(e)
    assert lc.smat_equal(sr.gauge, g_inv)
    assert _shear_identity_holds(e, sr)
    assert all(r.ok for r in sr.bound_report)


def test_shear_m_even_rank1(m_even):
    h = ws.default_weighting(m_even)
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])
    e = lc.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi)
    sr = lc.shear(e)
    assert lc.smat_equal(sr.gauge, _ident_smat(e))
    assert all(r.ok for r in sr.bound_report)


def test_shear_base_direction_becomes_constant(n1):
    c = ((F(0), F(0)), (F(0), F(1, 2)))
    d = ((F(1), F(0)), (F(0), F(2)))  # commutes with c
    gauge_terms = {(1,): ((0, 1), (0, 0))}
    e, g, g_inv = gauge_built_module(n1, [c], gauge_terms, 2, 8, base_model=[d])
    assert lc.validate_integrability(e)
    sr = lc.shear(e)
    assert sr.constant_base_model == (qmat(d),)


def test_shear_rejects_integer_difference(n1):
    e = build_module(n1, [{(0,): ((0, 0), (0, 1)), (1,): ((0, 1), (0, 0))}], 2, 6)
    with pytest.raises(SingularSylvester):
        lc.shear(e)


def test_shear_agrees_with_brute_oracle():
    e = _rank2_n_module(6)
    sr = lc.shear(e)
    brute = orc.brute_shear_order(e, 3)
    for key, bm in brute.items():
        assert lc.smat_coefficient(sr.gauge, key) == bm


# -- U_I and twisting -----------------------------------------------------------------

def test_apply_ui_twist(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    xi = (F(1, 2), F(0))
    e = lc.apply_ui(emb, h, [((F(0),),), ((F(0),),)], 6, xi_twist=xi)
    consts = [lc.smat_constant_term(a)[0][0] for a in e.matrices]
    assert sorted(consts) == [F(0), F(1, 2)]


def test_twist_reduce_n2(n2):
    emb = lc.facet_embedding(n2)
    reduced, shift = lc.twist_reduce(emb, (F(7, 2), F(-2)))
    assert shift == n2.element((3, -2))
    assert reduced in ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert lc.twist_reduce(emb, (F(0), F(0))) == ((F(0), F(0)), n2.gp.zero())


def test_twist_reduce_m_even_obstruction(m_even):
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])  # (2,0) tensor 1/2: phi-coords integral
    reduced, shift = lc.twist_reduce(emb, xi)
    assert reduced == xi and m_even.gp.is_zero(shift)  # (1,0) not in M_even^gp


# -- unipotence ------------------------------------------------------------------------

def test_unipotence_nilpotent_constant(n2):
    e = build_module(
        n2,
        [{(0, 0): ((0, 1), (0, 0))}, {(0, 0): ((0, 0), (0, 0))}],
        2, 6,
    )
    sigma = lc.ExponentSet(n2, ((F(0), F(0)),))
    for f in mc.faces(n2):
        rep = lc.is_sigma_unipotent(e, sigma, f)
        assert rep.verdict
        assert rep.filtration_ranks == (1, 1)
        assert sum(rep.filtration_ranks) == e.rank


def test_unipotence_vertex_counterexample(m_even):
    h = ws.default_weighting(m_even)
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])
    e = lc.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi, interval_kind="annulus")
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)),))
    verdicts = {
        tuple(sorted(f.generator_indices)): lc.is_sigma_unipotent(e, sigma, f)
        for f in mc.faces(m_even)
    }
    assert verdicts[()].verdict is False  # the vertex
    assert verdicts[()].offending_face is not None
    assert verdicts[(0,)].verdict is True
    assert verdicts[(2,)].verdict is True
    assert verdicts[(0, 1, 2)].verdict is True


def test_unipotence_invariant_under_monomial_twist(n2):
    """Twisting an annulus module by t^m shifts exponents by a lattice vector."""
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    sigma = lc.ExponentSet(n2, ((F(1, 2), F(0)), (F(0), F(0))))
    base = [((F(1, 2),),), ((F(0),),)]
    e = lc.apply_ui(emb, h, base, 6, interval_kind="annulus")
    for shift in ((1, 0), (2, 3), (0, 1)):
        xi_m = tuple(F(x) for x in shift)
        e_twist = lc.apply_ui(emb, h, base, 6, xi_twist=xi_m, interval_kind="annulus")
        for f in mc.faces(n2):
            r1 = lc.is_sigma_unipotent(e, sigma, f)
            r2 = lc.is_sigma_unipotent(e_twist, sigma, f)
            assert r1.verdict == r2.verdict


def test_unipotence_disk_is_exact_comparison(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = lc.apply_ui(emb, h, [((F(1),),)], 6)  # integer exponent 1, disk kind
    # careful: exponent 1 and 0 differ by an integer, so use sigma = {1} alone
    sigma_exact = lc.ExponentSet(n1, ((F(1),),))
    sigma_zero = lc.ExponentSet(n1, ((F(0),),))
    full = next(f for f in mc.faces(n1) if not f.is_proper())
    assert lc.is_sigma_unipotent(e, sigma_exact, full).verdict
    vertex = next(f for f in mc.faces(n1) if not f.generator_indices)
    assert lc.is_sigma_unipotent(e, sigma_exact, vertex).verdict
    assert not lc.is_sigma_unipotent(e, sigma_zero, vertex).verdict
    # on the annulus the same module is {0}-unipotent: 1 = 0 mod Z
    e_ann = lc.apply_ui(emb, h, [((F(1),),)], 6, interval_kind="annulus")
    assert lc.is_sigma_unipotent(e_ann, sigma_zero, vertex).verdict


# -- D_l operators -----------------------------------------------------------------------

def test_dl_constant_term_examples(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    c = build_series(n2, h, {(0, 0): F(3, 7)}, 8)
    for l in (1, 2, 5):
        assert ws.series_equal(lc.dl_constant_term(c, l, emb), c)
    f = build_series(n2, h, {(1, 0): 1}, 8)
    assert lc.dl_constant_term(f, 1, emb).is_zero()
    g = build_series(n2, h, {(0, 0): 1, (1, 1): 1}, 8)
    out = lc.dl_constant_term(g, 1, emb)
    assert ws.series_equal(out, build_series(n2, h, {(0, 0): 1}, 8))


def test_dl_constant_term_survivor_scaling(n2):
    # a term with |m_i| > l survives, scaled by the binomial-type factor
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    f = build_series(n2, h, {(2, 0): 1}, 8)
    out = lc.dl_constant_term(f, 1, emb)
    key = n2.element((2, 0))
    coords = emb.coords(key)
    expected = F(1)
    for mi in coords:
        expected *= F(mi - 1, 1) * F(mi + 1, -1)
    assert out.coeff(key) == expected


def test_dl_projection_and_limit(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    a1 = ((F(0), F(1)), (F(0), F(0)))
    a2 = ((F(0), F(0)), (F(0), F(0)))
    e = lc.apply_ui(emb, h, [a1, a2], 6)
    polys = lc.default_projection_polynomials(e)
    v = (
        build_series(n2, h, {(0, 0): 1, (1, 0): 2}, 6),
        build_series(n2, h, {(0, 0): 5, (0, 1): 3}, 6),
    )
    w = lc.dl_limit(e, v, polys)
    assert w == (F(5), F(0))
    res = lc.residue(e)
    dec = lc.exponents(e)
    target = dec.eigentuples[0]
    for i, r in enumerate(res):
        assert tuple(sum(r[a][b] * w[b] for b in range(2)) for a in range(2)) == tuple(
            target[i] * w[a] for a in range(2)
        )
    # termwise kill: a pure t^m section with small coordinates dies
    vm = (build_series(n2, h, {(1, 0): 1}, 6), build_series(n2, h, {}, 6))
    proj = lc.dl_projection(e, vm, polys, 1)
    assert all(s.is_zero() for s in proj)


def test_dl_limit_rank1(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    e = lc.apply_ui(emb, h, [((F(1, 3),),), ((F(0),),)], 6)
    v = (build_series(n2, h, {(0, 0): 7, (2, 1): 4}, 6),)
    assert lc.dl_limit(e, v, [[F(1)], [F(1)]]) == (F(7),)


def test_dl_projection_agrees_with_limit_at_large_l(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    a1 = ((F(0), F(1)), (F(0), F(0)))
    a2 = ((F(1, 5), F(0)), (F(0), F(1, 5)))
    e = lc.apply_ui(emb, h, [a1, a2], 6)
    polys = lc.default_projection_polynomials(e)
    v = (
        build_series(n2, h, {(0, 0): 2, (1, 1): 1, (2, 0): 3}, 6),
        build_series(n2, h, {(0, 0): 1, (0, 2): 9}, 6),
    )
    w = lc.dl_limit(e, v, polys)
    for l in (2, 3, 5):
        proj = lc.dl_projection(e, v, polys, l)
        zero = n2.gp.zero()
        assert tuple(s.coeff(zero) for s in proj) == w


# -- homotopy ---------------------------------------------------------------------------------

def _all_forms(n2, emb, bound=3):
    ball = n2.index.weighted(ws.default_weighting(n2).values).upto(bound)
    forms = []
    for key in sorted(ball):
        for size in range(emb.r + 1):
            for wedge in itertools.combinations(range(emb.r), size):
                forms.append({(key, wedge): F(1)})
    return forms


def test_homotopy_identity_three_pairs(n2):
    emb = lc.facet_embedding(n2)
    forms = _all_forms(n2, emb)
    pairs = [
        ((F(0), F(0)), (F(1, 2), F(1, 3))),
        ((F(0), F(0)), (F(0), F(0))),
        ((F(1, 5), F(0)), (F(0), F(2, 5))),
    ]
    for xi, xi_p in pairs:
        rep = lc.homotopy_check(emb, xi, xi_p, forms)
        assert rep.all_zero


def test_homotopy_specific_forms(n2):
    emb = lc.facet_embedding(n2)
    zero = (F(0), F(0))
    # 0-form t^m with xi = xi' = 0: phi nabla t^m = t^m = (id - g1 g2) t^m
    rep = lc.homotopy_check(emb, zero, zero, [{(n2.element((1, 0)), ()): F(1)}])
    assert rep.all_zero
    # constant forms: both sides vanish
    rep = lc.homotopy_check(emb, zero, (F(1, 2), F(1, 2)), [{(n2.gp.zero(), (0,)): F(1)}])
    assert rep.all_zero


def test_homotopy_denominator_vanishes(n2):
    emb = lc.facet_embedding(n2)
    # m_l + xi'_l - xi_l = 0 for m = (1, 0) and xi' - xi = (-1, 0)
    coords_one = emb.coords(n2.element((1, 0)))
    delta = tuple(-F(c) for c in coords_one)
    with pytest.raises(DenominatorVanishes):
        lc.homotopy_check(
            emb, (F(0), F(0)), emb.inverse_coords(delta),
            [{(n2.element((1, 0)), (0, 1)): F(1)}],
        )


# -- log-convergence ----------------------------------------------------------------------------

def test_log_convergence_trivial(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = lc.apply_ui(emb, h, [((F(0),),)], 6)
    assert lc.log_convergence_check(e, ws.Radius.p_power(1), ws.Radius.p_power(F(1, 2)), 6)


def test_log_convergence_half(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = lc.apply_ui(emb, h, [((F(0), F(0)), (F(0), F(1, 2)))], 6)
    assert lc.log_convergence_check(e, ws.Radius.p_power(1), ws.Radius.p_power(F(1, 2)), 8)


def test_log_convergence_false_instance(n1):
    # residue 1/5 makes |P_k| grow like p^{k(1 + 1/(p-1))} for p = 5
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = lc.apply_ui(emb, h, [((F(1, 5),),)], 6)
    assert not lc.log_convergence_check(e, ws.Radius.p_power(1), ws.Radius.p_power(F(1, 2)), 8)


def test_shear_randomized_planted_gauges():
    """Seeded sweep: random commuting constant models with NI-safe rational
    eigenvalues, random planted gauges; shear must recover the inverse."""
    import random

    from logmonoid.qlin import qmat, qmat_mul

    rng = random.Random(987)
    # pairwise differences of these are never nonzero integers
    safe = [F(0), F(1, 2), F(1, 3), F(2, 5), F(1, 7)]
    n1 = mc.free_monoid(1)
    checked = 0
    for _ in range(6):
        n = rng.randint(1, 3)
        eigs = [rng.choice(safe) for _ in range(n)]
        nil = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if eigs[i] == eigs[j] and rng.random() < 0.5:
                    nil[i][j] = F(rng.randint(-2, 2))
        model = tuple(
            tuple((eigs[i] if i == j else F(0)) + nil[i][j] for j in range(n))
            for i in range(n)
        )
        gauge_terms = {}
        for key in rng.sample([(1,), (2,), (3,)], rng.randint(1, 2)):
            mat = [[F(0)] * n for _ in range(n)]
            mat[rng.randrange(n)][rng.randrange(n)] = F(rng.randint(-3, 3), rng.randint(1, 3))
            gauge_terms[key] = tuple(tuple(r) for r in mat)
        e, g, g_inv = gauge_built_module(n1, [model], gauge_terms, n, 6)
        assert lc.validate_integrability(e)
        sr = lc.shear(e)
        assert lc.smat_equal(sr.gauge, g_inv)
        assert all(r.ok for r in sr.bound_report)
        checked += 1
    assert checked == 6


# -- one shear per module -------------------------------------------------------------------------


def _connection_fixtures():
    """(name, module) for every connection document and conftest-built module."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        doc = documents.load_json(str(path))
        if "matrices" in doc:
            out.append((path.name, documents.parse_connection(doc)[1]))
    n1, n2, m_even = mc.free_monoid(1), mc.free_monoid(2), mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))])
    out.append(("rank2_n", _rank2_n_module(8)))
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    out.append(("n2_planted", gauge_built_module(
        n2, [c1, c2], {(1, 0): ((0, 1), (0, 0)), (1, 1): ((0, 0), (F(1, 2), 0))}, 2, 6)[0]))
    jordan = ((F(0), F(0), F(0)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1, 2)))
    out.append(("n1_jordan", gauge_built_module(
        n1, [jordan], {(1,): ((0, 1, 0), (0, 0, 0), (1, 0, 0)), (2,): ((0, 0, 2), (0, 0, 0), (0, 0, 0))},
        3, 6)[0]))
    out.append(("n1_base", gauge_built_module(
        n1, [c1], {(1,): ((0, 1), (0, 0))}, 2, 6, base_model=[((F(1), F(0)), (F(0), F(2)))])[0]))
    g1, g2 = m_even.generators[0][0], m_even.generators[1][0]
    planted = gauge_built_module(
        m_even, [c1, c2], {g1: ((0, 1), (0, 0)), g2: ((0, 0), (F(2, 3), 0))}, 2, 4)[0]
    out.append(("m_even_planted", planted))
    out.append(("m_even_planted_annulus", planted._replace(interval_kind="annulus")))
    return out


CONNECTION_FIXTURES = _connection_fixtures()


def _sheared_model(e):
    disk = e._replace(interval_kind="disk") if e.interval_kind == "annulus" else e
    return lc.shear(disk).constant_model


@pytest.mark.parametrize("name,e", CONNECTION_FIXTURES, ids=[n for n, _ in CONNECTION_FIXTURES])
def test_shear_constant_model_is_the_residue(name, e):
    assert _sheared_model(e) == lc.residue(e)


def _unipotence_by_shearing(e, sigma, face):
    """Reference verdict: shear the module, then decompose its constant model."""
    model = lc.residue(e) if lc.smat_is_constant_all(e) else _sheared_model(e)
    decomp = lc._decomposition_from_model(model, e.embedding, e.rank)
    proj, _ = lc._face_projection_matrix(e.monoid, face)
    images = tuple(qmat_vec(proj, xi) for xi in decomp.exponents)
    sigma_images = [qmat_vec(proj, s) for s in sigma.elements]
    modulo = e.interval_kind == "annulus"
    verdict = all(any(lc._vectors_match(x, s, modulo) for s in sigma_images) for x in images)
    return verdict, images, lc._block_filtration_ranks(decomp, model), decomp.exponent_set(e.monoid)


@pytest.mark.parametrize("name,e", CONNECTION_FIXTURES, ids=[n for n, _ in CONNECTION_FIXTURES])
def test_unipotence_matches_shear_then_decompose(name, e):
    zero = tuple(F(0) for _ in range(e.monoid.gp.free_rank))
    sigmas = [lc.exponents(e).exponent_set(e.monoid), lc.ExponentSet(e.monoid, (zero,))]
    compared = 0
    for sigma in sigmas:
        if not lc.check_sd(sigma):
            continue
        for f in mc.faces(e.monoid):
            rep = lc.is_sigma_unipotent(e, sigma, f)
            got = (rep.verdict, rep.face_images, rep.filtration_ranks, rep.sheared_exponents)
            assert got == _unipotence_by_shearing(e, sigma, f)
            compared += 1
    assert compared >= len(mc.faces(e.monoid))


def _torsion_unit_module():
    """Rank 1 over <x, y | 2x = 0>: x is a nonzero unit, so M is not sharp."""
    m = mc.from_presentation(2, [((2, 0), (0, 0))])
    return build_module(m, [{(0,): ((F(1, 2),),), (1,): ((1,),)}], 1, 4,
                        embedding=lc.Embedding(m, ((1,),)))


def _hypothesis_breaking_modules():
    n1, n2 = mc.free_monoid(1), mc.free_monoid(2)
    return [
        ("not_integrable", build_module(n2, [{(1, 0): ((0, 1), (0, 0))}, {}], 2, 3)),
        # integrability at weight 0 already forces the residues to commute
        ("non_commuting", build_module(
            n2, [{(0, 0): ((0, 1), (0, 0)), (1, 0): ((1, 0), (0, 0))}, {(0, 0): ((0, 0), (1, 0))}], 2, 3)),
        ("ni_violated", build_module(n1, [{(0,): ((0, 0), (0, 1)), (1,): ((0, 1), (0, 0))}], 2, 6)),
        ("irrational", build_module(n1, [{(0,): ((0, 2), (1, 0)), (1,): ((1, 0), (0, 0))}], 2, 4)),
        ("not_sharp", _torsion_unit_module()),
    ]


@pytest.mark.parametrize("name,expected", [
    ("not_integrable", NotIntegrable),
    ("non_commuting", NotIntegrable),
    ("ni_violated", SingularSylvester),
    ("irrational", IrrationalExponent),
    ("not_sharp", NotSharp),
])
def test_unipotence_raises_what_shear_raises(name, expected):
    e = dict(_hypothesis_breaking_modules())[name]
    with pytest.raises(expected):
        lc.shear(e)
    zero = tuple(F(0) for _ in range(e.monoid.gp.free_rank))
    sigma = lc.ExponentSet(e.monoid, (zero,))
    for f in mc.faces(e.monoid):
        with pytest.raises(expected):
            lc.is_sigma_unipotent(e, sigma, f)


def test_shear_rejects_annulus_module():
    e = dict(CONNECTION_FIXTURES)["m_even_planted_annulus"]
    with pytest.raises(NotDiskModule):
        lc.shear(e)


def test_unipotence_needs_monoid_support(n2):
    e = build_module(n2, [{(0, 0): ((F(1, 2),),), ((-1, 1), ()): ((1,),)}, {}], 1, 4, kind="annulus")
    sigma = lc.ExponentSet(n2, ((F(1, 2), F(0)),))
    with pytest.raises(NotMonoidSupported):
        lc.is_sigma_unipotent(e, sigma, mc.faces(n2)[0])


# -- integrability is decided once per module -----------------------------------------------------

def test_integrability_is_decided_once(monkeypatch, n2):
    calls = []
    series_mul = lc.series_mul
    monkeypatch.setattr(lc, "series_mul", lambda f, g: calls.append(1) or series_mul(f, g))
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    e = gauge_built_module(n2, [c1, c2], {(1, 0): ((0, 1), (0, 0))}, 2, 4)[0]
    calls.clear()
    assert lc.validate_integrability(e)
    first = len(calls)
    assert first > 0
    assert lc.validate_integrability(e)
    assert e.integrability_defect is None
    assert len(calls) == first


def test_integrability_of_a_replaced_copy_is_its_own(n2):
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    e = gauge_built_module(n2, [c1, c2], {(1, 0): ((0, 1), (0, 0))}, 2, 4)[0]
    assert lc.validate_integrability(e)
    # t^(1,0) N in A^0 leaves -d_1 (t^(1,0) N) = -t^(1,0) N in the bracket
    perturbed = build_module(n2, [{(1, 0): ((0, 1), (0, 0))}, {}], 2, e.truncation).matrices[0]
    e2 = e._replace(matrices=(lc.smat_add(e.matrices[0], perturbed), e.matrices[1]))
    assert not lc.validate_integrability(e2)
    assert e2.integrability_defect[:3] == ("connection", 0, 1)
    assert lc.validate_integrability(e)


def test_integrability_defect_reports_base_matrices(n1):
    c = ((F(0), F(0)), (F(0), F(1, 2)))
    e = build_module(n1, [{(0,): c, (1,): ((0, 1), (0, 0))}], 2, 4,
                     base_terms=[{(0,): ((0, 1), (0, 0))}])
    assert e.integrability_defect == ("base", 0, 0, n1.gp.zero())
    assert not lc.validate_integrability(e)


# -- the residue analysis runs once per module ----------------------------------------------------

def test_unipotence_analyses_the_module_once(monkeypatch):
    """Every face after the first costs no eigenspace or filtration work."""
    counts = {"eigenspaces": 0, "filtration": 0}
    eigenspaces, filtration = lc._generalized_eigenspaces, lc._block_filtration_ranks

    def count(key, fn):
        return lambda *a: counts.__setitem__(key, counts[key] + 1) or fn(*a)

    monkeypatch.setattr(lc, "_generalized_eigenspaces", count("eigenspaces", eigenspaces))
    monkeypatch.setattr(lc, "_block_filtration_ranks", count("filtration", filtration))
    e = dict(CONNECTION_FIXTURES)["m_even_planted"]
    e = e._replace()  # a fresh copy, with nothing cached yet
    sigma = lc.exponents(e).exponent_set(e.monoid)
    faces = mc.faces(e.monoid)
    reports = [lc.is_sigma_unipotent(e, sigma, faces[0])]
    after_one = dict(counts)
    assert after_one["eigenspaces"] > 0 and after_one["filtration"] == 1
    reports += [lc.is_sigma_unipotent(e, sigma, f) for f in faces[1:]]
    lc.shear(e)
    assert counts == after_one
    assert len(faces) == 4
    assert all(r.filtration_ranks == reports[0].filtration_ranks for r in reports)


def test_unipotence_runs_no_smith_form_after_the_first_face(monkeypatch):
    """Semi-saturatedness, the facet rows of (S-D) and the face projections
    are read from the monoid's index after the first face."""
    doc = documents.load_json(DATA / "vertex_counterexample.json")
    ctx, e = documents.parse_connection(doc)  # a fresh monoid, nothing cached
    sigma = documents.parse_sigma(ctx, documents.load_json(DATA / "sigma_zero.json"))
    faces = mc.faces(e.monoid)
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(1) or smith(a))
    lc.is_sigma_unipotent(e, sigma, faces[0])
    assert calls
    calls.clear()
    for f in faces[1:]:
        lc.is_sigma_unipotent(e, sigma, f)
    assert len(faces) == 4 and not calls


def test_dl_operators_reuse_the_module_analysis(monkeypatch, n2):
    calls = []
    eigenspaces = lc._generalized_eigenspaces
    monkeypatch.setattr(lc, "_generalized_eigenspaces", lambda a: calls.append(1) or eigenspaces(a))
    emb = lc.facet_embedding(n2)
    h = ws.default_weighting(n2)
    e = lc.apply_ui(emb, h, [((0, 1), (0, 0)), ((F(1, 5), 0), (0, F(1, 5)))], 4)
    lc.exponents(e)
    first = len(calls)
    v = (build_series(n2, h, {(0, 0): 1, (1, 0): 2}, 4), build_series(n2, h, {(0, 0): 5}, 4))
    polys = lc.default_projection_polynomials(e)
    lc.dl_projection(e, v, polys, 4)
    assert lc.dl_limit(e, v, polys) == (F(5), F(0))
    assert len(calls) == first


def test_projection_polynomials_take_each_eigenvalue_over_all_its_blocks(n2):
    """res_1 has eigenvalue 0 on two joint blocks, with nilpotency index 2 on
    one and 1 on the other: its minimal polynomial is x^2, not x."""
    emb = lc.facet_embedding(n2)
    h = ws.default_weighting(n2)
    res1 = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    res2 = ((0, 0, 0), (0, 0, 0), (0, 0, F(1, 3)))
    e = lc.apply_ui(emb, h, [res1, res2], 4)
    assert lc.exponents(e).eigentuples == ((0, 0), (0, F(1, 3)))
    # Q_i = (minimal polynomial of res_i) / (x - xi_{i,target}), ascending coefficients
    assert lc.default_projection_polynomials(e, 0) == [[0, 1], [F(-1, 3), 1]]
    assert lc.default_projection_polynomials(e, 1) == [[0, 1], [0, 1]]


def _ad_nilpotency_by_powers(nil):
    """Apply ad(N) to every matrix unit until all of them vanish."""
    n = len(nil)
    current = [tuple(tuple(F(1 if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n))
               for i in range(n) for j in range(n)]
    e = 0
    while any(x != 0 for mat in current for row in mat for x in row):
        current = [tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in
                         zip(qmat_mul(nil, x), qmat_mul(x, nil))) for x in current]
        e += 1
    return max(e, 1)


def test_ad_nilpotency_closed_form_matches_the_powers():
    """e = 2k - 1 on conjugates P U P^-1 of strictly upper triangular U, n <= 4."""
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        u = [[F(rng.choice((0, rng.randint(1, 3))), rng.randint(1, 3)) if j > i else F(0)
              for j in range(n)] for i in range(n)]
        while True:
            p = qmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            p_inv = qinverse(p)
            if p_inv is not None:
                break
        nil = qmat_mul(qmat_mul(p, qmat(u)), p_inv)
        e = lc._ad_nilpotency(nil)
        assert e == _ad_nilpotency_by_powers(nil)
        seen.add(e)
    assert seen == {1, 3, 5, 7}


def _bound_report_by_walking_every_lighter_key(e, sr, p=5):
    """The Z_m chain DP as a max over every nonzero proper divisor of m."""
    m, t = e.monoid, e.truncation
    index = m.index.weighted(e.weighting.values)
    ball, keys = index.ball(t), index.upto(t)[1:]
    eigs = [sorted(set(ev)) for ev, *_ in e.eigenbasis_data]
    logz, out = {}, []
    for key in keys:
        coords = e.embedding.coords(key)
        wmin = min(
            max(max((F(padic_valuation(x - y - mi, p)) for x, y in itertools.product(ev, repeat=2)),
                    default=F(0)), F(0))
            for mi, ev in zip(coords, eigs) if mi != 0
        )
        best_prev = F(0)
        for prev in keys:
            if ball[prev] >= ball[key]:
                break
            if prev in logz and m.gp.sub(key, prev) in ball:
                best_prev = max(best_prev, logz[prev])
        logz[key] = wmin + best_prev
        # radius one: the a^{-h(m)} term vanishes
        out.append((key, sr.nilpotency_exponent * logz[key] + 2 * ball[key] * sr.norm_constant_log))
    return out


def test_bound_report_matches_the_walk_over_every_lighter_key():
    for name, e, _ in selftest._shear_fixtures(12):
        sr = lc.shear(e)
        got = [(r.key, r.bound) for r in sr.bound_report]
        assert got == _bound_report_by_walking_every_lighter_key(e, sr), name
