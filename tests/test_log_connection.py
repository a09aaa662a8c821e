"""Embeddings, (S-D) checks, residues/exponents, shearing, U_I, unipotence,
D_l operators, the homotopy identity and log-convergence."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import cli, documents, selftest
from logmonoid import coefficient_maps as cmaps
from logmonoid import constant_models as cmod
from logmonoid import snf
from logmonoid.abelian import AbelianGroup, group_quotient
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import weighted_series as ws
from logmonoid.errors import (
    CertificationFailed,
    DenominatorVanishes,
    IrrationalExponent,
    NIViolated,
    NotDiskModule,
    NotIntegrable,
    NotMonoidSupported,
    NotSemiSaturated,
    NotSharp,
    SDViolated,
)
from logmonoid.qlin import INF, over_lcm, padic_valuation, qmat, qmat_mul, qrank, qsolve, qvec

import fraction_reference
from fraction_reference import matrix_valuation, qidentity, qinverse, qmat_sub
import test_cone
from conftest import build_module, build_series, gauge_built_module

F = Fraction
DATA = Path(__file__).parent / "data"


# -- series matrices: the reference arithmetic the coefficient maps are checked against --

def _render(module, a):
    """The coefficient map a of the module as a matrix of series, annulus
    series on an annulus module (their keys may lie off M)."""
    if module.interval_kind == "annulus":
        return _series_rows(module.weighting, module.truncation, a, module.rank, module.rank)
    return ws.series_matrix(module.weighting, module.truncation, a, module.rank)


def _constant_smat(module, a):
    return tuple(tuple(ws.constant_series(module.monoid, module.weighting, x, module.truncation) for x in row)
                 for row in a)


def _ident_smat(module):
    return _constant_smat(module, qidentity(module.rank))


def _smat_add(a, b):
    return tuple(tuple(ws.series_add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _smat_sub(a, b):
    return tuple(tuple(ws.series_sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _smat_equal(a, b):
    return all(ws.series_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _smat_coefficient(a, key):
    return tuple(tuple(x.coeff(key) for x in row) for row in a)


def _smat_keys(a):
    return {k for row in a for x in row for k, _ in x.terms}


def _smat_partial(a, emb, i):
    """Coefficientwise d_i: t^m -> m_i t^m with m_i the i-th phi-coordinate."""
    return tuple(
        tuple(ws.series(f.monoid, f.weighting, {k: emb.coords(k)[i] * c for k, c in f.terms}, f.truncation,
                        f.annulus) for f in row)
        for row in a
    )


def _shear_identity_holds(module, result):
    """A^i B + d_i B = B A^i_0 as series matrices, for every i."""
    b = result.gauge
    for i, a in enumerate(module.matrices):
        lhs = _smat_add(_smat_mul_by_series(_render(module, a), b), _smat_partial(b, module.embedding, i))
        rhs = _smat_mul_by_series(b, _constant_smat(module, result.constant_model[i]))
        if not _smat_equal(lhs, rhs):
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


def _greedy_facet_rows(m):
    """The pruning facet_embedding did before its one pass: drop the first
    row whose removal keeps rank d while there is one."""
    rows, d = lc._facet_rows(m), m.gp.free_rank
    while len(rows) > d:
        for i in range(len(rows)):
            trial = rows[:i] + rows[i + 1:]
            if qrank(qmat(trial)) == d:
                rows = trial
                break
    return tuple(rows)


POLYGONS = (  # every lattice point of each polygon
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (0, 0)),
    ((0, 0), (2, 0), (2, 1), (1, 2), (0, 1), (1, 0), (1, 1)),
    ((0, 0), (3, 0), (0, 1), (1, 0), (2, 0), (1, 1), (2, 1)),
    ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)),
)


def test_facet_embedding_keeps_the_rows_of_the_greedy_pruning():
    """The rows of the one pass equal those of the greedy pruning on the
    cones over lattice polygons and the pyramids over them, with their
    generators in seeded orders, on the test_cone grid and on every monoid
    of tests/data."""
    rng = random.Random(18)
    monoids = [m for _, m in test_cone.GRID]
    for points in POLYGONS:
        for gens in ([(x, y, 1) for x, y in points], [(x, y, 0, 1) for x, y in points] + [(0, 0, 1, 1)]):
            for _ in range(3):
                monoids.append(mc.from_embedded(rng.sample(gens, len(gens)))[0])
    for path in sorted(DATA.glob("*.json")):
        doc = documents.load_json(path)
        if "elements" not in doc:  # a monoid or connection document
            monoids.append(documents.parse_monoid(doc.get("monoid", doc)).monoid)
    fixtures = [m for m in monoids if mc.is_sharp(m) and mc.is_semi_saturated(m) and not m.index.cone.lines]
    assert sum(len(lc._facet_rows(m)) > m.gp.free_rank for m in fixtures) >= 30
    for m in fixtures:
        assert lc.facet_embedding(m).matrix == _greedy_facet_rows(m)


def test_embedding_inverts_its_matrix_once(monkeypatch, n2):
    """Construction, the module's decomposition and twist_reduce read one
    cached inverse."""
    calls = []
    inverse = lc.inverse_over_lcm
    monkeypatch.setattr(lc, "inverse_over_lcm", lambda a: calls.append(a) or inverse(a))
    emb = lc.Embedding(n2, ((1, 0), (1, 1)))
    e = cmod.apply_ui(emb, ws.default_weighting(n2), [((F(1, 2),),), ((F(1, 3),),)], 4)
    assert e.decomposition.exponents == ((F(1, 2), F(-1, 6)),)
    assert cmod.twist_reduce(emb, (F(7, 2), F(-2)))[1] == n2.element((3, -2))
    assert calls == [emb.matrix]


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


def test_unipotence_refuses_a_sigma_that_fails_sd(m_even):
    """The (S-D) facet check of `is_sigma_unipotent` raises SDViolated, a
    HypothesisError, for Sigma = {0, 3 g2}: facet images 3 apart."""
    g2 = m_even.generators[1]
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)), tuple(F(3 * c) for c in g2[0])))
    e = cmod.apply_ui(lc.facet_embedding(m_even), ws.default_weighting(m_even), [((F(1, 2),),), ((F(0),),)], 4)
    for face in mc.faces(m_even):
        with pytest.raises(SDViolated, match="facet condition"):
            lc.is_sigma_unipotent(e, sigma, face)


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
    e = cmod.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi)
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
    assert _smat_equal(sr.gauge, _ident_smat(e))


def test_shear_rank2_example():
    e = _rank2_n_module(10)
    sr = lc.shear(e)
    one = e.monoid.element((1,))
    assert _smat_coefficient(sr.gauge, one) == ((F(0), F(-2)), (F(0), F(0)))
    assert sr.constant_model == (((F(0), F(0)), (F(0), F(1, 2))),)
    assert _shear_identity_holds(e, sr)
    assert _smat_equal(_smat_mul_by_series(sr.gauge, sr.gauge_inverse), _ident_smat(e))
    assert _smat_equal(_smat_mul_by_series(sr.gauge_inverse, sr.gauge), _ident_smat(e))
    assert all(r.ok for r in sr.bound_report)


def test_shear_round_trip():
    e = _rank2_n_module(8)
    sr = lc.shear(e)
    u = cmod.apply_ui(e.embedding, e.weighting, sr.constant_model, e.truncation)
    back = cmod.gauge_transform(u, sr.gauge_inverse_map, sr.gauge_map)
    assert back.matrices == e.matrices
    assert all(_smat_equal(_render(back, a), _render(e, b)) for a, b in zip(back.matrices, e.matrices))


def test_shear_recovers_planted_gauge(n2):
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    gauge_terms = {(1, 0): ((0, 1), (0, 0)), (1, 1): ((0, 0), (F(1, 2), 0))}
    e, g, g_inv = gauge_built_module(n2, [c1, c2], gauge_terms, 2, 8)
    assert lc.validate_integrability(e)
    sr = lc.shear(e)
    # the shear gauge undoes the planted basis change: B = G^{-1}
    assert _smat_equal(sr.gauge, _render(e, g_inv))
    assert _smat_equal(sr.gauge_inverse, _render(e, g))
    assert sr.constant_model == (qmat(c1), qmat(c2))
    assert _shear_identity_holds(e, sr)
    assert all(r.ok for r in sr.bound_report)


def test_shear_rank3_with_jordan_block(n1):
    c = ((F(0), F(0), F(0)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1, 2)))
    gauge_terms = {(1,): ((0, 1, 0), (0, 0, 0), (1, 0, 0)), (2,): ((0, 0, 2), (0, 0, 0), (0, 0, 0))}
    e, g, g_inv = gauge_built_module(n1, [c], gauge_terms, 3, 9)
    sr = lc.shear(e)
    assert _smat_equal(sr.gauge, _render(e, g_inv))
    assert _shear_identity_holds(e, sr)
    assert all(r.ok for r in sr.bound_report)


def test_shear_m_even_rank1(m_even):
    h = ws.default_weighting(m_even)
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])
    e = cmod.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi)
    sr = lc.shear(e)
    assert _smat_equal(sr.gauge, _ident_smat(e))
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
    with pytest.raises(NIViolated):
        lc.shear(e)


def test_unipotence_builds_no_eigenbasis(monkeypatch):
    """The NI check reads the residue spectra, so the verdicts on a
    non-constant NI module build none of shear's P, P^-1 and P^-1 b P;
    shear then builds one per residue."""
    calls = []
    eigenbasis = lc._eigenbasis_data
    monkeypatch.setattr(lc, "_eigenbasis_data", lambda *a: calls.append(a) or eigenbasis(*a))
    _, e = documents.parse_connection(documents.load_json(DATA / "rank2_connection.json"))
    sigma = lc.ExponentSet(e.monoid, ((F(0),), (F(1, 2),)))
    assert [lc.is_sigma_unipotent(e, sigma, f).verdict for f in mc.faces(e.monoid)] == [True, True]
    assert calls == []
    lc.shear(e)
    assert len(calls) == e.embedding.r


def test_shear_agrees_with_brute_oracle():
    e = _rank2_n_module(6)
    sr = lc.shear(e)
    brute = orc.brute_shear_order(e, 3)
    for key, bm in brute.items():
        assert _smat_coefficient(sr.gauge, key) == bm


# -- U_I and twisting -----------------------------------------------------------------

def test_apply_ui_twist(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    xi = (F(1, 2), F(0))
    e = cmod.apply_ui(emb, h, [((F(0),),), ((F(0),),)], 6, xi_twist=xi)
    consts = [_smat_coefficient(_render(e, a), e.monoid.gp.zero())[0][0] for a in e.matrices]
    assert sorted(consts) == [F(0), F(1, 2)]


def test_twist_reduce_n2(n2):
    emb = lc.facet_embedding(n2)
    reduced, shift = cmod.twist_reduce(emb, (F(7, 2), F(-2)))
    assert shift == n2.element((3, -2))
    assert reduced in ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert cmod.twist_reduce(emb, (F(0), F(0))) == ((F(0), F(0)), n2.gp.zero())


def test_twist_reduce_m_even_obstruction(m_even):
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]
    xi = tuple(F(c, 2) for c in g1[0])  # (2,0) tensor 1/2: phi-coords integral
    reduced, shift = cmod.twist_reduce(emb, xi)
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
    e = cmod.apply_ui(emb, h, [((F(0),),)] * 2, 8, xi_twist=xi, interval_kind="annulus")
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
    e = cmod.apply_ui(emb, h, base, 6, interval_kind="annulus")
    for shift in ((1, 0), (2, 3), (0, 1)):
        xi_m = tuple(F(x) for x in shift)
        e_twist = cmod.apply_ui(emb, h, base, 6, xi_twist=xi_m, interval_kind="annulus")
        for f in mc.faces(n2):
            r1 = lc.is_sigma_unipotent(e, sigma, f)
            r2 = lc.is_sigma_unipotent(e_twist, sigma, f)
            assert r1.verdict == r2.verdict


def test_unipotence_disk_is_exact_comparison(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = cmod.apply_ui(emb, h, [((F(1),),)], 6)  # integer exponent 1, disk kind
    # careful: exponent 1 and 0 differ by an integer, so use sigma = {1} alone
    sigma_exact = lc.ExponentSet(n1, ((F(1),),))
    sigma_zero = lc.ExponentSet(n1, ((F(0),),))
    full = next(f for f in mc.faces(n1) if len(f.generator_indices) == len(n1.generators))
    assert lc.is_sigma_unipotent(e, sigma_exact, full).verdict
    vertex = next(f for f in mc.faces(n1) if not f.generator_indices)
    assert lc.is_sigma_unipotent(e, sigma_exact, vertex).verdict
    assert not lc.is_sigma_unipotent(e, sigma_zero, vertex).verdict
    # on the annulus the same module is {0}-unipotent: 1 = 0 mod Z
    e_ann = cmod.apply_ui(emb, h, [((F(1),),)], 6, interval_kind="annulus")
    assert lc.is_sigma_unipotent(e_ann, sigma_zero, vertex).verdict


# -- D_l operators -----------------------------------------------------------------------

def test_dl_constant_term_examples(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    c = build_series(n2, h, {(0, 0): F(3, 7)}, 8)
    for l in (1, 2, 5):
        assert ws.series_equal(cmod.dl_constant_term(c, l, emb), c)
    f = build_series(n2, h, {(1, 0): 1}, 8)
    assert cmod.dl_constant_term(f, 1, emb).is_zero()
    g = build_series(n2, h, {(0, 0): 1, (1, 1): 1}, 8)
    out = cmod.dl_constant_term(g, 1, emb)
    assert ws.series_equal(out, build_series(n2, h, {(0, 0): 1}, 8))


def test_dl_constant_term_survivor_scaling(n2):
    # a term with |m_i| > l survives, scaled by the binomial-type factor
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    f = build_series(n2, h, {(2, 0): 1}, 8)
    out = cmod.dl_constant_term(f, 1, emb)
    key = n2.element((2, 0))
    coords = emb.coords(key)
    expected = F(1)
    for mi in coords:
        expected *= F(mi - 1, 1) * F(mi + 1, -1)
    assert out.coeff(key) == expected


def test_dl_constant_term_is_the_pair_product(n1, n2, m_even):
    """On t^m, D_l multiplies by prod_i prod_{j<=l} (j^2 - m_i^2) / j^2: a
    seeded check on disk and annulus series (keys with negative
    coordinates) over facet and non-unimodular embeddings, l = 0..5."""
    rng = random.Random(25)
    embeddings = [lc.facet_embedding(m) for m in (n1, n2, m_even)] + [lc.Embedding(n2, ((2, 1), (1, 1)))]
    for emb in embeddings:
        m = emb.monoid
        h = ws.default_weighting(m)
        ball = m.index.weighted(h.values).upto(3)
        for annulus in (False, True):
            keys = sorted({m.gp.sub(a, b) for a in ball for b in ball}) if annulus else ball
            chosen = rng.sample(keys, min(6, len(keys)))
            f = ws.series(m, h, {k: F(rng.randint(-9, 9), rng.randint(1, 4)) for k in chosen}, 6, annulus)
            assert annulus == any(min(emb.coords(k)) < 0 for k, _ in f.terms)
            for l in range(6):
                product = {k: c * math.prod(F(j * j - x * x, j * j) for x in emb.coords(k) for j in range(1, l + 1))
                           for k, c in f.terms}
                out = cmod.dl_constant_term(f, l, emb)
                assert dict(out.terms) == {k: c for k, c in product.items() if c}
                assert (out.truncation, out.annulus) == (f.truncation, annulus)


def test_dl_projection_and_limit(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    a1 = ((F(0), F(1)), (F(0), F(0)))
    a2 = ((F(0), F(0)), (F(0), F(0)))
    e = cmod.apply_ui(emb, h, [a1, a2], 6)
    v = (
        build_series(n2, h, {(0, 0): 1, (1, 0): 2}, 6),
        build_series(n2, h, {(0, 0): 5, (0, 1): 3}, 6),
    )
    w = cmod.dl_limit(e, v)
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
    proj = cmod.dl_projection(e, vm, 1)
    assert all(s.is_zero() for s in proj)


def test_dl_limit_rank1(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    e = cmod.apply_ui(emb, h, [((F(1, 3),),), ((F(0),),)], 6)
    v = (build_series(n2, h, {(0, 0): 7, (2, 1): 4}, 6),)
    # on a rank-1 module every Q_i is 1: the limit is the constant term
    assert cmod.default_projection_polynomials(e) == [[1], [1]]
    assert cmod.dl_limit(e, v) == (F(7),)


def test_dl_projection_agrees_with_limit_at_large_l(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    a1 = ((F(0), F(1)), (F(0), F(0)))
    a2 = ((F(1, 5), F(0)), (F(0), F(1, 5)))
    e = cmod.apply_ui(emb, h, [a1, a2], 6)
    v = (
        build_series(n2, h, {(0, 0): 2, (1, 1): 1, (2, 0): 3}, 6),
        build_series(n2, h, {(0, 0): 1, (0, 2): 9}, 6),
    )
    w = cmod.dl_limit(e, v)
    for l in (2, 3, 5):
        proj = cmod.dl_projection(e, v, l)
        zero = n2.gp.zero()
        assert tuple(s.coeff(zero) for s in proj) == w


def test_dl_limit_fails_its_eigenvector_check_on_a_wrong_target(monkeypatch, n2):
    """Q_i built with a block other than the first as target (a fault of the
    program) projects off the H^0_{xi_1} eigenspace: CertificationFailed."""
    h = ws.default_weighting(n2)
    e = cmod.apply_ui(lc.facet_embedding(n2), h, [((0, 0), (0, F(1, 3))), ((0, 0), (0, 0))], 4)
    v = tuple(build_series(n2, h, {(0, 0): 1}, 4) for _ in range(2))
    assert cmod.dl_limit(e._replace(), v) == (F(-1, 3), F(0))
    blocks, indices = e.joint_blocks, e.nilpotency_indices
    with monkeypatch.context() as mp:
        mp.setitem(e.__dict__, "joint_blocks", blocks[::-1])
        mp.setitem(e.__dict__, "nilpotency_indices", indices[::-1])
        assert cmod.default_projection_polynomials(e) == [[0, 1], [1]]  # the last block as target
    assert e.joint_blocks is blocks
    with pytest.raises(CertificationFailed, match="eigenvector check"):
        cmod.dl_limit(e, v)


def test_dl_limit_fails_its_stabilization_check_without_the_pairs(monkeypatch, n2):
    """D_l without its pair factors (a fault of the program) keeps the
    non-constant terms: CertificationFailed."""
    factor = cmod._dl_factor
    monkeypatch.setattr(cmod, "_dl_factor", lambda e, i, mi, l: factor(e, i, mi, 0))
    h = ws.default_weighting(n2)
    e = cmod.apply_ui(lc.facet_embedding(n2), h, [((F(1, 3),),), ((F(0),),)], 6)
    v = (build_series(n2, h, {(0, 0): 7, (2, 1): 4}, 6),)
    with pytest.raises(CertificationFailed, match="stabilization check"):
        cmod.dl_limit(e, v)


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
        rep = cmod.homotopy_check(emb, xi, xi_p, forms)
        assert rep.all_zero


def test_homotopy_specific_forms(n2):
    emb = lc.facet_embedding(n2)
    zero = (F(0), F(0))
    # 0-form t^m with xi = xi' = 0: phi nabla t^m = t^m = (id - g1 g2) t^m
    rep = cmod.homotopy_check(emb, zero, zero, [{(n2.element((1, 0)), ()): F(1)}])
    assert rep.all_zero
    # constant forms: both sides vanish
    rep = cmod.homotopy_check(emb, zero, (F(1, 2), F(1, 2)), [{(n2.gp.zero(), (0,)): F(1)}])
    assert rep.all_zero


def test_homotopy_denominator_vanishes(n2):
    emb = lc.facet_embedding(n2)
    # m_l + xi'_l - xi_l = 0 for m = (1, 0) and xi' - xi = (-1, 0)
    coords_one = emb.coords(n2.element((1, 0)))
    delta = tuple(-F(c) for c in coords_one)
    with pytest.raises(DenominatorVanishes):
        cmod.homotopy_check(
            emb, (F(0), F(0)), fraction_reference.inverse_coords(emb, delta),
            [{(n2.element((1, 0)), (0, 1)): F(1)}],
        )


# -- log-convergence ----------------------------------------------------------------------------

def test_log_convergence_trivial(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = cmod.apply_ui(emb, h, [((F(0),),)], 6)
    assert lc.log_convergence_check(e, cmaps.Radius.p_power(1), cmaps.Radius.p_power(F(1, 2)), 6)


def test_log_convergence_half(n1):
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = cmod.apply_ui(emb, h, [((F(0), F(0)), (F(0), F(1, 2)))], 6)
    assert lc.log_convergence_check(e, cmaps.Radius.p_power(1), cmaps.Radius.p_power(F(1, 2)), 8)


def test_log_convergence_false_instance(n1):
    # residue 1/5 makes |P_k| grow like p^{k(1 + 1/(p-1))} for p = 5
    h = ws.default_weighting(n1)
    emb = lc.facet_embedding(n1)
    e = cmod.apply_ui(emb, h, [((F(1, 5),),)], 6)
    assert not lc.log_convergence_check(e, cmaps.Radius.p_power(1), cmaps.Radius.p_power(F(1, 2)), 8)


def test_log_convergence_counts_the_shifts_and_the_factorial(n1):
    """At eta = p^-1/10: for the residue 1/2, P_5 e = C(1/2, 5) e is 5-adically
    integral; for the residue 1 at p = 2, P_2 e = (d - 1 + 1)(d + 1) e / 2 = 0,
    where the step to 2 e_1 without its shift would leave e / 2, of
    valuation -1; for d + t, P_5 e carries t^5 / 5!, of valuation -1."""
    h, emb = ws.default_weighting(n1), lc.facet_embedding(n1)
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 10))
    assert lc.log_convergence_check(cmod.apply_ui(emb, h, [((F(1, 2),),)], 6), one, eta, 5)
    assert lc.log_convergence_check(cmod.apply_ui(emb, h, [((F(1),),)], 6), one, eta, 3, p=2)
    e = build_module(n1, [{(1,): ((1,),)}], 1, 6)
    assert lc.log_convergence_check(e, one, eta, 4)
    assert not lc.log_convergence_check(e, one, eta, 5)


def test_log_convergence_refuses_a_non_integrable_module(n2, monkeypatch):
    """t^(0,1) (1/5) E_12 in A^0 alone leaves d_1 A^0 in the bracket: logconv
    refuses the module as the shear does, from the cached integrability
    verdict, whatever the order of the directions."""
    e = build_module(n2, [{(0, 1): ((0, F(1, 5)), (0, 0))}, {}], 2, 3, embedding=lc.Embedding(n2, ((1, 0), (0, 1))))
    assert e.integrability_defect == ("connection", 0, 1, n2.gp.element((0, 1)))
    swapped = e._replace(embedding=lc.Embedding(n2, ((0, 1), (1, 0))), matrices=e.matrices[::-1])
    for module in (e, swapped):
        with pytest.raises(NotIntegrable):
            lc.shear(module)
    monkeypatch.setattr(lc, "_map_mul", None)  # the verdicts are cached: no product runs
    for module in (e, swapped):
        for depth in (1, 2, 3):
            with pytest.raises(NotIntegrable):
                lc.log_convergence_check(module, cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2)), depth)


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
        assert _smat_equal(sr.gauge, _render(e, g_inv))
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
    """Reference verdict: shear the module, then decompose its constant model
    with the Fraction code."""
    model = lc.residue(e) if lc.smat_is_constant_all(e) else _sheared_model(e)
    decomp = fraction_reference.decomposition(model, e.embedding, e.rank)
    verdict, images = fraction_reference.unipotence(decomp, sigma, face, e.interval_kind == "annulus")
    return verdict, images, fraction_reference.filtration_ranks(decomp, model), decomp.exponent_set(e.monoid)


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
    ("ni_violated", NIViolated),
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


def test_map_mul_looks_up_a_pair_sum_only_beside_an_annulus_key(monkeypatch, n2):
    """|h| = 2 h+ - h and h+ is subadditive, so when every key of both
    factors has |h| = h (disk maps) a product looks h up twice per key and
    never per pair; with one annulus key (|h| > h) every pair the h-ordered
    break keeps is looked up."""
    h = ws.default_weighting(n2)
    index = n2.index.weighted(h.values)
    t, ball = 6, index.upto(3)
    disk = cmaps.coefficient_map(h, t, {k: [1] for k in ball})
    annulus = cmaps.coefficient_map(h, t, {k: [1] for k in [*ball, n2.element((1, -1))]}, annulus=True)
    assert any(index.h(k)[2] > index.h(k)[0] for k, _ in annulus[0])
    real, calls = mc.WeightedIndex.h, []
    monkeypatch.setattr(mc.WeightedIndex, "h", lambda self, g: calls.append(g) or real(self, g))
    index.plans.clear()  # the lookups are made while a plan is built
    for a, b in ((disk, disk), (disk, annulus), (annulus, disk)):
        kept = sum(index.h(k1)[0] + index.h(k2)[0] <= t for k1, _ in a[0] for k2, _ in b[0])
        calls.clear()
        cmaps._map_mul(n2, h, t, a[0], b[0], 1)
        keys = len(a[0]) + len(b[0])
        if annulus not in (a, b):
            assert len(calls) == 2 * keys < kept
        else:
            assert len(calls) >= keys + kept


def test_unipotence_needs_monoid_support(n2):
    e = build_module(n2, [{(0, 0): ((F(1, 2),),), ((-1, 1), ()): ((1,),)}, {}], 1, 4, kind="annulus")
    sigma = lc.ExponentSet(n2, ((F(1, 2), F(0)),))
    with pytest.raises(NotMonoidSupported):
        lc.is_sigma_unipotent(e, sigma, mc.faces(n2)[0])


# -- integrability is decided once per module -----------------------------------------------------

def _count_plans(monkeypatch) -> dict:
    """Counts of the pair plans built and of the products gathered through one."""
    counts = {"builds": 0, "gathers": 0}
    init, product = cmaps.PairPlan.__init__, cmaps.PairPlan.product

    def counted_init(self, *args):
        counts["builds"] += 1
        init(self, *args)

    def counted_product(self, a, b):
        counts["gathers"] += 1
        return product(self, a, b)

    monkeypatch.setattr(cmaps.PairPlan, "__init__", counted_init)
    monkeypatch.setattr(cmaps.PairPlan, "product", counted_product)
    return counts


def test_integrability_is_decided_once(monkeypatch, n2):
    counts = _count_plans(monkeypatch)
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    e = gauge_built_module(n2, [c1, c2], {(1, 0): ((0, 1), (0, 0))}, 2, 4)[0]
    n2.index.weighted(e.weighting.values).plans.clear()
    counts.update(builds=0, gathers=0)
    assert lc.validate_integrability(e)
    first = dict(counts)
    assert first == {"builds": 1, "gathers": 2}  # both compositions through one plan
    assert lc.validate_integrability(e)
    assert e.integrability_defect is None
    assert counts == first


def test_integrability_and_depth_2_log_convergence_share_their_products(monkeypatch):
    """(d_i + A^i) A^j is computed once per ordered pair and kept with the
    module: integrability reads both orders, level 1 of log-convergence is
    the maps themselves and level 2 at e_i + e_j reads the stored
    composition, so only the r steps to 2 e_i multiply.  Integrability then
    a depth-2 check take r (r - 1) + r gathers, 1 / 4 / 9 for r = 1 / 2 / 3
    (2 / 7 / 15 when each level multiplied afresh), all through the one
    plan of the module's union of keys."""
    counts = _count_plans(monkeypatch)
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2))
    residues = (((0, 0), (0, F(1, 2))), ((F(1, 3), 0), (0, F(1, 3))), ((F(1, 4), 0), (0, 0)))
    for r, products in ((1, 1), (2, 4), (3, 9)):
        m = mc.free_monoid(r)
        e = gauge_built_module(m, residues[:r], {(1,) + (0,) * (r - 1): ((0, 1), (0, 0))}, 2, 4)[0]
        m.index.weighted(e.weighting.values).plans.clear()
        counts.update(builds=0, gathers=0)
        assert lc.validate_integrability(e)
        assert lc.log_convergence_check(e, one, eta, 2)
        assert counts == {"builds": 1, "gathers": products}, r
        # a second check reuses the stored compositions: only the 2 e_i steps multiply again
        assert lc.log_convergence_check(e, one, eta, 2)
        assert counts == {"builds": 1, "gathers": products + r}, r


def test_a_fresh_copy_of_a_module_builds_its_own_tables(monkeypatch, n2):
    """The stored compositions belong to one module, the pair plans to the
    weighted index: a fresh copy of the module starts with no compositions,
    computes equal ones again and builds no plan, and every plan the first
    copy built stays in the index."""
    counts = _count_plans(monkeypatch)
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    e = gauge_built_module(n2, [c1, c2], {(1, 0): ((0, 1), (0, 0)), (1, 1): ((1, 2), (0, 1))}, 2, 5)[0]
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2))
    plans = n2.index.weighted(e.weighting.values).plans
    plans.clear()
    seen = []
    for f in (e, e._replace()):
        assert "padded" not in f.__dict__ and "_compositions" not in f.__dict__
        counts.update(builds=0, gathers=0)
        assert lc.validate_integrability(f)
        lc.log_convergence_check(f, one, eta, 3)
        lc.shear(f)
        seen.append((dict(counts), dict(plans), f.composition(0, 1)))
    (first, first_plans, c01), (second, second_plans, d01) = seen
    assert first["builds"] >= 1 and second == {"builds": 0, "gathers": first["gathers"]}
    assert second_plans == first_plans and all(p is first_plans[k] for k, p in second_plans.items())
    assert d01 is not c01 and d01 == c01


def test_each_key_is_embedded_once_per_module(monkeypatch):
    """Integrability, log-convergence at two depths and the shear read one
    table of embedding coordinates per module: each key's coordinates are
    computed at most once, and a fresh copy of the module computes its own."""
    calls = []
    coords = lc.Embedding.coords
    monkeypatch.setattr(lc.Embedding, "coords", lambda self, g: calls.append(g) or coords(self, g))
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2))
    for name, e, _ in selftest._shear_fixtures(6):
        if not name.endswith("planted"):
            continue
        first = None
        for f in (e._replace(), e._replace()):
            calls.clear()
            assert lc.validate_integrability(f)
            lc.log_convergence_check(f, one, eta, 2)
            lc.log_convergence_check(f, one, eta, 3)
            lc.shear(f)
            assert calls and len(calls) == len(set(calls)) == f.coords.cache_info().currsize, name
            assert first in (None, sorted(calls))
            first = sorted(calls)


def test_integrability_of_a_replaced_copy_is_its_own(n2):
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    e = gauge_built_module(n2, [c1, c2], {(1, 0): ((0, 1), (0, 0))}, 2, 4)[0]
    assert lc.validate_integrability(e)
    # t^(1,0) N in A^0 leaves -d_1 (t^(1,0) N) = -t^(1,0) N in the bracket
    perturbed = build_module(n2, [{(1, 0): ((0, 1), (0, 0))}, {}], 2, e.truncation).matrices[0]
    e2 = e._replace(matrices=(cmaps.map_sum(e.matrices[0], perturbed), e.matrices[1]))
    assert not lc.validate_integrability(e2)
    assert e2.integrability_defect[:3] == ("connection", 0, 1)
    assert lc.validate_integrability(e)


def test_integrability_defect_reports_base_matrices(n1):
    c = ((F(0), F(0)), (F(0), F(1, 2)))
    e = build_module(n1, [{(0,): c, (1,): ((0, 1), (0, 0))}], 2, 4,
                     base_terms=[{(0,): ((0, 1), (0, 0))}])
    assert e.integrability_defect == ("base", 0, 0, n1.gp.zero())
    assert not lc.validate_integrability(e)


def test_the_connection_path_builds_no_series_until_the_gauge_is_read(monkeypatch, capsys, n1):
    """Parsing, integrability, exponents, the shear, unipotence on every face,
    log-convergence and the CLI shear report build no series: a module holds
    coefficient maps, and a ShearResult renders its gauges as series when
    they are first read, once."""
    calls = []
    original = ws.TruncatedSeries.__new__
    monkeypatch.setattr(ws.TruncatedSeries, "__new__", lambda *args: calls.append(1) or original(*args))
    c = ((F(0), F(0)), (F(0), F(1, 2)))
    modules = [documents.parse_connection(documents.load_json(DATA / "rank2_connection.json"))[1],
               gauge_built_module(n1, [c], {(1,): ((0, 1), (0, 0))}, 2, 6, base_model=[((1, 0), (0, 2))])[0]]
    modules += [e for _, e, _ in selftest._shear_fixtures(5)]
    one, eta = cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2))
    results = []
    for e in modules:
        assert lc.validate_integrability(e)
        sigma = lc.exponents(e).exponent_set(e.monoid)
        results.append(lc.shear(e))
        assert all(lc.is_sigma_unipotent(e, sigma, f).verdict for f in mc.faces(e.monoid))
        lc.log_convergence_check(e, one, eta, 3)
    assert cli.main(["connection", "shear", str(DATA / "rank2_connection.json")]) == 0
    assert "gauge_terms" in capsys.readouterr().out
    assert calls == []
    for sr in results:
        assert sr.gauge is sr.gauge and sr.gauge_inverse is sr.gauge_inverse
        assert len(calls) == 2 * len(sr.constant_model[0]) ** 2
        calls.clear()


# -- the residue analysis runs once per module ----------------------------------------------------

def test_unipotence_analyses_the_module_once(monkeypatch, n2):
    """Exponents, shear, every face and (on a constant module) the D_l
    operators compute each residue's spectrum exactly once, and the
    filtration and Sigma's (S-D) verdict once."""
    fixtures = dict(CONNECTION_FIXTURES)
    modules = [fixtures[name]._replace() for name in ("m_even_planted", "n2_planted", "n1_jordan")]
    h = ws.default_weighting(n2)  # fresh copies above and a new module here: nothing cached yet
    modules.append(cmod.apply_ui(lc.facet_embedding(n2), h, [((0, 1), (0, 0)), ((F(1, 5), 0), (0, F(1, 5)))], 4))
    counts = {}
    spectrum, filtration, facet_rows = lc._residue_spectrum, lc._block_filtration_ranks, lc._facet_rows

    def count(key, fn):
        return lambda *a: counts.__setitem__(key, counts.get(key, 0) + 1) or fn(*a)

    monkeypatch.setattr(lc, "_residue_spectrum", count("spectrum", spectrum))
    monkeypatch.setattr(lc, "_block_filtration_ranks", count("filtration", filtration))
    monkeypatch.setattr(lc, "_facet_rows", count("sd", facet_rows))
    for e in modules:
        counts.clear()
        sigma = lc.exponents(e).exponent_set(e.monoid)
        assert counts == {"spectrum": e.embedding.r}
        faces = mc.faces(e.monoid)
        reports = [lc.is_sigma_unipotent(e, sigma, f) for f in faces]
        lc.shear(e)
        if lc.smat_is_constant_all(e):
            v = (build_series(n2, h, {(0, 0): 1, (1, 0): 2}, 4), build_series(n2, h, {(0, 0): 5}, 4))
            cmod.dl_projection(e, v, 4)
            assert cmod.dl_limit(e, v) == (F(5), F(0))
        assert counts == {"spectrum": e.embedding.r, "filtration": 1, "sd": 1}
        assert len(faces) > 1 and len({r.filtration_ranks for r in reports}) == 1
        assert all(r.sheared_exponents is reports[0].sheared_exponents for r in reports)


def test_unipotence_smith_forms_each_face_projection_once(monkeypatch):
    """Semi-saturatedness and the facet rows of (S-D) take no Smith form:
    each face's first verdict Smith-forms at most its projection, and a
    second pass over all faces reads every projection from the monoid's
    index."""
    doc = documents.load_json(DATA / "vertex_counterexample.json")
    ctx, e = documents.parse_connection(doc)  # a fresh monoid, nothing cached
    sigma = documents.parse_sigma(ctx, documents.load_json(DATA / "sigma_zero.json"))
    faces = mc.faces(e.monoid)
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(1) or smith(a))
    per_face = []
    for f in faces:
        before = len(calls)
        lc.is_sigma_unipotent(e, sigma, f)
        per_face.append(len(calls) - before)
    assert len(faces) == 4 and max(per_face) == 1
    calls.clear()
    for f in faces:
        lc.is_sigma_unipotent(e, sigma, f)
    assert not calls


def test_dl_operators_reuse_the_module_analysis(monkeypatch, n2):
    calls = []
    spectrum = lc._residue_spectrum
    monkeypatch.setattr(lc, "_residue_spectrum", lambda a: calls.append(1) or spectrum(a))
    emb = lc.facet_embedding(n2)
    h = ws.default_weighting(n2)
    e = cmod.apply_ui(emb, h, [((0, 1), (0, 0)), ((F(1, 5), 0), (0, F(1, 5)))], 4)
    lc.exponents(e)
    first = len(calls)
    v = (build_series(n2, h, {(0, 0): 1, (1, 0): 2}, 4), build_series(n2, h, {(0, 0): 5}, 4))
    cmod.dl_projection(e, v, 4)
    assert cmod.dl_limit(e, v) == (F(5), F(0))
    assert len(calls) == first


def test_projection_polynomials_take_each_eigenvalue_over_all_its_blocks(n2):
    """res_1 has eigenvalue 0 on two joint blocks, with nilpotency index 2 on
    one and 1 on the other: its minimal polynomial is x^2, not x."""
    emb = lc.facet_embedding(n2)
    h = ws.default_weighting(n2)
    res1 = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    res2 = ((0, 0, 0), (0, 0, 0), (0, 0, F(1, 3)))
    e = cmod.apply_ui(emb, h, [res1, res2], 4)
    assert lc.exponents(e).eigentuples == ((0, 0), (0, F(1, 3)))
    # Q_i = (minimal polynomial of res_i) / (x - xi_{i,target}), ascending coefficients
    assert cmod.default_projection_polynomials(e) == [[0, 1], [F(-1, 3), 1]]
    # the same blocks with the eigenvalue 1/3 of res_2 negated: the target,
    # the first block, is now the one with index 1 on res_1
    e = cmod.apply_ui(emb, h, [res1, ((0, 0, 0), (0, 0, 0), (0, 0, F(-1, 3)))], 4)
    assert lc.exponents(e).eigentuples == ((0, F(-1, 3)), (0, 0))
    assert cmod.default_projection_polynomials(e) == [[0, 1], [0, 1]]


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
        e = lc._ad_nilpotency(over_lcm(nil))
        assert e == _ad_nilpotency_by_powers(nil)
        seen.add(e)
    assert seen == {1, 3, 5, 7}


def _bound_report_by_walking_every_lighter_key(e, sr, p, qa):
    """The Z_m chain DP as a max over every nonzero proper divisor of m,
    at the radius p^-qa."""
    m, t = e.monoid, e.truncation
    index = m.index.weighted(e.weighting.values)
    ball, keys = index.ball(t), index.upto(t)[1:]
    eigs = [sorted(set(ev)) for ev, *_ in map(fraction_reference.eigenbasis_data, lc.residue(e))]
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
        # a = p^-qa enters as the a^{-h(m)} term: qa h(m) in log-norm form
        out.append((key, sr.nilpotency_exponent * logz[key] + 2 * ball[key] * sr.norm_constant_log
                    + qa * ball[key]))
    return out


def test_bound_report_matches_the_walk_over_every_lighter_key():
    """At radius one and off it (p^-1/2, p^-2), for p = 2, 3, 5."""
    for name, e, _ in selftest._shear_fixtures(12):
        for p in (2, 3, 5):
            for qa in (F(0), F(1, 2), F(2)):
                sr = lc.shear(e, radius=cmaps.Radius.p_power(qa), p=p)
                got = [(r.key, r.bound) for r in sr.bound_report]
                assert got == _bound_report_by_walking_every_lighter_key(e, sr, p, qa), (name, p, qa)


# -- the integer coefficient kernels ---------------------------------------------------------------

def _smat_mul_by_series(a, b):
    """Entry (i, j) as the sum over k of a[i][k] b[k][j], each product by
    the Fraction pair loop of `fraction_reference.series_mul`."""
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = None
            for k, x in enumerate(row):
                term = fraction_reference.series_mul(x, b[k][j])
                acc = term if acc is None else ws.series_add(acc, term)
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def _series_rows(h, t, a, rows, cols):
    """The rows x cols matrix of annulus series (keys may lie off M) of a =
    ((key, row-major integer matrix) pairs, d), the matrices over d."""
    terms, den = a
    return tuple(
        tuple(ws.series(h.monoid, h, {k: F(x[i * cols + j], den) for k, x in terms}, t, annulus=True)
              for j in range(cols))
        for i in range(rows)
    )


def test_map_mul_matches_the_sum_of_series_products(n2, m_even):
    """Seeded grid: square n = 1..3 and n x 1 columns, zero matrices, terms
    that cancel, and keys off the monoid (annulus matrices, where the |h|
    lookup runs), truncated at T = 2..5, over N^2, M_even and the torsion
    monoid of tests/data/torsion.json (M^gp = Z + Z/2); the product of the
    coefficient maps, rendered, is the matrix of summed series products,
    whose key sums the pair loop takes by m.gp.add.  Each monoid's products
    share one plan cache, as a module's do."""
    rng = random.Random(21)
    seen = set()
    torsion = documents.parse_monoid(json.loads((DATA / "torsion.json").read_text())).monoid
    for m in (n2, m_even, torsion):
        h = ws.default_weighting(m)
        index = m.index.weighted(h.values)
        ball = index.upto(4)
        diffs = [m.gp.sub(x, y) for x in ball for y in ball]

        def coefficients(t, rows, cols, annulus):
            out = {}
            if rng.random() < 0.2:
                return cmaps.coefficient_map(h, t, out, annulus)
            for _ in range(rng.randint(1, 5)):
                key = rng.choice(diffs if annulus else ball)
                out[key] = [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
                            for _ in range(rows * cols)]
            return cmaps.coefficient_map(h, t, out, annulus)

        for case in range(90):
            n, cols = rng.randint(1, 3), rng.choice((None, 1))
            cols = n if cols is None else cols
            t, annulus = rng.randint(2, 5), case % 3 == 0
            a, b = coefficients(t, n, n, annulus), coefficients(t, n, cols, annulus)
            if n > 1 and case % 4 == 0:
                # b's second row is minus its first and a's second column its first: every
                # pair of products cancels up to the truncation
                (ax, da), (bx, db) = a, b
                a = tuple((k, tuple(x[r - r % n] if r % n == 1 else x[r] for r in range(n * n))) for k, x in ax), da
                b = tuple((k, tuple(-x[r - cols] if r // cols == 1 else x[r] for r in range(n * cols)))
                          for k, x in bx), db
            sa, sb = _series_rows(h, t, a, n, n), _series_rows(h, t, b, n, cols)
            got = _series_rows(h, t, (cmaps._map_mul(m, h, t, a[0], b[0], cols).items(), a[1] * b[1]), n, cols)
            want = _smat_mul_by_series(sa, sb)
            assert got == want, (case, n, cols)
            seen.add(f"n={n}")
            seen |= {"column"} if cols == 1 and n > 1 else set()
            seen |= {"zero matrix"} if not a[0] or not b[0] else set()
            seen |= {"off the monoid"} if any(not mc.membership(m, k) for k, _ in a[0] + b[0]) else set()
            seen |= {"|h| lookup"} if any(index.h(k)[2] > index.h(k)[0] for k, _ in a[0] + b[0]) else set()
            seen |= {"torsion"} if m.gp.torsion_invariants else set()
            for i, row in enumerate(want):
                for j, x in enumerate(row):
                    terms = {k for kk, y in enumerate(sa[i]) for k, _ in ws.series_mul(y, sb[kk][j]).terms}
                    if terms - {k for k, _ in x.terms}:
                        seen.add("cancelled term")
    assert seen == {"n=1", "n=2", "n=3", "column", "zero matrix", "off the monoid", "|h| lookup", "torsion",
                    "cancelled term"}


def _integrability_defect_by_series(e):
    """The first failing bracket and its least key from series matrices: the
    evaluation that the coefficient maps replaced."""
    r, mul = e.embedding.r, _smat_mul_by_series
    a = [_render(e, x) for x in e.matrices]

    def partial(x, i):
        return _smat_partial(x, e.embedding, i)

    brackets = [(("connection", i, j), _smat_add(
        _smat_sub(partial(a[j], i), partial(a[i], j)), _smat_sub(mul(a[i], a[j]), mul(a[j], a[i]))))
        for i, j in itertools.combinations(range(r), 2)]
    brackets += [(("base", k, i), _smat_add(partial(d, i), _smat_sub(mul(a[i], d), mul(d, a[i]))))
                 for k, d in enumerate(_render(e, x) for x in e.base_matrices or ()) for i in range(r)]
    for label, lhs in brackets:
        keys = _smat_keys(lhs)
        if keys:
            return label + (min(keys),)
    return None


def _log_convergence_by_series(e, a_prime, eta, depth, p=5):
    """The P_k frontier on vectors of series with Gauss norms: the evaluation
    that the integer columns replaced."""
    m, w, t, n, r = e.monoid, e.weighting, e.truncation, e.rank, e.embedding.r
    a = [_render(e, x) for x in e.matrices]

    def valuation(vec):
        return min((ws.gauss_norm(f, a_prime, p).exponent for f in vec if f.terms), default=INF)

    for comp in range(n):
        v = tuple(ws.constant_series(m, w, int(j == comp), t) for j in range(n))
        base = valuation(v)
        frontier = {(0,) * r: v}
        for level in range(1, depth + 1):
            new = {}
            for k, vec in frontier.items():
                for i in range(r):
                    kk = k[:i] + (k[i] + 1,) + k[i + 1:]
                    if kk in new:
                        continue
                    col = tuple((f,) for f in vec)
                    applied = _smat_add(_smat_partial(col, e.embedding, i), _smat_mul_by_series(a[i], col))
                    new[kk] = tuple(ws.series_sub(row[0], ws.series_scale(k[i], g)) for row, g in zip(applied, vec))
            frontier = new
            for k, vec in frontier.items():
                val = valuation(tuple(ws.series_scale(F(1, math.prod(map(math.factorial, k))), f) for f in vec))
                if val is not INF and val + level * eta.value_exponent() < base:
                    return False
    return True


def _grid_modules(rng, m, n, t):
    """An integrable module (a gauge-built diagonal model, with a commuting
    diagonal base matrix or none), its copies with one term added to A^0 or
    to the base matrix, and an annulus module with terms off M."""
    ball = m.index.weighted(ws.default_weighting(m).values).upto(t)

    def mat(diagonal=False):
        return tuple(tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5, 25)))
                           if a == b or not diagonal and rng.random() < 0.5 else F(0) for b in range(n))
                     for a in range(n))

    base = [mat(diagonal=True)] if rng.random() < 0.5 else None
    gauge = {rng.choice(ball[1:])[0]: mat() for _ in range(rng.randint(1, 3))}
    e = gauge_built_module(m, [mat(diagonal=True) for _ in range(2)], gauge, n, t, base_model=base)[0]
    out = [e]
    for which in ("matrices", "base_matrices")[: 1 + (base is not None)]:
        term = selftest._coefficients(m, e.weighting, {rng.choice(ball[1:])[0]: mat()}, t)
        mats = getattr(e, which)
        out.append(e._replace(**{which: (cmaps.map_sum(mats[0], term), *mats[1:])}))
    diffs = [m.gp.sub(x, y) for x in ball for y in ball]
    return out + [build_module(m, [{rng.choice(diffs): mat() for _ in range(3)} for _ in range(2)], n, t,
                               kind="annulus")]


def test_integrability_and_log_convergence_match_the_series_evaluation(n2, m_even):
    """Seeded grid over N^2 and M_even, n = 1..3: integrable modules with and
    without base matrices, copies made non-integrable by one term and annulus
    modules; logconv at a' in {0, 1/2, 1, 2}, eta in {1/5, 1/3, 1/2} and
    depth 1..4, and the shear's constant base model."""
    rng = random.Random(10)
    seen = set()
    for case in range(36):
        m, n, t = (n2, m_even)[case % 2], case % 3 + 1, rng.choice((2, 3, 4))
        for e in _grid_modules(rng, m, n, t):
            defect = e.integrability_defect
            assert defect == _integrability_defect_by_series(e), case
            seen.add(f"{e.interval_kind} {defect[0] if defect else 'integrable'}")
            if e.interval_kind == "annulus":
                continue
            for _ in range(2):
                a, eta, depth = rng.choice((0, F(1, 2), 1, 2)), rng.choice((F(1, 5), F(1, 3), F(1, 2))), rng.randint(1, 4)
                args = (e, cmaps.Radius.p_power(a), cmaps.Radius.p_power(eta), depth)
                if defect is not None:  # P_k along one path is meaningless without integrability
                    with pytest.raises(NotIntegrable):
                        lc.log_convergence_check(*args)
                    continue
                verdict = lc.log_convergence_check(*args)
                assert verdict == _log_convergence_by_series(*args), (case, a, eta, depth)
                seen |= {verdict, f"a'={a}", f"eta={eta}", f"depth={depth}"}
            if e.base_matrices and defect is None:
                try:
                    sr = lc.shear(e)
                except NIViolated:  # the random model broke NI
                    continue
                moved = [_smat_mul_by_series(sr.gauge_inverse, _smat_mul_by_series(_render(e, d), sr.gauge))
                         for d in e.base_matrices]
                assert all(k == m.gp.zero() for d in moved for row in d for x in row for k, _ in x.terms)
                assert sr.constant_base_model == tuple(_smat_coefficient(d, m.gp.zero()) for d in moved), case
                seen.add("base model")
    assert seen == {"disk integrable", "disk connection", "disk base", "annulus connection", "base model",
                    True, False, "a'=0", "a'=1/2", "a'=1", "a'=2", "eta=1/5", "eta=1/3", "eta=1/2",
                    "depth=1", "depth=2", "depth=3", "depth=4"}


def _log_convergence_by_columns(e, a_prime, eta, depth, p=5):
    """The P_k frontier of each basis section on its own: one integer column
    {key: [x]} over a denominator per section, the loop that one n x n
    frontier replaced."""
    q, q_eta = a_prime.value_exponent(), eta.value_exponent()
    m, w, t, n = e.monoid, e.weighting, e.truncation, e.rank
    h = m.index.weighted(w.values).h
    radius = lambda key: q.numerator * h(key)[0]  # noqa: E731
    for comp in range(n):
        frontier = {(0,) * e.embedding.r: ({m.gp.zero(): [int(j == comp) for j in range(n)]}, 1)}
        for level in range(1, depth + 1):
            new = {}
            for k, (col, den) in frontier.items():
                for i, (ai, di) in enumerate(e.matrices):
                    kk = k[:i] + (k[i] + 1,) + k[i + 1:]
                    if kk in new:
                        continue
                    out = cmaps._map_mul(m, w, t, ai, col.items(), 1)
                    for key, x in col.items():
                        cmaps._add_into(out, key, [di * (e.coords(key)[i] - k[i]) * v for v in x])
                    new[kk] = ({key: x for key, x in out.items() if any(x)}, di * den)
            frontier = new
            for k, (col, den) in frontier.items():
                val = cmaps.gauss_valuation(col.items(), den * math.prod(map(math.factorial, k)), p, radius,
                                         q.denominator)
                if val + level * q_eta < 0:
                    return False
    return True


def test_log_convergence_matches_the_per_column_frontier(n2, m_even):
    """Seeded grid over N^2 and M_even, n = 1..3, plus the integrable disk
    fixtures of tests/data: the verdict of the one n x n frontier equals the
    per-section loop's at a' = p^-q, q in {0, 1/3, 1, 2}, eta = p^-1/2, p^-1
    and p^-3 and depth 1, 2, 4."""
    rng = random.Random(19)
    modules = []
    for case in range(24):
        m, n, t = (n2, m_even)[case % 2], case % 3 + 1, rng.choice((2, 3, 4))
        modules += [e for e in _grid_modules(rng, m, n, t)
                    if e.interval_kind == "disk" and e.integrability_defect is None]
    for name in ("rank2_connection.json", "n2_sigma_pair_connection.json"):
        modules.append(documents.parse_connection(documents.load_json(DATA / name))[1])
    verdicts = []
    for e in modules:
        for a, eta, depth in itertools.product((0, F(1, 3), 1, 2), (F(1, 2), 1, 3), (1, 2, 4)):
            args = (e, cmaps.Radius.p_power(a), cmaps.Radius.p_power(eta), depth)
            verdict = lc.log_convergence_check(*args)
            assert verdict == _log_convergence_by_columns(*args), (e.rank, a, eta, depth)
            verdicts.append((e.rank, verdict))
    assert {rank for rank, _ in verdicts} == {1, 2, 3}
    assert {verdict for _, verdict in verdicts} == {True, False}
    assert sum(rank > 1 and not verdict for rank, verdict in verdicts) >= 10


def _shear_by_rational_recursion(e):
    """Gauge, inverse and bound report by per-key Fraction solves: the recursion
    that the integer coefficient matrices and cached Sylvester inverses replaced,
    with the eigenbasis data, e and the norms of log C on Fractions."""
    lc._shear_hypotheses(e)
    a0s = lc.residue(e)
    eigendata = [fraction_reference.eigenbasis_data(a) for a in a0s]
    m, t, n, emb, p = e.monoid, e.truncation, e.rank, e.embedding, 5
    index = m.index.weighted(e.weighting.values)
    ball, keys = index.ball(t), index.upto(t)[1:]
    coords = {k: emb.coords(k) for k in keys}
    acoeff = []
    for a in map(functools.partial(_render, e), e.matrices):
        out = {}
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                for k, c in x.terms:
                    if k in coords:
                        out.setdefault(k, [[F(0)] * n for _ in range(n)])[i][j] = c
        acoeff.append({k: tuple(map(tuple, mat)) for k, mat in out.items()})

    def convolution(left, right, key):
        acc = tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
        for kp, x in left.items():
            y = right.get(m.gp.sub(key, kp))
            if y is not None:
                acc = qmat_sub(acc, qmat_mul(x, y))
        return acc

    def sylvester(a0, mi, bm):
        return qmat_sub(qmat_sub(qmat_mul(a0, bm), qmat_mul(bm, a0)),
                        tuple(tuple(-mi * x for x in row) for row in bm))

    bmats = {m.gp.zero(): qidentity(n)}
    for key in keys:
        rhs = [convolution(ac, bmats, key) for ac in acoeff]
        i0 = next(i for i in range(emb.r) if coords[key][i] != 0)
        rows, target = [], []
        for i in range(n):
            for j in range(n):
                row = [F(0)] * (n * n)
                for k in range(n):
                    row[k * n + j] += a0s[i0][i][k]
                    row[i * n + k] -= a0s[i0][k][j]
                row[i * n + j] += coords[key][i0]
                rows.append(row)
                target.append(rhs[i0][i][j])
        sol = qsolve(qmat(rows), qvec(target))
        bm = tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
        assert all(sylvester(a0s[i], coords[key][i], bm) == rhs[i] for i in range(emb.r))
        bmats[key] = bm
    bprime = {m.gp.zero(): qidentity(n)}
    for key in keys:
        bprime[key] = convolution(bmats, bprime, key)

    def log_norm(a):
        v = matrix_valuation(a, p)
        return F(0) if v is INF else F(-v)

    e_exp = max([1] + [2 * fraction_reference.nilpotency_index(nil) - 1 for *_, nil in eigendata])
    log_c = F(0)
    for _eigs, pmat, pinv, nil in eigendata:
        log_c = max(log_c, 2 * (log_norm(pmat) + log_norm(pinv)) + (e_exp - 1) * max(log_norm(nil), F(0)))
    for ac in acoeff:
        for key, amat in ac.items():  # radius one: the a^{h(m)} factor is 1
            log_c = max(log_c, F(-matrix_valuation(amat, p)))
    eigs = [sorted(set(ev)) for ev, *_ in eigendata]
    gens = [g for g in m.generators if not m.gp.is_zero(g)]
    logz, records = {}, []
    for key in keys:
        wmin = min(
            max(max((F(padic_valuation(x - y - mi, p)) for x, y in itertools.product(ev, repeat=2)),
                    default=F(0)), F(0))
            for mi, ev in zip(coords[key], eigs) if mi != 0
        )
        logz[key] = wmin + max((logz.get(m.gp.sub(key, g), 0) for g in gens), default=0)
        v = matrix_valuation(bmats[key], p)
        records.append(lc.BoundRecord(key, ball[key], None if v is INF else F(-v),
                                      e_exp * logz[key] + 2 * ball[key] * log_c))

    def smat(coeffs):
        return tuple(
            tuple(ws.series(m, e.weighting, {k: mat[i][j] for k, mat in coeffs.items()}, t) for j in range(n))
            for i in range(n)
        )

    return smat(bmats), smat(bprime), tuple(records)


def test_shear_matches_the_rational_recursion():
    for t in range(2, 9):
        for name, e, _ in selftest._shear_fixtures(t):
            sr = lc.shear(e)
            assert (sr.gauge, sr.gauge_inverse, sr.bound_report) == _shear_by_rational_recursion(e), (name, t)


def _conjugated(p, j):
    """P J P^-1 as Fraction rows, for an invertible integer P."""
    return qmat_mul(qmat_mul(qmat(p), qmat(j)), qinverse(qmat(p)))


def test_shear_matches_the_rational_recursion_off_a_unimodular_eigenbasis():
    """The selftest fixtures' residues all have eigenbases with den = dinv
    = 1.  Here the engine's P has det 15, so P^-1 = q / 15 (|P^-1|_5 = 5
    enters log C) and the solver's powers of dinv are live: diag(0, 1/2)
    conjugated by [[0, -15], [1, 1]] beside the scalar 1/3 over N^2, and a
    2 x 2 Jordan block at 1/2 beside the eigenvalue 0 over N, where
    ad(N)^2 != 0 and the series in ad(N) takes three terms.  B is the
    planted gauge, and gauge, inverse and bound report equal the rational
    recursion's."""
    half, third = F(1, 2), F(1, 3)
    cases = [
        (mc.free_monoid(2), [_conjugated([[0, -15], [1, 1]], [[0, 0], [0, half]]), ((third, 0), (0, third))],
         {(1, 0): ((1, 2), (0, -1)), (1, 1): ((0, 0), (half, 3)), (0, 2): ((0, F(1, 5)), (7, 0))}, 1),
        (mc.free_monoid(1), [_conjugated([[0, -15, 0], [1, 0, 0], [0, 1, 1]], [[half, 1, 0], [0, half, 0], [0, 0, 0]])],
         {(1,): ((0, 1, 2), (3, 0, 1), (0, -1, 0)), (2,): ((0, 0, 3), (F(1, 5), 0, 0), (1, 0, 0))}, 3),
    ]
    for m, model, gauge, steps in cases:
        e, _, planted = gauge_built_module(m, model, gauge, len(model[0]), 6)
        _, _, pinv, nil = e.eigenbasis_data[0]
        assert pinv[1] == 15 and lc._log_norm(pinv, 5) == 1 and lc._ad_nilpotency(nil) == steps
        sr = lc.shear(e)
        assert sr.gauge_map == planted and sr.norm_constant_log >= 2
        assert (sr.gauge, sr.gauge_inverse, sr.bound_report) == _shear_by_rational_recursion(e)


def test_shear_builds_each_sylvester_solver_once(monkeypatch):
    """One solver per direction and coordinate that a solve uses; on these
    fixtures every coordinate is at most the weight, so at most r t of them."""
    calls = []
    solver = lc.sylvester_solver
    monkeypatch.setattr(lc, "sylvester_solver", lambda *args: calls.append(repr(args)) or solver(*args))
    solves = built = 0
    for t in (4, 8):
        for name, e, _ in selftest._shear_fixtures(t):
            calls.clear()
            lc.shear(e)
            assert 0 < len(calls) <= e.embedding.r * t, name
            assert len(set(calls)) == len(calls), name
            solves += len(e.monoid.index.weighted(e.weighting.values).upto(t)) - 1
            built += len(calls)
    assert built < solves / 2


def test_shear_visits_only_the_key_pairs_that_exist(monkeypatch):
    """Both gauge recursions scatter, and the Z_m chain DP passes each key's
    value on to key + g: no subtraction, and at most one addition per
    pushed pair, nnz(A) nnz(B) + nnz(B) nnz(B')."""
    t = 20
    e = next(e for name, e, _ in selftest._shear_fixtures(t) if name == "rank2-N2-planted")
    m = e.monoid
    m.index.weighted(e.weighting.values).upto(t)  # grows the ball before counting
    assert lc.validate_integrability(e) and e.eigenbasis_data
    calls = {"sub": 0, "add": 0}
    for op in calls:
        def counted(self, x, y, op=op, f=getattr(AbelianGroup, op)):
            calls[op] += 1
            return f(self, x, y)
        monkeypatch.setattr(AbelianGroup, op, counted)
    sr = lc.shear(e)
    assert calls["sub"] == 0
    nnz_a = len({k for terms, _ in e.matrices for k, _ in terms})
    nnz_b, nnz_b_inv = len(sr.gauge_map[0]), len(sr.gauge_inverse_map[0])
    assert 0 < calls["add"] <= nnz_a * nnz_b + nnz_b * nnz_b_inv
