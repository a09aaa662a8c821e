"""Acceptance criteria, one test per criterion.

Every check is exact (integer/rational identities or valuation-form
comparisons); there are no tolerances anywhere.  Each test prints its own
result line; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import itertools
import random
from fractions import Fraction

from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import weighted_series as ws

from conftest import build_module, build_series, gauge_built_module

F = Fraction
PRIME = 5


def _report(n, ok, detail=""):
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_semi_saturatedness(n1, nm1, m_even, torsion_monoid):
    """N, N\\{1}, M_even semi-saturated; the 2x=2y torsion monoid is not."""
    verdicts = [
        mc.is_semi_saturated(n1) is True,
        mc.is_semi_saturated(nm1[0]) is True,
        mc.is_semi_saturated(m_even) is True,
        mc.is_semi_saturated(torsion_monoid) is False,
    ]
    _report(1, all(verdicts), "semi-saturatedness suite (exact)")


def test_criterion_02_face_census(m_even):
    """faces(M_even): exactly 4 faces and 2 facets, matching brute_faces."""
    faces = mc.faces(m_even)
    facets = mc.facets(m_even)
    budget = orc.EnumerationBudget(6)
    brute = orc.brute_faces(m_even, budget)
    ball = set(orc.enumerate_monoid(m_even, budget))
    fast_sets = {
        frozenset(orc._closure_in_ball(m_even, f.generators(), ball)) for f in faces
    }
    ok = len(faces) == 4 and len(facets) == 2 and fast_sets == set(brute)
    _report(2, ok, f"{len(faces)} faces, {len(facets)} facets, oracle census equal")


def test_criterion_03_section_invariants(n1, n2, n3, m_even):
    """Five fixture surjections: all four SectionData invariants, including
    the sharp-case identity (Im(s) + N) cap Ker(f^gp) = Ker(f)."""
    fixtures = [
        mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((1,)))),
        mc.MonoidHom(n3, m_even, m_even.generators),
        mc.MonoidHom(n1, n1, (n1.element((1,)),)),
        mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((2,)))),
        mc.MonoidHom(
            n3, n2, (n2.element((1, 0)), n2.element((0, 1)), n2.element((1, 1)))
        ),
    ]
    count = 0
    for f in fixtures:
        sd = mc.section(f)  # machine-checks every invariant internally
        # re-verify the two headline identities explicitly
        for g in f.target.generators:
            assert f.gp_apply(sd.section.gp_apply(g)) == g
        assert sd.kernel.free_rank == f.source.gp.free_rank - f.target.gp.free_rank
        count += 1
    _report(3, count == 5, f"{count} surjections, all invariants machine-checked")


def _shear_fixtures():
    n1 = mc.free_monoid(1)
    n2 = mc.free_monoid(2)
    m_even = mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))])
    t = 12
    fixtures = []
    # rank 2 on N: diag(0, 1/2) + t E12
    fixtures.append(
        ("rank2-N", build_module(
            n1, [{(0,): ((0, 0), (0, F(1, 2))), (1,): ((0, 1), (0, 0))}], 2, t
        ), None)
    )
    # rank 1 on N with several orders
    fixtures.append(
        ("rank1-N", build_module(
            n1, [{(0,): ((F(1, 3),),), (1,): ((1,),), (2,): ((F(2, 7),),), (3,): ((F(-1, 2),),)}],
            1, t
        ), None)
    )
    # rank 2 on N^2, planted gauge in both directions
    e, g, g_inv = gauge_built_module(
        n2,
        [((F(0), F(0)), (F(0), F(1, 2))), ((F(1, 3), F(0)), (F(0), F(1, 3)))],
        {(1, 0): ((0, 1), (0, 0)), (1, 1): ((0, 0), (F(1, 2), 0)), (0, 2): ((0, F(1, 5)), (0, 0))},
        2, t,
    )
    fixtures.append(("rank2-N2-planted", e, (g, g_inv)))
    # rank 3 on N with a Jordan block
    e3, g3, g3_inv = gauge_built_module(
        n1,
        [((F(0), F(0), F(0)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1, 2)))],
        {(1,): ((0, 1, 0), (0, 0, 1), (0, 0, 0)), (2,): ((0, 0, 3), (0, 0, 0), (0, 0, 0))},
        3, t,
    )
    fixtures.append(("rank3-N-jordan", e3, (g3, g3_inv)))
    # rank 2 on M_even, gauge planted on the interior generator t^{g2}
    from conftest import smat_neumann_inverse

    h = ws.default_weighting(m_even)
    emb_me = lc.facet_embedding(m_even)
    u = lc.apply_ui(
        emb_me, h,
        [((F(0), F(0)), (F(0), F(1, 2))), ((F(0), F(0)), (F(0), F(1, 3)))],
        t,
    )
    g2 = m_even.generators[1]
    gauge = tuple(
        tuple(
            ws.series(
                m_even, h,
                {m_even.gp.zero(): F(1 if i == j else 0), g2: F(1) if (i, j) == (0, 1) else F(0)},
                t,
            )
            for j in range(2)
        )
        for i in range(2)
    )
    gauge_inv = smat_neumann_inverse(gauge)
    em = lc.gauge_transform(u, gauge, gauge_inv)
    fixtures.append(("rank2-M_even-planted", em, (gauge, gauge_inv)))
    return fixtures


def test_criterion_04_shear_suite():
    """>= 5 fixture connections, T = 12: the all-directions gauge identity,
    B B' = I, the round trip, and the norm bound in valuation form."""
    checked = 0
    for name, e, planted in _shear_fixtures():
        assert lc.validate_integrability(e), name
        sr = lc.shear(e, p=PRIME)
        n = e.rank
        ident = lc.smat_from_rational(
            e.monoid, e.weighting,
            tuple(tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)),
            e.truncation,
        )
        # (a) A^i B + d_i B = B A^i_0 for every i (the (**) family, all m)
        for i in range(e.embedding.r):
            lhs = lc.smat_add(
                lc.smat_mul(e.matrices[i], sr.gauge),
                lc.smat_partial(sr.gauge, e.embedding, i),
            )
            rhs = lc.smat_mul(
                sr.gauge,
                lc.smat_from_rational(
                    e.monoid, e.weighting, sr.constant_model[i], e.truncation
                ),
            )
            assert lc.smat_equal(lhs, rhs), f"{name}: gauge identity (i={i})"
        # (b) gauge invertibility
        assert lc.smat_equal(lc.smat_mul(sr.gauge, sr.gauge_inverse), ident), name
        assert lc.smat_equal(lc.smat_mul(sr.gauge_inverse, sr.gauge), ident), name
        # (c) round trip through U_I
        u = lc.apply_ui(e.embedding, e.weighting, sr.constant_model, e.truncation)
        back = lc.gauge_transform(u, sr.gauge_inverse, sr.gauge)
        assert all(
            lc.smat_equal(a, b) for a, b in zip(back.matrices, e.matrices)
        ), f"{name}: round trip"
        # (d) |B_m| <= Z_m^e C^{2h(m)} a^{-h(m)} in valuation form
        assert all(r.ok for r in sr.bound_report), f"{name}: norm bound"
        if planted is not None:
            g, g_inv = planted
            assert lc.smat_equal(sr.gauge, g_inv), f"{name}: planted gauge"
        checked += 1
    _report(4, checked >= 5, f"{checked} fixtures at T=12, all identities exact")


def test_criterion_05_vertex_counterexample(m_even):
    """The rank-1 module with nabla(e) = e dx/(2x): {0}-unipotent along both
    facets, NOT {0}-unipotent at the vertex."""
    h = ws.default_weighting(m_even)
    emb = lc.facet_embedding(m_even)
    g1 = m_even.generators[0]  # ambient (2, 0): t^{g1} = x
    xi = tuple(F(c, 2) for c in g1[0])
    e = lc.apply_ui(emb, h, [((F(0),),)] * 2, 12, xi_twist=xi, interval_kind="annulus")
    sigma = lc.ExponentSet(m_even, ((F(0), F(0)),))
    verdicts = {}
    for f in mc.faces(m_even):
        verdicts[tuple(sorted(f.generator_indices))] = lc.is_sigma_unipotent(
            e, sigma, f
        ).verdict
    ok = (
        verdicts[(0,)] is True
        and verdicts[(2,)] is True
        and verdicts[()] is False
        and verdicts[(0, 1, 2)] is True
    )
    _report(5, ok, f"facets true/true, vertex false: {verdicts}")


def test_criterion_06_dl_suite(n2):
    """D_l kills tracked t^m with 0 < |m_i| <= l and fixes constants; dl_limit
    lands in H^0_{xi_1} and agrees with dl_projection for l >= T."""
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    t = 6
    # termwise annihilation and constants
    killed = build_series(n2, h, {(1, 0): 1, (0, 2): 3, (2, 1): 5}, t)
    out = lc.dl_constant_term(killed, t, emb)
    const = build_series(n2, h, {(0, 0): F(3, 7)}, t)
    ok_const = all(
        ws.series_equal(lc.dl_constant_term(const, l, emb), const) for l in (1, 3, 6)
    )
    ok_kill = out.is_zero()
    # projections on two constant-model fixtures
    fixtures = [
        ([((F(0), F(1)), (F(0), F(0))), ((F(0), F(0)), (F(0), F(0)))], 2),
        ([((F(1, 5), F(0)), (F(0), F(1, 5))), ((F(0), F(1)), (F(0), F(0)))], 2),
    ]
    ok_proj = True
    for model, rank in fixtures:
        e = lc.apply_ui(emb, h, model, t)
        polys = lc.default_projection_polynomials(e)
        v = (
            build_series(n2, h, {(0, 0): 2, (1, 0): 1, (1, 1): 4}, t),
            build_series(n2, h, {(0, 0): 5, (0, 1): 7}, t),
        )
        w = lc.dl_limit(e, v, polys)  # asserts res_i(w) = xi_{i,1} w internally
        res = lc.residue(e)
        target = lc.exponents(e).eigentuples[0]
        for i, r in enumerate(res):
            img = tuple(sum(r[a][b] * w[b] for b in range(rank)) for a in range(rank))
            if img != tuple(target[i] * w[a] for a in range(rank)):
                ok_proj = False
        for l in (t, t + 2):
            proj = lc.dl_projection(e, v, polys, l)
            got = tuple(s.coeff(n2.gp.zero()) for s in proj)
            nonconst = any(
                k != n2.gp.zero() for s in proj for k, _ in s.terms
            )
            if got != w or nonconst:
                ok_proj = False
    _report(6, ok_const and ok_kill and ok_proj, "D_l termwise + H^0 witnesses exact")


def test_criterion_07_homotopy(n2):
    """nabla_F phi + phi nabla_F = id - g1 g2 on all tracked forms for three
    NI pairs (xi, xi')."""
    emb = lc.facet_embedding(n2)
    ball = n2.index.weighted(ws.default_weighting(n2).values).upto(4)
    forms = []
    for key in sorted(ball):
        for size in range(emb.r + 1):
            for wedge in itertools.combinations(range(emb.r), size):
                forms.append({(key, wedge): F(1)})
    pairs = [
        ((F(0), F(0)), (F(1, 2), F(1, 3))),
        ((F(1, 5), F(2, 5)), (F(3, 5), F(1, 5))),
        ((F(0), F(0)), (F(0), F(0))),
    ]
    ok = True
    for xi, xi_p in pairs:
        rep = lc.homotopy_check(emb, xi, xi_p, forms)
        ok = ok and rep.all_zero
    _report(7, ok, f"{len(pairs)} pairs, {len(forms)} forms, residuals identically 0")


def test_criterion_08_log_convexity(n2):
    """|f|_{a^c b^{1-c}} <= |f|_a^c |f|_b^{1-c} for 20 seeded random series."""
    rng = random.Random(20260808)
    h = ws.default_weighting(n2)
    cs = [F(1, 4), F(1, 2), F(3, 4)]
    trials = 0
    ok = True
    while trials < 20:
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            key = n2.element((rng.randint(-3, 3), rng.randint(-3, 3)))
            coeffs[key] = F(rng.randint(-50, 50), rng.randint(1, 20))
        f = ws.series(n2, h, coeffs, 12, annulus=True)
        if f.is_zero():
            continue
        trials += 1
        qa = F(rng.randint(0, 8), rng.randint(1, 4))
        qb = F(rng.randint(0, 8), rng.randint(1, 4))
        a, b = ws.Radius(qa), ws.Radius(qb)
        va = ws.gauss_norm(f, a, PRIME).exponent
        vb = ws.gauss_norm(f, b, PRIME).exponent
        for c in cs:
            vm = ws.gauss_norm(f, a.mix(b, c), PRIME).exponent
            if vm < c * va + (1 - c) * vb:
                ok = False
    _report(8, ok and trials == 20, f"{trials} seeded series at c in {{1/4, 1/2, 3/4}}")


def test_criterion_09_saturation_invariance(nm1):
    """A_M[a,b] = A_{M^sat}[a,b] for M = N\\{1} on sampled points and
    10 sampled intervals with 0 < a <= b."""
    m, _ = nm1
    pts = [
        ws.valuation_point(m, (F(2) * q, F(3) * q))
        for q in (F(0), F(1, 3), F(1, 2), F(1), F(7, 4))
    ]
    rng = random.Random(7)
    count = 0
    ok = True
    for _ in range(10):
        qb = F(rng.randint(0, 4), rng.randint(1, 3))
        qa = qb + F(rng.randint(0, 4), rng.randint(1, 3))
        ok = ok and ws.saturation_invariance_check(m, ws.Radius(qa), ws.Radius(qb), pts)
        count += 1
    _report(9, ok and count == 10, f"{count} intervals, membership + h+ bound agree")


def test_criterion_10_oracle_equivalence(n1, n2, nm1, m_even):
    """fast vs brute: membership, faces, h+, and order <= 3 shear."""
    budget = orc.EnumerationBudget(6)
    ok = True
    for m in (n1, n2, nm1[0], m_even):
        h = ws.default_weighting(m)
        ball = set(orc.enumerate_monoid(m, budget))
        fast_faces = {
            frozenset(orc._closure_in_ball(m, f.generators(), ball))
            for f in mc.faces(m)
        }
        ok = ok and fast_faces == set(orc.brute_faces(m, budget))
        probes = set(ball)
        sample = sorted(ball)[:10]
        for x in sample:
            for y in sample:
                probes.add(m.gp.sub(x, y))
        for g in probes:
            if h(g) > 6:
                continue
            ok = ok and mc.membership(m, g) == (g in ball)
            if ws.h_abs(m, h, g) <= 6:
                ok = ok and ws.h_plus(m, h, g) == orc.brute_h_plus(m, g, budget)
    # order <= 3 shear agreement on the small grid
    for name, e, _ in _shear_fixtures()[:3]:
        sr = lc.shear(e, p=PRIME)
        brute = orc.brute_shear_order(e, 3)
        for key, bm in brute.items():
            ok = ok and lc.smat_coefficient(sr.gauge, key) == bm
    _report(10, ok, "membership, faces, h+, order<=3 shear all agree")
