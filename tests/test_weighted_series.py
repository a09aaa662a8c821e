"""Weightings, h+/h-/|h|, truncated series arithmetic, Gauss norms,
polyannulus points."""

import json
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import cone, documents
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import weighted_series as ws
from logmonoid.errors import HypothesisError, NotTorsionFree
from logmonoid.qlin import INF, padic_valuation

import fraction_reference
from conftest import build_series, vertex_point

P = 5


# -- weightings ----------------------------------------------------------------

def test_default_weighting_n2(n2):
    h = ws.default_weighting(n2)
    assert h.values == (1, 1)


def test_default_weighting_m_even_is_valid(m_even):
    h = ws.default_weighting(m_even)
    assert all(v > 0 for v in h.values)
    g1, g2, g3 = m_even.generators
    # h extends to a homomorphism: h(g1) + h(g3) = 2 h(g2)
    assert h(m_even.gp.add(g1, g3)) == 2 * h(g2)


def test_default_weighting_group_is_zero(z_monoid):
    h = ws.default_weighting(z_monoid)
    assert set(h.values) == {0}


def test_weighting_rejects_nonvanishing_on_units(z_monoid):
    with pytest.raises(ValueError):
        mc.Weighting(z_monoid, (1, 1))


def test_weighting_rejects_non_homomorphism(m_even):
    # g1 + g3 = 2 g2 forces h1 + h3 = 2 h2
    with pytest.raises(ValueError):
        mc.Weighting(m_even, (1, 1, 2))


def test_coordinate_sum_weighting_m_even(m_even):
    h = mc.Weighting(m_even, (2, 2, 2))  # ambient coordinate sum restriction
    assert h(m_even.generators[0]) == 2


# -- h+, h-, |h| ----------------------------------------------------------------

def test_h_plus_n2(n2):
    h = ws.default_weighting(n2)
    g = n2.element((1, -1))
    assert ws.h_plus(n2, h, g) == 1  # y = (1, 0)
    assert ws.h_plus(n2, h, g) - h(g) == 1
    assert ws.h_abs(n2, h, g) == 2


def test_h_plus_on_monoid_elements(n2, m_even):
    for m in (n2, m_even):
        h = ws.default_weighting(m)
        for g in m.generators:
            assert ws.h_plus(m, h, g) == h(g)


def test_h_plus_m_even_coordinate_sum(m_even):
    h = mc.Weighting(m_even, (2, 2, 2))
    g1, _, g3 = m_even.generators
    diff = m_even.gp.sub(g1, g3)  # ambient (2, -2)
    assert ws.h_plus(m_even, h, diff) == 2  # y = (2, 0)
    assert ws.h_plus(m_even, h, diff) - h(diff) == 2


def test_h_identities_on_grid(n2, m_even):
    """|h| = h+ + h- = 2 h+ - h everywhere; bounded search equals the oracle
    for |h| <= 10."""
    budget = orc.EnumerationBudget(10)
    for m in (n2, m_even):
        h = ws.default_weighting(m)
        ball = orc.enumerate_monoid(m, orc.EnumerationBudget(5))
        for x in ball:
            for y in ball:
                g = m.gp.sub(x, y)
                hp = ws.h_plus(m, h, g)
                assert ws.h_abs(m, h, g) == 2 * hp - h(g)
                if ws.h_abs(m, h, g) <= 10:
                    assert hp == orc.brute_h_plus(m, g, budget)


# -- series arithmetic -------------------------------------------------------------

def test_difference_of_squares(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(0,): 1, (1,): 1}, 8)
    g = build_series(n1, h, {(0,): 1, (1,): -1}, 8)
    prod = ws.series_mul(f, g)
    expected = build_series(n1, h, {(0,): 1, (2,): -1}, 8)
    assert ws.series_equal(prod, expected)


def test_xy_equals_z_squared(m_even):
    h = ws.default_weighting(m_even)
    g1, g2, g3 = m_even.generators
    tx = ws.series(m_even, h, {g1: 1}, 8)
    ty = ws.series(m_even, h, {g3: 1}, 8)
    tz = ws.series(m_even, h, {g2: 1}, 8)
    assert ws.series_equal(ws.series_mul(tx, ty), ws.series_mul(tz, tz))


# a test-local reference: a series as the Fraction dict of its nonzero terms

def _ref_terms(m, h, coeffs, t):
    """The nonzero terms of coeffs with |h| <= t."""
    return {k: Fraction(c) for k, c in coeffs.items() if c and ws.h_abs(m, h, k) <= t}


def _ref_mul(m, h, x, y, t):
    """Every term pair, kept when |h| of the sum is within the truncation."""
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            k = m.gp.add(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return _ref_terms(m, h, out, t)


def _ref_norm(m, h, x, t, qa, qb, p):
    """(min over terms of v_p(c) - qa h^-(k) + qb h^+(k), stale), term by term."""
    vals = {k: padic_valuation(c, p) - qa * (ws.h_plus(m, h, k) - h(k)) + qb * ws.h_plus(m, h, k)
            for k, c in x.items()}
    best = min(vals.values(), default=INF)
    return best, any(v == best and ws.h_abs(m, h, k) == t for k, v in vals.items())


def _assert_matches(f, ref, t, annulus):
    """f holds integers only, and its views read the reference terms."""
    terms, den = f.coefficients
    assert all(type(x) is int for _, xs in terms for x in xs) and type(den) is int and den > 0
    assert (f.truncation, f.annulus) == (t, annulus)
    assert dict(f.terms) == ref and [k for k, _ in f.terms] == sorted(ref)
    assert all(type(c) is Fraction for _, c in f.terms)
    zero = f.monoid.gp.zero()
    far = f.monoid.gp.scale(t + 1, f.monoid.generators[-1])
    assert all(f.coeff(k) == c for k, c in ref.items()) and f.coeff(far) == 0
    assert f.coeff(zero) == ref.get(zero, 0) and f.is_zero() == (not ref)


def _random_series(rng, m, h, t, annulus):
    """Seeded small rationals on part of the ball of weight <= t + 1 or, on
    an annulus, on differences of its elements (negative h included); the
    series and its reference terms."""
    ball = m.index.weighted(h.values).upto(t + 1) if mc.is_sharp(m) else [
        m.gp.add(m.gp.scale(a, m.generators[0]), m.gp.scale(b, m.generators[2]))
        for a in range(-2, 3) for b in range(t + 2)
    ]
    keys = {rng.choice(ball) for _ in range(12)}
    if annulus:
        keys |= {m.gp.sub(rng.choice(ball), rng.choice(ball)) for _ in range(12)}
    coeffs = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for k in keys}
    f = ws.series(m, h, coeffs, t, annulus=annulus)
    ref = _ref_terms(m, h, coeffs, t)
    _assert_matches(f, ref, t, annulus)
    return f, ref


def _units_monoid():
    return mc.from_embedded([[1, 0], [-1, 0], [0, 1]])[0]  # Z x N


def test_series_mul_matches_every_pair_product(n1, n2, m_even):
    """Disk and annulus series (negative-h terms), mixed truncations and a
    monoid with units (Z x N) against the unpruned double loop: series,
    series_mul and series_equal against the Fraction dicts, with their
    coeff and terms views."""
    rng = random.Random(5)
    seen = set()
    for m in (n1, n2, m_even, _units_monoid()):
        h = ws.default_weighting(m)
        for annulus in (False, True):
            for _ in range(8):
                f, x = _random_series(rng, m, h, rng.randint(0, 5), annulus)
                g, y = _random_series(rng, m, h, rng.randint(0, 5), annulus and rng.random() < 0.7)
                t, either = min(f.truncation, g.truncation), f.annulus or g.annulus
                prod = ws.series_mul(f, g)
                assert prod == fraction_reference.series_mul(f, g)
                _assert_matches(prod, _ref_mul(m, h, x, y, t), t, either)
                same = _ref_terms(m, h, x, t) == _ref_terms(m, h, y, t)
                assert ws.series_equal(f, g) == same and ws.series_equal(f, f)
                seen.add(f"equal={same}")
    assert seen == {"equal=True", "equal=False"}


def test_gauss_norms_match_the_least_term_valuation(n1, n2, m_even):
    """gauss_norm and gauss_norm_interval (the value and the stale flag) of
    disk and annulus series with mixed truncations against the term-by-term
    minimum over the Fraction dicts, at p = 2, 3, 5."""
    rng = random.Random(6)
    seen = set()
    for m in (n1, n2, m_even, _units_monoid()):
        h = ws.default_weighting(m)
        for annulus in (False, True):
            for _ in range(8):
                f, x = _random_series(rng, m, h, rng.randint(0, 5), annulus)
                # a second series (checked by _random_series) and a scale factor
                # are drawn, so f, a and b stay the draws seed 6 gives after them
                _random_series(rng, m, h, rng.randint(0, 5), annulus and rng.random() < 0.7)
                rng.randint(-4, 4), rng.choice((1, 3, 10))
                for p in (2, 3, 5):
                    qa, qb = (Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(2))
                    a, b = cmaps.Radius(qa), cmaps.Radius(qb)
                    for got, want in ((ws.gauss_norm(f, a, p), _ref_norm(m, h, x, f.truncation, qa, qa, p)),
                                      (ws.gauss_norm_interval(f, a, b, p), _ref_norm(m, h, x, f.truncation, qa, qb, p))):
                        assert tuple(got) == want
                        seen.add(f"stale={got.stale}")
    assert seen == {"stale=True", "stale=False"}


def test_disk_series_reject_negative_support(n1):
    h = ws.default_weighting(n1)
    with pytest.raises(ValueError):
        build_series(n1, h, {(-1,): 1}, 6)
    # the same support is fine on an annulus
    build_series(n1, h, {(-1,): 1}, 6, annulus=True)


def test_series_matrix_applies_the_disk_check(n2):
    """A 2 x 2 map on keys of M renders entry by entry as `series` builds
    it; a key with h^-(m) > 0 raises the disk check instead of coming back
    as disk-flagged series."""
    h = ws.default_weighting(n2)
    inside = {n2.element((0, 0)): [1, 0, 0, 1], n2.element((1, 2)): [Fraction(1, 3), 0, -2, Fraction(5, 6)]}
    a = cmaps.coefficient_map(h, 4, inside)
    rendered = ws.series_matrix(h, 4, a, 2)
    assert rendered == tuple(tuple(ws.series(n2, h, {k: x[2 * i + j] for k, x in inside.items()}, 4)
                                   for j in range(2)) for i in range(2))
    assert rendered[1][0].terms == ((n2.element((1, 2)), -2),)
    off = cmaps.coefficient_map(h, 4, {**inside, n2.element((1, -1)): [0, 1, 0, 0]}, annulus=True)
    with pytest.raises(ValueError, match="disk series cannot carry terms with h\\^-\\(m\\) > 0"):
        ws.series_matrix(h, 4, off, 2)


# -- Gauss norms ---------------------------------------------------------------------

def test_gauss_norm_two_term_tie(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(1,): P, (2,): 1}, 8)
    nr = ws.gauss_norm(f, cmaps.Radius.p_power(1), P)
    assert nr.exponent == 2  # both terms give p^{-2}
    assert not nr.stale


def test_gauss_norm_constant(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(0,): Fraction(3, 5)}, 8)
    for q in (0, 1, Fraction(7, 2)):
        assert ws.gauss_norm(f, cmaps.Radius.p_power(q), P).exponent == -1


def test_gauss_norm_stale_at_frontier(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(4,): 1}, 4)
    assert ws.gauss_norm(f, cmaps.Radius.one(), P).stale


def test_log_convexity_spot(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(1,): P, (2,): 1}, 8)
    n_mid = ws.gauss_norm(f, cmaps.Radius.p_power(1), P).exponent
    n_0 = ws.gauss_norm(f, cmaps.Radius.one(), P).exponent
    n_2 = ws.gauss_norm(f, cmaps.Radius.p_power(2), P).exponent
    assert n_mid >= Fraction(1, 2) * n_0 + Fraction(1, 2) * n_2


def test_norm_multiplicativity_bound(n2):
    rng = random.Random(1234)
    h = ws.default_weighting(n2)
    for _ in range(15):
        def rand_series():
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                key = n2.element((rng.randint(-2, 3), rng.randint(-2, 3)))
                coeffs[key] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            return ws.series(n2, h, coeffs, 12, annulus=True)

        f, g = rand_series(), rand_series()
        prod = ws.series_mul(f, g)
        if f.is_zero() or g.is_zero() or prod.is_zero():
            continue
        for q in (Fraction(0), Fraction(1), Fraction(3, 2)):
            a = cmaps.Radius(q)
            vf = ws.gauss_norm(f, a, P).exponent
            vg = ws.gauss_norm(g, a, P).exponent
            vp = ws.gauss_norm(prod, a, P).exponent
            assert vp >= vf + vg  # |fg|_a <= |f|_a |g|_a


def test_interval_norm_annulus_weights(n1):
    h = ws.default_weighting(n1)
    f = build_series(n1, h, {(-1,): 1}, 6, annulus=True)
    nr = ws.gauss_norm_interval(f, cmaps.Radius.p_power(2), cmaps.Radius.p_power(1), P)
    # |t^{-1}| weight: a^{-h^-} b^{h^+} with h+ = 0, h- = 1: p^{2}
    assert nr.exponent == -2


# -- polyannulus points ----------------------------------------------------------------

def test_vertex_membership(n2):
    h = ws.default_weighting(n2)
    vtx = vertex_point(n2, h)
    assert ws.point_in_polyannulus(vtx, h, cmaps.Radius.zero(), cmaps.Radius.p_power(1))
    assert ws.point_in_polyannulus(vtx, h, cmaps.Radius.zero(), cmaps.Radius.zero())
    assert not ws.point_in_polyannulus(vtx, h, cmaps.Radius.p_power(3), cmaps.Radius.one())


def test_point_two_sided_bounds(n2):
    h = ws.default_weighting(n2)
    x = ws.valuation_point(n2, (1, 1))
    assert ws.point_in_polyannulus(x, h, cmaps.Radius.p_power(1), cmaps.Radius.one())
    assert not ws.point_in_polyannulus(x, h, cmaps.Radius.p_power(Fraction(1, 2)), cmaps.Radius.one())


def test_point_rejects_inconsistent_valuations(m_even):
    # g1 + g3 = 2 g2 forces v1 + v3 = 2 v2
    with pytest.raises(ValueError):
        ws.valuation_point(m_even, (1, 1, 3))
    ws.valuation_point(m_even, (1, 2, 3))


def _point_in_polyannulus_exhaustive(m, h, x, a, b, bound):
    """Check the defining inequalities on every monoid element of weight <= bound."""
    from logmonoid.qlin import qvec, qmat, qsolve

    ball = orc.enumerate_monoid(m, orc.EnumerationBudget(bound))
    if any(v is INF for v in x.log_values):
        lam = None
    else:
        rows = [[Fraction(c) for c in g[0]] for g in m.generators]
        lam = qsolve(qmat(rows), qvec([Fraction(v) for v in x.log_values]))
    for elt in ball:
        hv = h(elt)
        if lam is None:
            val = INF if hv > 0 else Fraction(0)
        else:
            val = sum((lam[i] * elt[0][i] for i in range(len(lam))), Fraction(0))
        if hv == 0:
            if val != 0:
                return False
            continue
        if b.is_zero:
            if val is not INF:
                return False
        elif val is not INF and val < b.value_exponent() * hv:
            return False
        if not a.is_zero and (val is INF or val > a.value_exponent() * hv):
            return False
    return True


def test_generator_check_suffices(n2, m_even):
    rng = random.Random(99)
    for m in (n2, m_even):
        h = ws.default_weighting(m)
        pts = [vertex_point(m, h)]
        for _ in range(6):
            lam = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m.gp.free_rank)]
            vals = [
                sum((lam[i] * g[0][i] for i in range(len(lam))), Fraction(0))
                for g in m.generators
            ]
            pts.append(ws.valuation_point(m, vals))
        intervals = [
            (cmaps.Radius.zero(), cmaps.Radius.one()),
            (cmaps.Radius.p_power(2), cmaps.Radius.one()),
            (cmaps.Radius.p_power(3), cmaps.Radius.p_power(1)),
        ]
        for x in pts:
            for a, b in intervals:
                fast = ws.point_in_polyannulus(x, h, a, b)
                full = _point_in_polyannulus_exhaustive(m, h, x, a, b, 10)
                assert fast == full


# -- saturation invariance ------------------------------------------------------------------

def test_saturation_invariance_nm1(nm1):
    m, _ = nm1
    pts = [
        ws.valuation_point(m, (Fraction(2) * q, Fraction(3) * q))
        for q in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2))
    ]
    assert ws.saturation_invariance_check(m, cmaps.Radius.p_power(2), cmaps.Radius.p_power(1), pts)
    assert ws.saturation_invariance_check(m, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)


def test_saturation_invariance_builds_the_hilbert_basis_once(monkeypatch):
    calls = []
    original = cone.hilbert_basis
    monkeypatch.setattr(cone, "hilbert_basis", lambda c: calls.append(c) or original(c))
    m = mc.from_embedded([[2], [3]])[0]  # N \ {1}, fresh so nothing is cached yet
    pts = [ws.valuation_point(m, (Fraction(2), Fraction(3)))]
    assert ws.saturation_invariance_check(m, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)
    assert calls
    calls.clear()
    assert ws.saturation_invariance_check(m, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)
    assert not calls


def _searched_correction_weight(m, sat, h):
    """h(s) by the search saturation_invariance_check made before the exact
    one: n_g scanned up to 36 (weight_bound**2 at weight_bound 6), m'_g the
    first y of M's weight-36 ball in (weight, element) order with g + y in
    M, and None where either search came up empty (it then raised).  The
    ball is read level by level, which finds the y that listing it whole
    first found."""
    gp, index, s = m.gp, m.index.weighted(h.values), m.gp.zero()
    for g in sat.generators:
        if mc.membership(m, g):
            continue
        n_g = next((n for n in range(2, 37) if mc.membership(m, gp.scale(n, g))), None)
        if n_g is None:
            return None
        mprime = next((y for w in range(37) for y in sorted(index.level(w)) if mc.membership(m, gp.add(g, y))), None)
        if mprime is None:
            return None
        s = gp.add(s, gp.scale(n_g - 1, mprime))
    return int(h(s))


# The tests/data monoids but moment_curve_20.json, <5, 8>, <37, 38> and small
# cones of rank 2 and 3 that are not saturated in their own groups.  On the
# 20-ray cone the scan for n_g grows M's ball past what a test can wait for,
# as the old scan to 36 did.
SATURATION_DOCUMENTS = ("m_even.json", "nm1.json", "torsion.json", "pyramid_pentagon.json",
                        "pyramid_pentagon_saturated.json")
SATURATION_CONES = ([[5], [8]], [[37], [38]], [[1, 0], [1, 1], [1, 3]], [[3, 0], [2, 1], [0, 3]],
                    [[0, 0, 1], [1, 0, 1], [1, 1, 1], [1, 3, 1]], [[2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[0, 0, 1], [1, 0, 1], [0, 1, 1], [2, 2, 1], [1, 3, 2]])


def _saturation_outcome(m, pts):
    try:
        return ws.saturation_invariance_check(m, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)
    except NotTorsionFree as exc:  # torsion.json: M^sat holds the torsion, a unit, so it has no ball
        return repr(exc)


def test_saturation_invariance_equals_the_searched_correction(monkeypatch):
    """The exact correction weight, and the verdict it gives, equal the old
    search's wherever that search finished; <37, 38> (n_g = 37, past its
    36) gets a verdict."""
    data = Path(__file__).parent / "data"
    monoids = [documents.parse_monoid(json.loads((data / name).read_text())).monoid for name in SATURATION_DOCUMENTS]
    monoids += [mc.from_embedded(v)[0] for v in SATURATION_CONES]
    rng = random.Random(20)
    weights, unsearched = [], 0
    for m in monoids:
        sat, h = mc.saturation(m), ws.default_weighting(m)
        pts = [vertex_point(m, h)]
        for _ in range(2):
            lam = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m.gp.free_rank)]
            pts.append(ws.valuation_point(m, [sum(map(mul, lam, g[0]), Fraction(0)) for g in m.generators]))
        exact, searched = ws._correction_weight(m, sat, h), _searched_correction_weight(m, sat, h)
        verdict = _saturation_outcome(m, pts)
        assert verdict in (True, False) or m.gp.torsion_invariants, m
        if searched is None:
            unsearched += 1
            assert verdict is True, m
            continue
        assert exact == searched, m
        with monkeypatch.context() as patch:
            patch.setattr(ws, "_correction_weight", _searched_correction_weight)
            assert _saturation_outcome(m, pts) == verdict, m
        weights.append(exact)
    assert unsearched == 1 and 0 in weights and max(weights) > 1


def test_saturation_invariance_on_a_group_with_torsion_is_a_hypothesis_error():
    """M^gp = Z + Z/2 (tests/data/torsion.json): M^sat holds the torsion as
    units, so it has no weight ball; the check names the hypothesis, where
    it once raised a bare ValueError from that ball."""
    doc = json.loads((Path(__file__).parent / "data" / "torsion.json").read_text())
    m = documents.parse_monoid(doc).monoid
    assert m.gp.torsion_invariants == (2,)
    pts = [vertex_point(m, ws.default_weighting(m))]
    with pytest.raises(NotTorsionFree, match="torsion-free M\\^gp, got torsion Z/2") as caught:
        ws.saturation_invariance_check(m, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)
    assert isinstance(caught.value, HypothesisError)


def test_saturation_invariance_saturated_case(m_even):
    h = ws.default_weighting(m_even)
    pts = [ws.valuation_point(m_even, (h(g) for g in m_even.generators))]
    assert ws.saturation_invariance_check(m_even, cmaps.Radius.p_power(1), cmaps.Radius.one(), pts)
