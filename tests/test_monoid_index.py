"""The compiled per-monoid paths against their one-shot definitions:
integer weights, |h|, homomorphisms through one Smith form, call-order
independence and the lifetime of the index."""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import documents
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import snf
from logmonoid import weighted_series as ws
from logmonoid.abelian import AbelianGroup, group_quotient, solve_in_group

from conftest import face_quotient_route_semi_saturated, gauge_built_module, quotient_hom, quotient_route_weighting

FIXTURES = ("n2", "m_even", "torsion_monoid")


def _grid(m, radius=2):
    """Sums of generators with coefficients in [-radius, radius]."""
    out = set()
    for coeffs in itertools.product(range(-radius, radius + 1), repeat=len(m.generators)):
        g = m.gp.zero()
        for c, x in zip(coeffs, m.generators):
            g = m.gp.add(g, m.gp.scale(c, x))
        out.add(g)
    return sorted(out)


@pytest.fixture(params=FIXTURES)
def monoid(request):
    return request.getfixturevalue(request.param)


def test_weight_of_is_the_rational_functional(monoid):
    values = mc.default_weighting(monoid)
    index = monoid.index.weighted(values)
    lam = [Fraction(x, index.denominator) for x in index.numerators]
    assert tuple(sum((x * y for x, y in zip(lam, g[0])), Fraction(0)) for g in monoid.generators) == values
    for g in _grid(monoid):
        expected = sum((lam[i] * g[0][i] for i in range(len(lam))), Fraction(0))
        assert monoid.index.weighted(values).weight(g) == expected


def test_h_abs_is_two_h_plus_minus_h(monoid):
    h = ws.default_weighting(monoid)
    for g in _grid(monoid):
        assert ws.h_abs(monoid, h, g) == 2 * ws.h_plus(monoid, h, g) - h(g)


def _homs(m):
    """The sharp projection and the quotient by each generator."""
    yield m.index.sharp[1]
    for g in m.generators:
        yield quotient_hom(m, [g])


def test_gp_apply_is_solve_plus_images(monoid):
    for f in _homs(monoid):
        tg = f.target.gp
        for x in _grid(monoid):
            coeffs = solve_in_group(monoid.gp, monoid.generators, x)
            expected = tg.zero()
            for c, im in zip(coeffs, f.images):
                expected = tg.add(expected, tg.scale(c, im))
            assert f.gp_apply(x) == expected


def test_gp_apply_rejects_elements_outside_the_source_group(n1):
    # gp = Z but the generator spans 2Z
    source = mc.FineMonoid(AbelianGroup(1), (((2,), ()),))
    f = mc.MonoidHom(source, n1, (n1.element((1,)),))
    assert f.gp_apply(source.element((4,))) == n1.element((2,))
    assert solve_in_group(source.gp, source.generators, source.element((3,))) is None
    with pytest.raises(ValueError, match="outside the source group"):
        f.gp_apply(source.element((3,)))


def _answers(m, queries):
    h = ws.default_weighting(m)
    out = {}
    for g in queries:
        out[g] = (
            mc.membership(m, g),
            ws.h_plus(m, h, g),
            ws.h_abs(m, h, g),
            m.index.weighted(h.values).weight(g),
        )
    out["faces"] = [sorted(f.generator_indices) for f in mc.faces(m)]
    return out


@pytest.mark.parametrize(
    "build",
    [
        lambda: mc.free_monoid(2),
        lambda: mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))]),
        lambda: mc.from_presentation(2, [((2, 0), (0, 2))]),
    ],
)
def test_answers_do_not_depend_on_call_order(build):
    first, second = build(), build()
    assert first == second and first is not second
    queries = _grid(first, 3)
    forward = _answers(first, queries)
    backward = _answers(second, list(reversed(queries)))
    assert forward == backward


def _shear_fresh_monoid():
    n2 = mc.free_monoid(2)
    c = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    e, _, _ = gauge_built_module(n2, [c, c], {(1, 0): ((0, 1), (0, 0))}, 2, 4)
    assert lc.shear(e).bound_report
    assert n2.__dict__.get("index") is not None  # the shear filled the index
    return weakref.ref(n2)


def test_index_is_freed_with_its_monoid():
    ref = _shear_fresh_monoid()
    gc.collect()
    assert ref() is None


# fresh monoids for the cold paths: sharp ones (a square pyramid, torsion
# among them) and one with a line of units
GRID_MONOIDS = {
    "N^2": lambda: mc.free_monoid(2),
    "M_even": lambda: mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))]),
    "torsion": lambda: mc.from_presentation(2, [((2, 0), (0, 2))]),
    "<2,3>": lambda: mc.from_embedded([[2], [3]])[0],
    "pyramid": lambda: mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])[0],
    "N x Z": lambda: mc.from_embedded([[1, 0], [0, 1], [0, -1]])[0],
}
SHARP = ("N^2", "M_even", "torsion", "<2,3>", "pyramid")
SHARP_TORSION_FREE = ("N^2", "M_even", "<2,3>", "pyramid")


@pytest.mark.parametrize("name", sorted(GRID_MONOIDS))
def test_default_weighting_equals_the_quotient_route(name):
    """The default values and the weighted index's functional, as its
    denominator and numerators, on a fresh monoid, equal a fresh copy's
    read off its sharp quotient and solved again."""
    m = GRID_MONOIDS[name]()
    values = mc.default_weighting(m)
    index = m.index.weighted(values)
    got = (values, index.denominator, index.numerators)
    assert got == quotient_route_weighting(GRID_MONOIDS[name]())


@pytest.mark.parametrize("name", sorted(GRID_MONOIDS))
def test_a_sharp_torsion_free_default_weighting_builds_no_quotient(monkeypatch, name):
    """A sharp monoid with a torsion-free gp is its own sharp quotient: its
    default weighting calls no group_quotient, builds no MonoidHom and
    solves no functional again.  One with torsion or units still takes the
    quotient route, which the counters see."""
    m = GRID_MONOIDS[name]()
    calls = []
    for attr in ("group_quotient", "MonoidHom", "qsolve"):
        original = getattr(mc, attr)
        monkeypatch.setattr(mc, attr, lambda *a, _f=original, _n=attr: calls.append(_n) or _f(*a))
    h = ws.default_weighting(m)
    assert h.values == mc.default_weighting(m) and m.index.weighted(h.values).values == h.values
    own = name in SHARP_TORSION_FREE
    assert calls == ([] if own else ["group_quotient", "MonoidHom", "qsolve"])
    assert ("sharp" in vars(m.index)) != own


@pytest.mark.parametrize("gens", [[[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], [[2, 0], [1, 1], [0, 2]]])
def test_a_document_weighting_equal_to_the_default_shares_its_index(gens):
    """A document giving the default values as its weighting, parsed before
    or after one giving none, shares one weighted index with it, and both
    orders give the same answers."""
    bare = {"embedded_generators": gens}
    given = {"embedded_generators": gens, "weighting": list(documents.parse_monoid(bare).weighting.values)}
    outcomes = []
    for order in ((given, bare), (bare, given)):
        documents.clear_caches()
        first, second = (documents.parse_monoid(doc) for doc in order)
        m = first.monoid
        assert second.monoid is m and first.weighting == second.weighting
        index = m.index.weighted(first.weighting.values)
        assert m.index.weighted(second.weighting.values) is index
        grid = _grid(m, 1)
        outcomes.append((index.denominator, index.numerators,
                         [index.h(g) for g in grid], [mc.membership(m, g) for g in grid]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(GRID_MONOIDS))
def test_h_and_membership_match_the_oracle(name):
    """h, h+, |h| and membership of the sums of generators with coefficients
    in [-2, 2] ([-1, 1] for the four-generator pyramid) -- keys of M and
    annulus keys with h- > 0 -- on a fresh monoid,
    against the brute-force oracle at weight 10.  A monoid with units is
    compared on its sharp quotient, weighted by the monoid's own values."""
    m = GRID_MONOIDS[name]()
    h = ws.default_weighting(m)
    if mc.is_sharp(m):
        ref, project = m, lambda g: g
    else:
        mbar, hom = m.index.sharp
        ref, project = mc.FineMonoid(mbar.gp, mbar.generators, h.values), hom.gp_apply
    index = m.index.weighted(h.values)
    seen = set()
    for g in _grid(m, 1 if len(m.generators) > 3 else 2):
        hg, hp, habs = index.h(g)
        member = mc.membership(m, g)
        assert hg == h(g) and habs == 2 * hp - hg
        assert member == orc.brute_membership(ref, project(g), orc.EnumerationBudget(max(1, hg)))
        assert member == (hp == hg)  # h-(g) = 0 exactly on M
        if habs <= 10:
            assert hp == orc.brute_h_plus(ref, project(g), orc.EnumerationBudget(10))
        seen.add(member)
    assert seen == {True, False}


@pytest.mark.parametrize("name", SHARP)
def test_h_of_a_key_of_a_sharp_monoid_solves_nothing(monkeypatch, name):
    """On a sharp monoid h and membership of a key of M are one lookup in
    M's own ball: no Smith form, no Smith solve and no gp_apply.  A key
    outside M costs one solve for its generator coefficients, still with no
    gp_apply."""
    m = GRID_MONOIDS[name]()
    h = ws.default_weighting(m)  # the cone and the weighting, before counting
    m.index.span  # and the span, which a sharp torsion-free default weighting no longer builds
    keys = orc.enumerate_monoid(m, orc.EnumerationBudget(6))
    calls = []
    for owner, attr in ((snf, "smith_normal_form"), (snf.SmithForm, "solve"),
                        (mc.MonoidHom, "gp_apply")):
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, _f=original, _n=attr: calls.append(_n) or _f(*a))
    index = m.index.weighted(h.values)
    for g in keys:
        w = int(h(g))
        assert index.h(g) == (w, w, w) and mc.membership(m, g)
    assert len(keys) > 5 and calls == []
    outside = m.gp.neg(m.generators[-1])
    assert index.h(outside)[1] > index.h(outside)[0] and not mc.membership(m, outside)
    assert calls == ["solve"]


def test_keys_heavier_than_the_truncation_leave_the_ball_alone():
    """|h| >= |h(m)|: coefficient_map and series drop a key whose weight
    exceeds T in absolute value before its h+ is searched, so the ball of a
    sharp M grows to T and no further (N^3 has 35 elements of weight <= 4)."""
    m = mc.free_monoid(3)
    h = ws.default_weighting(m)
    far, near, below = m.element((10, 10, 10)), m.element((1, 0, 3)), m.element((-9, 0, 0))
    coeffs = {far: [1], near: [1], below: [1]}
    assert [k for k, _ in cmaps.coefficient_map(h, 4, coeffs, annulus=True)[0]] == [near]
    assert [k for k, _ in ws.series(m, h, {k: 1 for k in coeffs}, 4, annulus=True).terms] == [near]
    assert len(m.index.weighted(h.values).ball(0)) == 35


def _data_monoids():
    """The monoid of every tests/data document that has one."""
    out = {}
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        doc = json.loads(path.read_text())
        section = doc.get("monoid", doc)
        if "generators" in section or "embedded_generators" in section:
            out[path.name] = documents.parse_monoid(section).monoid
    return out


def test_face_projections_equal_a_fresh_face_quotient():
    """Each face's projection rows, computed once on the index, are the
    free part of the projection of a fresh group_quotient by the face's
    generators."""
    monoids = _data_monoids()
    assert len(monoids) >= 8
    for name, m in monoids.items():
        d = m.gp.free_rank
        for face in m.index.faces:
            rows = m.index.face_projection(face)
            assert m.index.face_projection(face) is rows
            q, project = group_quotient(m.gp, face.generators())
            cols = [project(m.gp.element(tuple(int(i == k) for i in range(d))))[0] for k in range(d)]
            assert rows == tuple(tuple(col[i] for col in cols) for i in range(q.free_rank)), (name, face)


def _presentations_with_torsion(rng, count):
    """Seeded presentations N^n / (u = v) whose gp has torsion; a relation
    with a zero side makes units, which can carry the torsion away."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        relations = [([rng.choice((0, 0, 1, 2, 3)) for _ in range(n)], [rng.choice((0, 0, 1, 2)) for _ in range(n)])
                     for _ in range(rng.randint(1, 2))]
        m = mc.from_presentation(n, relations)
        if m.gp.torsion_invariants:
            out.append(m)
    return out


def _embedded_with_units(rng, count):
    """Seeded vectors of a pointed cone in Z^d plus a line and its negative."""
    out = []
    for _ in range(count):
        d = rng.randint(2, 4)
        vecs = [[rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 3)] for _ in range(rng.randint(d - 1, d + 2))]
        line = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.choice((-2, -1, 1, 2))]
        vecs += [line, [-x for x in line]]
        rng.shuffle(vecs)
        out.append(mc.from_embedded(vecs)[0])
    return out


def test_semi_saturation_equals_the_face_quotient_route():
    """The verdict equals the face-quotient route's, taken on a fresh copy,
    on the tests/data monoids, on presentations with torsion and on
    embedded sets with units; each family shows both verdicts."""
    rng = random.Random(20261019)
    families = {"data": list(_data_monoids().values()), "torsion": _presentations_with_torsion(rng, 60),
                "units": _embedded_with_units(rng, 60)}
    for name, monoids in families.items():
        verdicts = set()
        for m in monoids:
            verdict = mc.is_semi_saturated(m)
            assert verdict is face_quotient_route_semi_saturated(mc.FineMonoid(m.gp, m.generators)), (name, m)
            verdicts.add(verdict)
        assert verdicts == {True, False}, name


def test_a_cold_polygon_cone_decides_semi_saturation_with_no_smith_form(monkeypatch):
    """On the cone over a lattice pentagon, cold and semi-saturated, so every
    face is tested, the verdict takes no Smith form and no group quotient,
    so it builds no face quotient; a face projection is still filled on demand."""
    m, _ = mc.from_embedded([[-1, 3, 1], [0, 1, 1], [1, 0, 1], [2, 0, 1], [0, 3, 1]])
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append("smith") or smith(a))
    quotient = mc.group_quotient
    monkeypatch.setattr(mc, "group_quotient", lambda *a: calls.append("quotient") or quotient(*a))
    assert mc.is_semi_saturated(m) and len(mc.faces(m)) == 12
    assert calls == []
    m.index.face_projection(mc.faces(m)[1])
    assert calls == ["quotient", "smith"]
