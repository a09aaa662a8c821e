"""Document parsing round trips and the error surface of the typed kernels."""

from fractions import Fraction

import pytest

from logmonoid import documents as docs
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import snf
from logmonoid import weighted_series as ws
from logmonoid.errors import (
    DenominatorVanishes,
    NonCommutingResidues,
    ParseError,
    ZeroProjection,
)

from conftest import build_module, build_series

F = Fraction


def test_parse_rational_forms():
    assert docs.parse_rational("3/7") == F(3, 7)
    assert docs.parse_rational(4) == F(4)
    assert docs.parse_rational([5, 2]) == F(5, 2)
    assert docs.parse_rational({"num": 1, "den": 3}) == F(1, 3)
    with pytest.raises(ParseError):
        docs.parse_rational("x")
    with pytest.raises(ParseError):
        docs.parse_rational([1, 0])


def test_render_rational():
    assert docs.render_rational(F(3)) == "3"
    assert docs.render_rational(F(-5, 2)) == "-5/2"


def test_monoid_document_roundtrip_embedded():
    ctx = docs.parse_monoid({"embedded_generators": [[2, 0], [1, 1], [0, 2]]})
    g = ctx.parse_element({"free": [4, 2]})
    rendered = ctx.render_element(g)
    assert rendered["ambient"] == [4, 2]
    with pytest.raises(ParseError):
        ctx.parse_element({"free": [1, 0]})  # odd sum: outside the group


def test_monoid_document_weighting_override():
    ctx = docs.parse_monoid(
        {"embedded_generators": [[2, 0], [1, 1], [0, 2]], "weighting": [2, 2, 2]}
    )
    assert ctx.weighting.values == (2, 2, 2)
    with pytest.raises(ParseError):
        docs.parse_monoid(
            {"embedded_generators": [[2, 0], [1, 1], [0, 2]], "weighting": [1, 1, 2]}
        )


def test_hom_images_document(n2, n1):
    ctx_target = docs.parse_monoid({"generators": 1, "relations": []})
    images = docs.parse_hom_images(ctx_target, {"images": [{"free": [1]}, {"free": [1]}]})
    f = mc.MonoidHom(n2, ctx_target.monoid, images)
    assert f(n2.element((1, 1))) == ctx_target.monoid.element((2,))


def test_series_document(n1):
    ctx = docs.parse_monoid({"generators": 1, "relations": []})
    s = docs.parse_series(
        ctx, {"truncation": 6, "terms": [{"m": {"free": [1]}, "num": 2, "den": 3}]}
    )
    assert s.coeff(ctx.monoid.element((1,))) == F(2, 3)


def test_sigma_document_ambient_coordinates():
    ctx = docs.parse_monoid({"embedded_generators": [[2, 0], [1, 1], [0, 2]]})
    sigma = docs.parse_sigma(ctx, {"elements": [["1", "0"]]})  # (2,0) tensor 1/2
    g1 = ctx.monoid.generators[0]
    assert sigma.elements[0] == tuple(F(c, 2) for c in g1[0])
    # tensoring with Q fills the index-2 sublattice: (1/3, 0) is a valid vector
    docs.parse_sigma(ctx, {"elements": [["1/3", "0"]]})
    # a monoid spanning only a plane of Z^3 does reject off-plane vectors
    ctx_plane = docs.parse_monoid({"embedded_generators": [[1, 0, 0], [0, 1, 0]]})
    with pytest.raises(ParseError):
        docs.parse_sigma(ctx_plane, {"elements": [["0", "0", "1"]]})


def test_embedding_validation(n1):
    with pytest.raises(ValueError):
        lc.Embedding(n1, ((-1,),))  # image escapes N^r
    n2 = mc.free_monoid(2)
    with pytest.raises(ValueError):
        lc.Embedding(n2, ((1, 1), (2, 2)))  # not a rational isomorphism


def test_noncommuting_residues_raise(n2):
    e = build_module(
        n2,
        [{(0, 0): ((0, 1), (0, 0))}, {(0, 0): ((0, 0), (1, 0))}],
        2, 6,
    )
    with pytest.raises(NonCommutingResidues):
        lc.residue(e)


def test_dl_denominator_vanishes(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    # exponents 0 and 1 differ by an integer: j = 1 hits the denominator
    e = lc.apply_ui(emb, h, [((F(0), F(0)), (F(0), F(1))), ((F(0), F(0)), (F(0), F(0)))], 6)
    v = (build_series(n2, h, {(0, 0): 1}, 6), build_series(n2, h, {(0, 0): 1}, 6))
    polys = lc.default_projection_polynomials(e)
    with pytest.raises(DenominatorVanishes):
        lc.dl_projection(e, v, polys, 2)


def test_dl_zero_projection(n2):
    h = ws.default_weighting(n2)
    emb = lc.facet_embedding(n2)
    e = lc.apply_ui(emb, h, [((F(1, 3),),), ((F(0),),)], 6)
    v = (build_series(n2, h, {(0, 0): 1}, 6),)
    # Q_1 = (x - 1/3) annihilates the whole rank-1 module
    with pytest.raises(ZeroProjection):
        lc.dl_limit(e, v, [[F(-1, 3), F(1)], [F(1)]])


def test_embedded_elements_share_one_smith_form(monkeypatch):
    """Parsing an embedded connection document costs the same Smith forms
    however many elements it names: one per monoid, none per element."""
    def doc(points):
        terms = [{"m": {"free": p}, "entries": [["1"]]} for p in points]
        return {
            "monoid": {"embedded_generators": [[2, 0], [1, 1], [0, 2]]},
            "embedding": [[1, 0], [0, 1]],
            "rank": 1,
            "truncation": 8,
            "interval_kind": "annulus",
            "matrices": [{"i": 0, "terms": terms}, {"i": 1, "terms": terms}],
        }

    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(1) or smith(a))
    short = [[0, 0], [2, 0], [1, 1], [0, 2]]
    counts = []
    for points in (short, short + [[4, 0], [3, 1], [2, 2], [1, 3]]):
        calls.clear()
        docs.parse_connection(doc(points))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_embedded_document_smith_forms_its_generators_once(monkeypatch):
    """One span of the ambient generators serves the relation lattice and
    every element: a document and one element cost three Smith forms (the
    ambient generators, the presented quotient, the monoid's own span), and
    `convert` costs none."""
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(a) or smith(a))
    gens = [[2, 0], [1, 1], [0, 2]]
    ctx = docs.parse_monoid({"embedded_generators": gens})
    assert ctx.parse_element({"free": [1, 1]}) == ctx.monoid.generators[1]
    assert len(calls) == 3
    assert calls.count(((2, 1, 0), (0, 1, 2))) == 1

    m, convert = mc.from_embedded(gens)
    calls.clear()
    assert convert(((4, 2), ())) == m.gp.add(m.gp.scale(2, m.generators[0]), m.generators[2])
    assert convert(((0, 0), ())) == m.gp.zero()
    with pytest.raises(ValueError, match="outside the group"):
        convert(((1, 0), ()))
    assert calls == []

