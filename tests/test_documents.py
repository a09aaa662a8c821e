"""Document parsing round trips and the error surface of the typed kernels."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import constant_models as cmod
from logmonoid import documents as docs
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import qlin, snf
from logmonoid import weighted_series as ws
from logmonoid.cli import main
from logmonoid.abelian import AbelianGroup, GroupSpan, quotient_presented
from logmonoid.qlin import qmat, qsolve
from logmonoid.errors import (
    DenominatorVanishes,
    NonCommutingResidues,
    HypothesisError,
    ParseError,
    ZeroProjection,
)
from logmonoid.log_convergence import log_convergence_check
from logmonoid.shearing import shear
from logmonoid.unipotence import is_sigma_unipotent

from conftest import build_module, build_series, map_sum

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


@pytest.mark.parametrize("obj, message", [
    ({"free": [True, 0]}, "free: expected an integer, got True"),
    ({"free": [1.0, 0]}, "free: expected an integer, got 1.0"),
    ({"free": 5}, "free: expected a list of integers, got 5"),
    ({"free": [4, 2], "torsion": ["x"]}, "torsion: expected an integer, got 'x'"),
    ({"free": ["1e3", 0]}, "free: expected an integer, got '1e3'"),
    ({"free": [None]}, "free: expected an integer, got None"),
    ({"free": [[1], 2]}, "free: expected an integer, got [1]"),
    ({"free": [4, 2], "torsion": 0}, "torsion: expected a list of integers, got 0"),
])
def test_a_malformed_element_field_keeps_its_message(obj, message):
    ctx = docs.parse_monoid({"embedded_generators": [[2, 0], [1, 1], [0, 2]]})
    with pytest.raises(ParseError) as info:
        ctx.parse_element(obj)
    assert str(info.value) == message


def test_plain_int_elements_skip_the_field_reader(monkeypatch):
    """free and torsion lists of plain ints are taken in one pass, without
    `_integer`; a string integer is still read by it, to the same element."""
    ctx = docs.parse_monoid({"generators": 2, "relations": [[[2, 0], [0, 2]]]})
    calls = []
    integer = docs._integer
    monkeypatch.setattr(docs, "_integer", lambda x, field: calls.append(x) or integer(x, field))
    plain = ctx.parse_element({"free": [3], "torsion": [1]})
    assert calls == []
    assert ctx.parse_element({"free": ["3"], "torsion": [1]}) == plain and calls == ["3"]


def test_monoid_document_weighting_override():
    ctx = docs.parse_monoid(
        {"embedded_generators": [[2, 0], [1, 1], [0, 2]], "weighting": [2, 2, 2]}
    )
    assert ctx.weighting.values == (2, 2, 2)
    with pytest.raises(ParseError):
        docs.parse_monoid(
            {"embedded_generators": [[2, 0], [1, 1], [0, 2]], "weighting": [1, 1, 2]}
        )


def _rank2_document(terms, interval_kind="disk"):
    """A rank-2 connection on N at truncation 4 with A^0 = E_22 / 2 + terms."""
    constant = {"m": {"free": [0]}, "entries": [["0", "0"], ["0", "1/2"]]}
    return {"monoid": {"generators": 1, "relations": []}, "embedding": [[1]], "rank": 2, "truncation": 4,
            "interval_kind": interval_kind, "matrices": [{"i": 0, "terms": [constant] + terms}]}


@pytest.mark.parametrize("kind,free,entries,kept", [
    ("annulus", -1, [["0", "1"], ["0", "0"]], True),  # t^-1 is a term of an annulus matrix
    ("annulus", 2, [["1/3", "0"], ["-2", "0"]], True),
    ("disk", 5, [["0", "1"], ["0", "0"]], False),  # |h| = 5 > 4: beyond the truncation
    ("annulus", -5, [["0", "1"], ["0", "0"]], False),
    ("disk", 2, [["0", "0"], ["0", "0"]], False),  # an all-zero matrix leaves no key
    ("disk", 2, [[0, "0/7"], [[0, 3], "0"]], False),
    ("disk", 4, [["0", "1"], ["0", "0"]], True),  # |h| = 4, the truncation, is kept
    ("annulus", -4, [["0", "1"], ["0", "0"]], True),
])
def test_connection_document_keeps_the_terms_it_tracks(kind, free, entries, kept):
    ctx, e = docs.parse_connection(_rank2_document([{"m": {"free": [free]}, "entries": entries}], kind))
    (terms, den), = e.matrices
    zero, key = ctx.monoid.gp.zero(), ctx.parse_element({"free": [free]})
    assert [k for k, _ in terms] == sorted({zero, key} if kept else {zero})
    assert dict(terms)[zero] == (0, 0, 0, den // 2)
    if kept:
        assert [F(x, den) for x in dict(terms)[key]] == [docs.parse_rational(x) for row in entries for x in row]


def test_disk_document_rejects_a_term_off_the_monoid():
    """t^-1 has h^-(t^-1) = 1 > 0: a disk matrix cannot carry it."""
    doc = _rank2_document([{"m": {"free": [-1]}, "entries": [["0", "1"], ["0", "0"]]}])
    with pytest.raises(ParseError, match=r"h\^-\(m\) > 0"):
        docs.parse_connection(doc)


def test_a_monomial_listed_twice_is_a_parse_error():
    """Keys are compared as group elements: on Z + Z/2, torsion 2 is torsion 0."""
    doc = {"monoid": {"generators": 2, "relations": [[[2, 0], [0, 2]]]}, "embedding": [[1]], "rank": 1,
           "truncation": 4, "matrices": [{"i": 0, "terms": [{"m": {"free": [1], "torsion": [0]}, "entries": [["1"]]},
                                                            {"m": {"free": [1], "torsion": [2]}, "entries": [["2"]]}]}]}
    with pytest.raises(ParseError, match=r"matrices: index 0 lists the monomial .*torsion.*\[2\].* twice"):
        docs.parse_connection(doc)
    doc["matrices"][0]["terms"][1]["m"]["torsion"] = [1]
    assert len(docs.parse_connection(doc)[1].matrices[0][0]) == 2


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


def _exponent_vector_by_solve(ctx, vals):
    """The ambient vector as a combination of the generators, one solve per
    vector, then summed on the generators' gp coordinates."""
    gens = ctx.ambient_generators
    coeffs = qsolve(qmat([[g[i] for g in gens] for i in range(len(gens[0]))]), vals)
    if coeffs is None:
        return None
    d = ctx.monoid.gp.free_rank
    return tuple(sum((c * g[0][i] for c, g in zip(coeffs, ctx.monoid.generators)), F(0)) for i in range(d))


def test_exponent_vectors_convert_through_one_map(monkeypatch):
    """Seeded vectors on embedded monoids of full and partial rank: the
    section's ambient map, built with the monoid, gives what a solve per
    vector gave, with no elimination at all."""
    rng = random.Random(5)
    calls = []
    solve_map = qlin.solve_map
    monkeypatch.setattr(qlin, "solve_map", lambda a: calls.append(1) or solve_map(a))
    monoids = [[[2, 0], [1, 1], [0, 2]], [[2], [3]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
               [[1, 2, 0], [0, 3, 1], [1, 5, 1], [2, 1, 1]], [[2, 4], [1, 2], [3, 6]]]
    seen = set()
    for gens in monoids:
        calls.clear()
        ctx = docs.parse_monoid({"embedded_generators": gens})
        assert not calls
        for _ in range(20):
            vals = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in gens[0])
            if rng.random() < 0.5:  # a combination of the generators
                coeffs = [F(rng.randint(-3, 3), rng.choice((1, 4))) for _ in gens]
                vals = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), F(0)) for i in range(len(gens[0])))
            expected = _exponent_vector_by_solve(ctx, vals)
            seen.add(expected is None)
            if expected is None:
                with pytest.raises(ParseError, match="outside"):
                    ctx.parse_exponent_vector([str(x) for x in vals])
            else:
                assert ctx.parse_exponent_vector([str(x) for x in vals]) == expected
        assert not calls
    assert seen == {True, False}


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
    e = cmod.apply_ui(emb, h, [((F(0), F(0)), (F(0), F(1))), ((F(0), F(0)), (F(0), F(0)))], 6)
    v = (build_series(n2, h, {(0, 0): 1}, 6), build_series(n2, h, {(0, 0): 1}, 6))
    with pytest.raises(DenominatorVanishes):
        cmod.dl_projection(e, v, 2)


def test_dl_zero_projection(n2, tmp_path, capsys):
    """Both residues are the nilpotent [[0, 1], [0, 0]]: each Q_i is x, and
    Q_1(res_1) Q_2(res_2) = res_1 res_2 = 0 annihilates the whole module."""
    nil = ((0, 1), (0, 0))
    e = cmod.apply_ui(lc.facet_embedding(n2), ws.default_weighting(n2), [nil, nil], 4)
    assert cmod.default_projection_polynomials(e) == [[0, 1], [0, 1]]
    v = tuple(ws.constant_series(n2, e.weighting, int(j == 0), 4) for j in range(2))
    with pytest.raises(ZeroProjection):
        cmod.dl_limit(e, v)
    entries = [["0", "1"], ["0", "0"]]
    doc = {"monoid": {"generators": 2}, "rank": 2, "truncation": 4,
           "matrices": [{"i": i, "terms": [{"m": {"free": [0, 0]}, "entries": entries}]} for i in range(2)]}
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(doc))
    assert main(["connection", "dl", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "projection polynomials annihilate the whole module" in err and "Traceback" not in err


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
        # both parses start cold: the second would otherwise reuse the first's monoid
        docs.clear_caches()
        calls.clear()
        docs.parse_connection(doc(points))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_embedded_document_smith_forms_its_generators_once(monkeypatch):
    """One span of the ambient generators serves the relation lattice and
    every element: a document and one element cost two Smith forms (the
    ambient generators and the presented quotient; the default weighting of
    this sharp, torsion-free monoid builds no span of its own), and
    `convert` costs none."""
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(a) or smith(a))
    gens = [[2, 0], [1, 1], [0, 2]]
    ctx = docs.parse_monoid({"embedded_generators": gens})
    assert ctx.parse_element({"free": [1, 1]}) == ctx.monoid.generators[1]
    assert len(calls) == 2
    assert calls.count(((2, 1, 0), (0, 1, 2))) == 1

    m, convert = mc.from_embedded(gens)
    calls.clear()
    assert m.gp.element(convert((4, 2))) == m.gp.add(m.gp.scale(2, m.generators[0]), m.generators[2])
    assert m.gp.element(convert((0, 0))) == m.gp.zero()
    assert convert((1, 0)) is None
    assert calls == []



def _converter_by_solve(vectors):
    """The Smith-solve converter: an element's generator coefficients by a
    solve in the span of the ambient generators, then the quotient map."""
    ambient = AbelianGroup(len(vectors[0]), ())
    span = GroupSpan(ambient, [ambient.element(v) for v in vectors])
    _, qmap = quotient_presented(len(vectors), span.relations())

    def convert(x):
        coeffs = span.coefficients(ambient.element(*x))
        if coeffs is None:
            raise ValueError("element lies outside the group generated by the monoid")
        return qmap(coeffs)

    return convert


_CONVERTER_CASES = [[[2, 0], [1, 1], [0, 2]], [[2], [3]], [[1, 2, 0], [0, 3, 1], [1, 5, 1], [2, 1, 1]],
                    [[2, 4], [1, 2], [3, 6]], [[0, 0]], [[4, 6, 2], [2, 0, 4], [6, 6, 6]]]


def test_compiled_converter_matches_the_smith_solve():
    """Seeded ambient elements, half of them combinations of the generators:
    the ambient map returns the free part of what the solve returned, and
    None where the solve raised; full and partial rank, a trivial group."""
    rng = random.Random(14)
    seen = set()
    for vectors in _CONVERTER_CASES:
        _, convert = mc.from_embedded(vectors)
        reference = _converter_by_solve(vectors)
        for _ in range(200):
            free = [rng.randint(-6, 6) for _ in vectors[0]]
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in vectors]
                free = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(len(free))]
            try:
                expected = reference((tuple(free), ()))[0]
            except ValueError:
                expected = None
            assert convert(free) == expected, (vectors, free)
            seen.add(expected is None)
    assert seen == {True, False}


def test_the_lift_is_inverted_by_the_ambient_map():
    """On the cases above: the lift sends each generator to its ambient
    vector, and the map reads seeded gp elements back from their lifts."""
    rng = random.Random(15)
    for vectors in _CONVERTER_CASES:
        m, convert = mc.from_embedded(vectors)
        assert [convert.inverse(g[0]) for g in m.generators] == [tuple(v) for v in vectors]
        for _ in range(50):
            g = m.gp.element([rng.randint(-9, 9) for _ in range(m.gp.free_rank)])
            assert convert(convert.inverse(g[0])) == g[0]


def test_gp_to_ambient_is_solved_once_per_document(monkeypatch):
    """The embedding rows and every rendered key read one gp -> ambient
    map, the ambient map's inverse: one solve, however many rows and keys
    (the Embedding's own inverse is another), giving the rows and ambient
    vectors of a solve per row and per key."""
    gens = [[1, 2, 0], [0, 3, 1], [1, 5, 1], [2, 1, 1]]
    points = [[0, 0, 0], [1, 2, 0], [2, 4, 0], [1, 5, 1], [3, 6, 2], [1, 8, 2]]
    rows = [[1, 0, 0], [0, 1, -1], [1, 1, 1]]
    doc = {"monoid": {"embedded_generators": gens}, "embedding": rows, "rank": 1, "truncation": 6,
           "matrices": [{"i": i, "terms": [{"m": {"free": p}, "entries": [["1"]]} for p in points]}
                        for i in range(3)]}
    calls = []
    solve_map = qlin.solve_map
    monkeypatch.setattr(qlin, "solve_map", lambda a: calls.append(a) or solve_map(a))
    ctx, e = docs.parse_connection(doc)
    keys = [k for k, _ in e.matrices[0][0]]
    rendered = [ctx.render_element(k)["ambient"] for k in keys]
    d = ctx.monoid.gp.free_rank
    assert calls == [ctx.ambient.rows + ctx.ambient.checks, e.embedding.matrix] and len(keys) == len(points)
    monkeypatch.undo()

    def ambient(g):
        c = ctx.monoid.index.span.coefficients(g)
        return [sum(ci * v[i] for ci, v in zip(c, gens)) for i in range(3)]

    assert sorted(rendered) == sorted(points) and rendered == [ambient(k) for k in keys]
    basis = [ambient(ctx.monoid.gp.element([int(i == k) for i in range(d)])) for k in range(d)]
    assert e.embedding.matrix == tuple(tuple(sum(map(lambda a, b: a * b, row, amb)) for amb in basis)
                                       for row in rows)


def _integer_field_documents():
    """field -> (a valid document, a setter putting a value in that field)."""
    def connection(monoid=None):
        return {"monoid": monoid or {"generators": 2, "relations": []}, "embedding": [[1, 0], [0, 1]],
                "rank": 1, "truncation": 3,
                "matrices": [{"i": 0, "terms": [{"m": {"free": [2, 0], "torsion": []}, "entries": [["1"]]}]},
                             {"i": 1, "terms": []}]}

    def term(doc):
        return doc["matrices"][0]["terms"][0]

    embedded = {"embedded_generators": [[2, 0], [1, 1], [0, 2]], "torsion": [], "weighting": [1, 1, 1]}
    return {
        "free": (connection(), lambda doc, v: term(doc)["m"].update(free=v)),
        "torsion": (connection(), lambda doc, v: term(doc)["m"].update(torsion=v)),
        "i": (connection(), lambda doc, v: doc["matrices"][0].update(i=v)),
        "rank": (connection(), lambda doc, v: doc.update(rank=v)),
        "truncation": (connection(), lambda doc, v: doc.update(truncation=v)),
        "generators": (connection(), lambda doc, v: doc["monoid"].update(generators=v)),
        "relations": (connection({"generators": 2, "relations": [[[1, 0], [1, 0]]]}),
                      lambda doc, v: doc["monoid"]["relations"][0].__setitem__(0, v)),
        "embedded_generators": (connection(dict(embedded)),
                                lambda doc, v: doc["monoid"]["embedded_generators"].__setitem__(1, v)),
        "monoid torsion": (connection(dict(embedded)), lambda doc, v: doc["monoid"].update(torsion=v)),
        "weighting": (connection(dict(embedded)), lambda doc, v: doc["monoid"].update(weighting=v)),
        "embedding": (connection(), lambda doc, v: doc["embedding"].__setitem__(0, v)),
    }


@pytest.mark.parametrize("field", sorted(_integer_field_documents()))
def test_integer_fields_take_ints_or_integer_strings_only(field):
    """Every integer field of a connection document reads an int or a
    string int() reads; a float, a bool, null or a string that is not an
    integer -- in a list field also a bare string or a scalar -- is a
    ParseError naming the field, never truncated or iterated."""
    doc, put = _integer_field_documents()[field]
    name = field.split()[-1]
    good = docs.parse_connection(doc)[1]
    scalar = name in ("i", "rank", "truncation", "generators")
    valid = copy.deepcopy(doc)
    if scalar:
        value = {"i": 0, "rank": 1, "truncation": 3, "generators": 2}[name]
        put(valid, str(value))
    else:
        value = {"free": [2, 0], "torsion": [], "relations": [1, 0], "embedded_generators": [1, 1],
                 "weighting": [1, 1, 1], "embedding": [1, 0]}[name]
        put(valid, [str(x) for x in value])
    assert docs.parse_connection(valid)[1] == good
    if scalar:
        bad = [1.5, True, None, "x", 2.0]
    else:  # the valid list with a bad first entry, or not a list
        bad = [[x, *value[1:]] for x in (1.5, True, None, "1/2", 2.0)] + ["12", None, 1]
    for v in bad:
        broken = copy.deepcopy(doc)
        put(broken, v)
        with pytest.raises(ParseError, match=name):
            docs.parse_connection(broken)


def test_a_negative_generator_count_is_a_parse_error():
    with pytest.raises(ParseError, match="generators must be non-negative"):
        docs.parse_monoid({"generators": -1})
    assert docs.parse_monoid({"generators": 0}).monoid.gp.free_rank == 0


def test_rational_and_radius_integers_are_integer_fields():
    assert docs.parse_rational(["3", 4]) == F(3, 4)
    for obj in ([1.5, 2], [True, 2], [1, None], {"num": 2.5}, {"num": 1, "den": False}):
        with pytest.raises(ParseError):
            docs.parse_rational(obj)
    assert docs.parse_radius({"q_num": "1", "q_den": 2}) == cmaps.Radius(F(1, 2))
    for obj in ({"q_num": 0.5}, {"q_num": 1, "q_den": 2.0}, {"q_num": True}):
        with pytest.raises(ParseError, match="q_"):
            docs.parse_radius(obj)


# -- the monoid-section cache -------------------------------------------------------------

def test_equal_sections_share_one_monoid_however_written():
    """Sections equal after their fields are read share one FineMonoid and
    one ambient map: integer strings, an empty relation list or torsion list,
    and another weighting do not split them."""
    n2 = docs.parse_monoid({"generators": 2})
    assert docs.parse_monoid({"generators": "2", "relations": []}).monoid is n2.monoid
    gens = [[2, 0], [1, 1], [0, 2]]
    plain = docs.parse_monoid({"embedded_generators": gens})
    written = docs.parse_monoid({"embedded_generators": [["2", 0], [1, "1"], [0, 2]], "torsion": []})
    weighted = docs.parse_monoid({"embedded_generators": gens, "weighting": [2, 2, 2]})
    assert written.monoid is plain.monoid and weighted.monoid is plain.monoid
    assert written.ambient is plain.ambient and written == plain
    assert weighted.weighting.values == (2, 2, 2) != plain.weighting.values
    assert plain.monoid is not n2.monoid
    assert docs._monoid_section.cache_info().currsize == 2


@pytest.mark.parametrize("section, message", [
    ({"generators": 2, "relations": [[[1, -1], [0, 1]]]}, "bad presentation: relation vectors must be non-negative"),
    ({"embedded_generators": []}, "bad embedded generators: at least one generator required"),
])
def test_a_failing_section_is_not_cached(section, message):
    """A section that fails raises the same ParseError on every parse and
    leaves nothing in the cache; its bad weighting is never reached."""
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            docs.parse_monoid({**section, "weighting": [0, -1]})
        errors.append(str(info.value))
    assert errors == [message, message]
    assert docs._monoid_section.cache_info().currsize == 0


def test_a_fault_the_json_decides_wins_over_one_the_engine_finds():
    """A connection document is read before the engine builds from it: a
    bad rational reports itself beside a bad presentation (and an index
    out of range), which are reported once it is mended."""
    entry = {"m": {"free": [0, 0]}, "entries": [["1/0"]]}
    doc = {"monoid": {"generators": 2, "relations": [[[1, -1], [0, 1]]]}, "rank": 1, "truncation": 2,
           "matrices": [{"i": 5, "terms": []}, {"i": 0, "terms": [entry]}]}
    with pytest.raises(ParseError, match="zero denominator"):
        docs.parse_connection(doc)
    entry["entries"] = [["1/2"]]
    with pytest.raises(ParseError, match="bad presentation"):
        docs.parse_connection(doc)
    doc["monoid"] = {"generators": 2}
    with pytest.raises(ParseError, match="matrices: matrix index 5 out of range"):
        docs.parse_connection(doc)


def test_the_least_recent_section_is_rebuilt_past_the_bound():
    bound = docs.SECTION_CACHE_SIZE
    first = docs.parse_monoid({"generators": 1}).monoid
    for k in range(2, bound + 1):
        docs.parse_monoid({"generators": k})
    assert docs.parse_monoid({"generators": 1}).monoid is first  # bound sections: all kept
    for k in range(bound + 1, 2 * bound + 1):
        docs.parse_monoid({"generators": k})
    rebuilt = docs.parse_monoid({"generators": 1}).monoid
    assert rebuilt is not first and rebuilt == first
    assert docs._monoid_section.cache_info().currsize == bound


# (monoid section, embedding rows or None for the facet embedding); the third
# and fifth share the sections of the second and fourth
SHARED_SECTIONS = (
    ({"generators": 1}, None),
    ({"embedded_generators": [[1, 0], [0, 1]], "weighting": [1, 2]}, [[1, 0], [0, 1]]),
    ({"embedded_generators": [[1, 0], [0, 1]], "weighting": [1, 2]}, None),
    ({"generators": 3, "relations": [[[1, 0, 1], [0, 2, 0]]]}, None),
    ({"embedded_generators": [[2, 0], [1, 1], [0, 2]]}, [[1, 0], [0, 1]]),
    ({"embedded_generators": [[2, 0], [1, 1], [0, 2]]}, None),
)


def _shared_section_document(rng, section, rows, t, n, kind):
    """A connection document on the section: on disks and points a diagonal
    constant model rewritten by a gauge I + G (G random on two keys of
    weight <= t), on annuli random terms at differences of monoid elements
    over a diagonal residue; keys in the document's own coordinates."""
    ctx = docs.parse_monoid(section)
    emb = docs._embedding(ctx, None if rows is None else tuple(map(tuple, rows)))
    h, zero = ctx.weighting, ctx.monoid.gp.zero()
    ball = ctx.monoid.index.weighted(h.values).upto(t)

    def mat():
        return [F(rng.randint(-2, 2), rng.choice((1, 2, 5))) for _ in range(n * n)]

    eigenvalues = (0, F(1, 2), F(1, 3), F(1, 4))
    model = [[[x if i == j else 0 for j in range(n)] for i, x in enumerate(rng.sample(eigenvalues, n))]
             for _ in range(emb.r)]
    e = cmod.apply_ui(emb, h, model, t)
    if kind == "annulus":
        diffs = [ctx.monoid.gp.sub(x, y) for x in ball for y in ball[:3]]
        extra = [cmaps.coefficient_map(h, t, {rng.choice(diffs): mat() for _ in range(2)}, True) for _ in range(emb.r)]
        e = e._replace(matrices=tuple(map_sum(a, b) for a, b in zip(e.matrices, extra)))
    else:
        ident = cmaps.coefficient_map(h, t, {zero: [int(i == j) for i in range(n) for j in range(n)]})
        gauge = {rng.choice(ball[1:]): mat() for _ in range(2)}
        minus = cmaps.coefficient_map(h, t, {k: [-x for x in v] for k, v in gauge.items()})
        g_inv = power = ident
        for _ in range(t):
            power = lc.map_product(e, power, minus)
            g_inv = map_sum(g_inv, power)
        e = cmod.gauge_transform(e, map_sum(ident, cmaps.coefficient_map(h, t, gauge)), g_inv)

    def key(k):
        rendered = ctx.render_element(k)
        return {"free": rendered.get("ambient", rendered["free"]), "torsion": rendered["torsion"]}

    doc = {"monoid": section, "rank": n, "truncation": t, "interval_kind": kind,
           "matrices": [{"i": i, "terms": [{"m": key(k), "entries": [[docs.render_rational(F(x[r * n + c], den))
                                                                         for c in range(n)] for r in range(n)]}
                                             for k, x in terms]} for i, (terms, den) in enumerate(e.matrices)]}
    return doc if rows is None else {**doc, "embedding": rows}


def _document_answers(doc):
    """What the CLI reports on a connection document: the integrability
    defect, the exponents, the shear (gauge maps, bound report and
    constants), unipotence on every face against {0, first exponent} and
    three log-convergence verdicts; a violated hypothesis is an answer too."""
    ctx, e = docs.parse_connection(doc)

    def attempt(fn):
        try:
            return fn()
        except HypothesisError as exc:
            return type(exc).__name__, str(exc)

    def sheared():
        s = shear(e)
        return (s.gauge_map, s.gauge_inverse_map, s.bound_report, s.constant_model, s.constant_base_model,
                s.norm_constant_log, s.nilpotency_exponent)

    def unipotence():
        exps = lc.exponents(e).exponents
        sigma = lc.ExponentSet(ctx.monoid, tuple(dict.fromkeys([(F(0),) * len(exps[0]), exps[0]])))
        return [is_sigma_unipotent(e, sigma, f).verdict for f in mc.faces(ctx.monoid)]

    logconv = [attempt(lambda: log_convergence_check(e, cmaps.Radius.p_power(q), cmaps.Radius.p_power(eta), depth))
               for q, eta, depth in ((1, F(1, 2), 2), (0, 1, 3), (F(1, 3), F(1, 2), 1))]
    return (e.integrability_defect, attempt(lambda: lc.exponents(e).exponents), attempt(sheared),
            attempt(unipotence), logconv)


def test_answers_do_not_depend_on_the_cache_or_the_order():
    """Seeded documents over shared sections, T = 2..8 on each (a later
    document meets a ball an earlier one grew), disk, annulus and point,
    given and facet embeddings: the answers from cold caches equal those of
    two shuffled runs that share the cached monoids."""
    rng = random.Random(23)
    cases = []
    for section, rows in SHARED_SECTIONS:
        for t in range(2, 9):
            n, kind = rng.randint(1, 2), ("disk", "annulus", "point")[(t + len(cases)) % 3]
            cases.append(_shared_section_document(rng, section, rows, t, n, kind))
    cold = []
    for doc in cases:
        docs.clear_caches()
        cold.append(_document_answers(doc))
    for _ in range(2):
        docs.clear_caches()
        order = list(range(len(cases)))
        rng.shuffle(order)
        for i in order:
            assert _document_answers(cases[i]) == cold[i], i
        assert docs._monoid_section.cache_info().currsize == 4
    shown = {doc["interval_kind"] for doc in cases} | {"shear" if len(a[2]) > 2 else a[2][0] for a in cold}
    shown |= {verdict for a in cold for verdict in a[4] if isinstance(verdict, bool)}
    assert shown == {"disk", "annulus", "point", "shear", "NotDiskModule", True, False}, shown


# -- the rational reader ------------------------------------------------------------------

FORTY_DIGITS = "1234567890123456789012345678901234567890/1234567890123456789012345678901234567891"


@pytest.mark.parametrize("obj, value", [
    ("3/7", F(3, 7)), ("-3/7", F(-3, 7)), ("+3/7", F(3, 7)), ("4/6", F(2, 3)), ("0/7", F(0)),
    ("12", F(12)), ("-0", F(0)), ("1_000/3", F(1000, 3)), ("1_000.2_5", F(4001, 4)),
    ("0.5", F(1, 2)), (".5", F(1, 2)), ("-.25", F(-1, 4)), ("5.", F(5)), (" 1/2 ", F(1, 2)),
    (FORTY_DIGITS, F(1234567890123456789012345678901234567890, 1234567890123456789012345678901234567891)),
    (4, F(4)), (-4, F(-4)), (10 ** 50, F(10 ** 50)),
    ([5, 2], F(5, 2)), ([3, -4], F(-3, 4)), (["3", 4], F(3, 4)), ((6, 4), F(3, 2)),
    ({"num": 1, "den": 3}, F(1, 3)), ({"num": "-2"}, F(-2)),
])
def test_the_reader_accepts_these_rationals(obj, value):
    """The accepted spellings and their values; a string is read as
    Fraction(str) reads it, and the parts are integers over a positive
    denominator."""
    assert docs.parse_rational(obj) == value
    num, den = docs._rational_parts(obj)
    assert type(num) is int and type(den) is int and den > 0 and F(num, den) == value
    if isinstance(obj, str):
        assert F(obj) == value


@pytest.mark.parametrize("obj", [
    "1e5", "1E5", "2.5e-3", "1/0", "1/00", "1/-2", " 1 / 2 ", "1 /2", "--1", "+-1", "nan", "inf", "-inf",
    "", " ", ".", "-", "1/2/3", "1/2.5", ".5/2", "/2", "1__0", "_1", "1_", "0x10", "½",
    "1" * 5000 + "/3", "3/" + "1" * 5000, "0." + "1" * 5000,
    1.5, 2.0, float("nan"), True, False, None, [1, 0], [1, 2, 3], [1.5, 2], [True, 2], {"den": 2},
    {"num": 1, "den": 0}, {"num": 2.5},
])
def test_the_reader_rejects_these_entries_naming_them(obj):
    """A rejected entry is a ParseError whose message names the entry (or,
    for a bad integer field of a pair, that field)."""
    with pytest.raises(ParseError) as caught:
        docs.parse_rational(obj)
    message = str(caught.value)
    assert repr(obj) in message or "rational numerator" in message or "num:" in message


# -- the document caches -------------------------------------------------------------------

def _connection_document(name):
    return json.loads((Path(__file__).parent / "data" / name).read_text())


@pytest.mark.parametrize("name", ["n2_sigma_pair_connection.json", "rank2_connection.json",
                                  "vertex_counterexample.json"])
def test_cold_warm_and_evicted_parses_give_equal_modules(name):
    """A parse from cold caches, one from warm caches, and one after the
    section was pushed out of the section cache give equal modules; the
    rebuilt section has its own, equal map, so it reads its monomials from
    the memo, which is keyed by the map's value."""
    doc = _connection_document(name)
    cold_ctx, cold = docs.parse_connection(copy.deepcopy(doc))
    misses = docs._converted.cache_info().misses
    warm_ctx, warm = docs.parse_connection(copy.deepcopy(doc))
    assert warm_ctx.ambient is cold_ctx.ambient and docs._converted.cache_info().misses == misses
    for k in range(docs.SECTION_CACHE_SIZE):
        docs.parse_monoid({"generators": 20 + k})
    evicted_ctx, evicted = docs.parse_connection(copy.deepcopy(doc))
    assert evicted_ctx.monoid is not cold_ctx.monoid and evicted_ctx.ambient == cold_ctx.ambient
    assert cold_ctx.ambient is None or evicted_ctx.ambient is not cold_ctx.ambient
    assert docs._converted.cache_info().misses == misses and cold == warm == evicted


@pytest.mark.parametrize("name", ["rank2_connection.json", "vertex_counterexample.json"])
def test_two_cold_parses_give_equal_contexts_with_one_repr(name):
    """A context holds only data: two parses from cold caches give equal
    contexts with one hash and one repr, which holds no memory address;
    an embedded section's two maps are equal, distinct, and both act."""
    doc = _connection_document(name)
    docs.clear_caches()
    first = docs.parse_connection(copy.deepcopy(doc))[0]
    docs.clear_caches()
    second = docs.parse_connection(copy.deepcopy(doc))[0]
    assert first.monoid is not second.monoid
    assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
    assert "0x" not in repr(first)
    if first.ambient is not None:
        assert first.ambient is not second.ambient and first.ambient.inverse == second.ambient.inverse
        point = first.ambient_generators[-1]
        assert first.ambient(point) == second.ambient(point) == first.monoid.generators[-1][0]
    zero = {"free": [0] * len((first.ambient_generators or [first.monoid.gp.zero()[0]])[0])}
    assert first.parse_element(zero) == second.parse_element(zero) == first.monoid.gp.zero()


def test_each_monomial_is_converted_once_in_a_bounded_memo():
    """The memo of converted monomials has a maxsize, misses once per
    distinct monomial of an embedded section, and clear_caches empties it."""
    info = docs._converted.cache_info()
    assert info.maxsize == docs.MONOMIAL_CACHE_SIZE is not None and info.currsize == 0
    doc = _connection_document("plane_m_even_connection.json")
    written = [json.dumps(term["m"]) for item in doc["matrices"] for term in item["terms"]]
    monomials = set(written)
    docs.parse_connection(doc)
    docs.parse_connection(copy.deepcopy(doc))
    info = docs._converted.cache_info()
    assert len(written) > len(monomials)
    assert info.misses == info.currsize == len(monomials) and info.hits == 2 * len(written) - len(monomials)
    docs.clear_caches()
    assert docs._converted.cache_info().currsize == 0


def test_the_reader_reads_strings_as_fraction_does_less_exponent_notation():
    """On seeded strings over digits, signs, "_", ".", "/", spaces and "e",
    the reader accepts exactly what Fraction(str) accepts without an "e"
    or "E", with Fraction's value."""
    rng = random.Random(21)
    for _ in range(20000):
        s = "".join(rng.choice("0123456789_-+./ e") for _ in range(rng.randint(0, 8)))
        try:
            expected = None if "e" in s else F(s)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = docs.parse_rational(s)
        except ParseError:
            got = None
        assert got == expected, s
