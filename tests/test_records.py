"""The record types are values: read-only fields, field-wise equality,
hashing and repr, checks that run on direct construction, and a radius
order that is the order of radii, not the tuple order of the exponent."""

import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from logmonoid import cli
from logmonoid import documents as docs
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
from logmonoid.abelian import AbelianGroup, quotient_presented
from logmonoid.oracle import EnumerationBudget
from logmonoid.qlin import INF

DATA = Path(__file__).parent / "data"
F = Fraction

RECORDS = (
    "AbelianGroup", "QuotientMap", "RunConfig", "MonoidContext", "Embedding", "ExponentSet",
    "LogNablaModule", "ResidueDecomposition", "BoundRecord", "ShearResult", "UnipotenceReport",
    "HomotopyReport", "FineMonoid", "Face", "MonoidHom", "SectionData", "EnumerationBudget",
    "Weighting", "Radius", "TruncatedSeries", "NormResult", "ValuationPoint",
)


@pytest.fixture(scope="module")
def records():
    """One instance of every record type, by class name."""
    ctx, e = docs.parse_connection(docs.load_json(DATA / "n2_sigma_pair_connection.json"))
    sigma = docs.parse_sigma(ctx, docs.load_json(DATA / "sigma_pair.json"))
    n2, n1 = ctx.monoid, mc.free_monoid(1)
    hom = mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((1,))))
    sheared = lc.shear(e)
    series = e.matrices[0][0][0]
    found = [
        AbelianGroup(1, (2,)), quotient_presented(2, [])[1], cli.RunConfig(), ctx, e.embedding,
        sigma, e, lc.exponents(e), sheared.bound_report[0], sheared,
        lc.is_sigma_unipotent(e, sigma, mc.faces(n2)[0]),
        lc.homotopy_check(e.embedding, sigma.elements[1], sigma.elements[1],
                          [{(n2.element((1, 0)), ()): F(1)}]),
        n2, mc.faces(n2)[1], hom, mc.section(hom), EnumerationBudget(3), ctx.weighting,
        ws.Radius.p_power(F(1, 2)), series, ws.gauss_norm(series, ws.Radius.one()),
        ws.valuation_point(n2, [1, INF]),
    ]
    out = {type(r).__name__: r for r in found}
    assert sorted(out) == sorted(RECORDS)
    return out


def _fields(r):
    return r._fields if isinstance(r, tuple) else ("gp", "generators", "weighting")


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(records, name):
    r = records[name]
    for field in _fields(r):
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))


@pytest.mark.parametrize("name", RECORDS)
def test_equality_hash_and_repr_are_field_wise(records, name):
    r = records[name]
    values = [getattr(r, f) for f in _fields(r)]
    copy = type(r)(*values)  # a fresh instance: the checks run again, nothing cached
    assert copy is not r and copy == r and repr(copy) == repr(r)
    if name != "HomotopyReport":  # its residuals are dicts, as before
        assert hash(copy) == hash(r)
    if name != "FineMonoid":  # FineMonoid keeps its short repr
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(_fields(r), values))
        assert repr(r) == f"{name}({fields})"


def test_fine_monoid_differs_from_a_tuple_of_its_fields(records):
    m = records["FineMonoid"]
    assert m != (m.gp, m.generators, m.weighting)
    assert m != mc.FineMonoid(m.gp, m.generators, (1, 2))


def _checks(n1, n2, m_even, e):
    """(constructor call, message) for every check a record runs when built."""
    one = n1.element((1,))
    return [
        (lambda: AbelianGroup(1, (1,)), ">= 2"),
        (lambda: AbelianGroup(0, (2, 3)), "divisibility chain"),
        (lambda: cli.RunConfig(prime=4), "--prime must be a prime"),
        (lambda: cli.RunConfig(weight_bound=0), "--weight-bound must be positive"),
        (lambda: cli.RunConfig(output_format="xml"), "json or text"),
        (lambda: EnumerationBudget(0), "must be positive"),
        (lambda: EnumerationBudget(3, element_cap=0), "must be positive"),
        (lambda: mc.FineMonoid(AbelianGroup(2), (((1,), ()),)), "wrong shape"),
        (lambda: mc.FineMonoid(n2.gp, n2.generators, (1,)), "every generator"),
        (lambda: mc.MonoidHom(n2, n1, (one,)), "one image per source generator"),
        (lambda: mc.MonoidHom(m_even, n1, (one, n1.gp.zero(), n1.gp.zero())), "presentation"),
        (lambda: ws.Weighting(n2, (1,)), "one weight per generator"),
        (lambda: ws.Weighting(n2, (-1, 1)), "non-negative"),
        (lambda: ws.Weighting(m_even, (1, 1, 2)), "group homomorphism"),
        (lambda: ws.Weighting(n2, (0, 1)), "vanish exactly on unit"),
        (lambda: ws.ValuationPoint(n2, (F(0),)), "one valuation per generator"),
        (lambda: ws.ValuationPoint(m_even, (INF, F(0), F(0))), "monoid relation"),
        (lambda: ws.ValuationPoint(m_even, (F(1), F(1), F(3))), "monoid relation"),
        (lambda: lc.Embedding(n2, ((1, 0, 0), (0, 1, 0))), "length free_rank"),
        (lambda: lc.Embedding(n2, ((1, 1), (1, 1))), "rational isomorphism"),
        (lambda: lc.Embedding(n2, ((1, 0), (0, -1))), "into N\\^r"),
        (lambda: lc.ExponentSet(n2, ((F(1),),)), "wrong dimension"),
        (lambda: lc.LogNablaModule(e.rank, e.embedding, e.matrices, None, "ring"), "interval_kind"),
        (lambda: lc.LogNablaModule(e.rank, e.embedding, e.matrices[:1]), "one matrix per"),
        (lambda: lc.LogNablaModule(e.rank + 1, e.embedding, e.matrices), "rank x rank"),
    ]


def test_every_check_raises_on_direct_construction(n1, n2, m_even, records):
    for build, message in _checks(n1, n2, m_even, records["LogNablaModule"]):
        with pytest.raises(ValueError, match=message):
            build()


@dataclass(frozen=True)
class _DataclassRadius:
    """The radius as it was: a frozen dataclass defining only <= and <, so
    > and >= are answered by the reflected operation."""

    q: Optional[Fraction]

    def __le__(self, other):
        if self.q is None:
            return True
        if other.q is None:
            return False
        return self.q >= other.q

    def __lt__(self, other):
        return self <= other and self != other


def test_radius_comparisons_match_the_dataclass_radius():
    qs = [None, F(0), F(1), F(1, 2)]  # radius 0, p^0, p^-1, p^(-1/2)
    for a in qs:
        for b in qs:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                want = op(_DataclassRadius(a), _DataclassRadius(b))
                assert op(ws.Radius(a), ws.Radius(b)) is want, (a, b, op.__name__)
    radii = [ws.Radius(q) for q in qs]
    assert max(radii) == ws.Radius.one() and min(radii) == ws.Radius.zero()
    assert sorted(radii) == [ws.Radius(None), ws.Radius(F(1)), ws.Radius(F(1, 2)), ws.Radius(F(0))]
