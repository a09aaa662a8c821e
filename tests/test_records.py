"""The record types are values: read-only fields, field-wise equality,
hashing and repr, checks that run on direct construction, and a radius
order that is the order of radii, not the tuple order of the exponent."""

import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import constant_models as cmod
from logmonoid import documents as docs
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
from logmonoid.abelian import AbelianGroup, quotient_presented
from logmonoid.oracle import EnumerationBudget
from logmonoid.qlin import INF
from logmonoid.shearing import shear
from logmonoid.unipotence import is_sigma_unipotent

DATA = Path(__file__).parent / "data"
F = Fraction

RECORDS = (
    "AbelianGroup", "QuotientMap", "MonoidContext", "Embedding", "ExponentSet",
    "LogNablaModule", "ResidueDecomposition", "BoundRecord", "ShearResult", "UnipotenceReport",
    "HomotopyReport", "FineMonoid", "Face", "MonoidHom", "SectionData", "EnumerationBudget",
    "Weighting", "Radius", "TruncatedSeries", "NormResult", "ValuationPoint", "LatticeMap",
)


@pytest.fixture(scope="module")
def records():
    """One instance of every record type, by class name."""
    ctx, e = docs.parse_connection(docs.load_json(DATA / "n2_sigma_pair_connection.json"))
    sigma = docs.parse_sigma(ctx, docs.load_json(DATA / "sigma_pair.json"))
    n2, n1 = ctx.monoid, mc.free_monoid(1)
    hom = mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((1,))))
    sheared = shear(e)
    series = sheared.gauge[0][0]
    found = [
        AbelianGroup(1, (2,)), quotient_presented(2, [])[1], ctx, e.embedding,
        sigma, e, lc.exponents(e), sheared.bound_report[0], sheared,
        is_sigma_unipotent(e, sigma, mc.faces(n2)[0]),
        cmod.homotopy_check(e.embedding, sigma.elements[1], sigma.elements[1], [(n2.element((1, 0)), ())]),
        n2, mc.faces(n2)[1], hom, mc.section(hom), EnumerationBudget(3), ctx.weighting,
        cmaps.Radius.p_power(F(1, 2)), series, ws.gauss_norm(series, cmaps.Radius.one()),
        ws.valuation_point(n2, [1, INF]), mc.from_embedded([[2, 0], [1, 1], [0, 2]])[1],
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
    assert hash(copy) == hash(r)
    if name != "FineMonoid":  # FineMonoid keeps its short repr
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(_fields(r), values))
        assert repr(r) == f"{name}({fields})"


def test_fine_monoid_differs_from_a_tuple_of_its_fields(records):
    m = records["FineMonoid"]
    assert m != (m.gp, m.generators, m.weighting)
    assert m != mc.FineMonoid(m.gp, m.generators, (1, 2))


def _checks(n1, n2, m_even, e):
    """(class, positional fields, keyword fields, message) for every check
    a record runs when built."""
    one = n1.element((1,))
    # a module needs a nonzero matrix to show its shape
    fields = (e.embedding, e.weighting, e.truncation)
    unit = ((((n2.gp.zero(), (1,)),), 1),) * 2

    def row(cls, *args, message, **kwargs):
        return cls, args, kwargs, message

    return [
        row(AbelianGroup, 1, (1,), message=">= 2"),
        row(AbelianGroup, 0, (2, 3), message="divisibility chain"),
        row(EnumerationBudget, 0, message="must be positive"),
        row(EnumerationBudget, 3, element_cap=0, message="must be positive"),
        row(mc.FineMonoid, AbelianGroup(2), (((1,), ()),), message="wrong shape"),
        row(mc.FineMonoid, n2.gp, n2.generators, (1,), message="every generator"),
        row(mc.MonoidHom, n2, n1, (one,), message="one image per source generator"),
        row(mc.MonoidHom, m_even, n1, (one, n1.gp.zero(), n1.gp.zero()), message="presentation"),
        row(mc.Weighting, n2, (1,), message="one weight per generator"),
        row(mc.Weighting, n2, (-1, 1), message="non-negative"),
        row(mc.Weighting, m_even, (1, 1, 2), message="group homomorphism"),
        row(mc.Weighting, n2, (0, 1), message="vanish exactly on unit"),
        row(ws.ValuationPoint, n2, (F(0),), message="one valuation per generator"),
        row(ws.ValuationPoint, m_even, (INF, F(0), F(0)), message="monoid relation"),
        row(ws.ValuationPoint, m_even, (F(1), F(1), F(3)), message="monoid relation"),
        row(lc.Embedding, n2, ((1, 0, 0), (0, 1, 0)), message="length free_rank"),
        row(lc.Embedding, n2, ((1, 1), (1, 1)), message="rational isomorphism"),
        row(lc.Embedding, n2, ((1, 0), (0, -1)), message="into N\\^r"),
        row(lc.ExponentSet, n2, ((F(1),),), message="wrong dimension"),
        row(lc.LogNablaModule, e.rank, *fields, e.matrices, None, "ring", message="interval_kind"),
        row(lc.LogNablaModule, e.rank, e.embedding, ws.default_weighting(m_even), e.truncation, e.matrices,
            message="share one monoid"),
        row(lc.LogNablaModule, e.rank, *fields, e.matrices[:1], message="one matrix per"),
        row(lc.LogNablaModule, e.rank + 1, *fields, unit, message="rank x rank"),
        row(lc.LogNablaModule, e.rank, *fields, e.matrices, unit[:1] + ((((n2.gp.zero(), (1, 0)),), 1),),
            message="rank x rank"),
    ]


def test_every_check_raises_on_direct_construction(n1, n2, m_even, records):
    """And on `_replace` of a valid record of the type with the same fields,
    which builds through the same checks (FineMonoid is no tuple)."""
    for cls, args, kwargs, message in _checks(n1, n2, m_even, records["LogNablaModule"]):
        with pytest.raises(ValueError, match=message):
            cls(*args, **kwargs)
        if cls is not mc.FineMonoid:
            with pytest.raises(ValueError, match=message):
                records[cls.__name__]._replace(**dict(zip(cls._fields, args)), **kwargs)


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
                assert op(cmaps.Radius(a), cmaps.Radius(b)) is want, (a, b, op.__name__)
    radii = [cmaps.Radius(q) for q in qs]
    assert max(radii) == cmaps.Radius.one() and min(radii) == cmaps.Radius.zero()
    assert sorted(radii) == [cmaps.Radius(None), cmaps.Radius(F(1)), cmaps.Radius(F(1, 2)), cmaps.Radius(F(0))]


def test_radius_mix_with_a_zero_radius():
    """self^c other^(1-c): with a zero radius, c = 0 gives other, c = 1
    gives self and any c in between gives radius 0; two finite radii mix
    their exponents."""
    zero, r = cmaps.Radius.zero(), cmaps.Radius.p_power(2)
    for a, b in ((zero, r), (r, zero), (zero, zero)):
        assert a.mix(b, F(0)) == b and a.mix(b, F(1)) == a
        assert a.mix(b, F(1, 2)) == zero
    assert r.mix(cmaps.Radius.one(), F(1, 4)) == cmaps.Radius.p_power(F(1, 2))
