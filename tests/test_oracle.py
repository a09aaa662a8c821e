"""The brute-force reference implementations and their agreement with the
fast paths across the fixture grid."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from logmonoid import cone, documents
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid import weighted_series as ws
from logmonoid.shearing import shear

from conftest import build_module

F = Fraction
DATA = Path(__file__).parent / "data"


def test_the_oracle_imports_nothing_from_the_engine_elimination():
    """A checker must not share the code it checks: every solve of the
    oracle reads a Smith form, and oracle.py binds no name of `qlin`, whose
    elimination runs every engine solve."""
    tree = ast.parse(Path(orc.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "qlin" in name.split(".")]


def test_budget_validation():
    with pytest.raises(ValueError):
        orc.EnumerationBudget(0)
    with pytest.raises(ValueError):
        orc.EnumerationBudget(5, 0)


def test_enumerate_nm1(nm1):
    m, conv = nm1
    ball = orc.enumerate_monoid(m, orc.EnumerationBudget(6))
    expected = sorted(m.gp.element(conv((k,))) for k in (0, 2, 3, 4, 5, 6))
    assert ball == expected


def test_enumerate_n2_bound2(n2):
    ball = orc.enumerate_monoid(n2, orc.EnumerationBudget(2))
    assert len(ball) == 6  # (0,0),(1,0),(0,1),(2,0),(1,1),(0,2)


def test_enumerate_m_even_bound4(m_even):
    # coordinate-sum weighting: 9 elements of {(a1,a2): a1+a2 even, a1+a2 <= 4}
    old = m_even
    h = mc.Weighting(old, (2, 2, 2))
    weighted = mc.FineMonoid(old.gp, old.generators, h.values)
    ball = orc.enumerate_monoid(weighted, orc.EnumerationBudget(4))
    assert len(ball) == 9


def test_enumerate_element_cap(n2):
    with pytest.raises(orc.BudgetExceeded, match=r"element_cap=5 exceeded: 6 elements .* weight_bound=10"):
        orc.enumerate_monoid(n2, orc.EnumerationBudget(10, element_cap=5))


def test_weight_budget_errors_name_the_bound_and_the_weight(n2):
    far = n2.element((5, 0))
    with pytest.raises(orc.BudgetExceeded, match="weight_bound=3 is below the element's weight 5"):
        orc.brute_membership(n2, far, orc.EnumerationBudget(3))
    with pytest.raises(orc.BudgetExceeded, match="weight_bound=3: .* g of weight 5"):
        orc.brute_h_plus(n2, far, orc.EnumerationBudget(3))


def test_enumeration_hands_out_a_fresh_list(n2):
    budget = orc.EnumerationBudget(3)
    first = orc.enumerate_monoid(n2, budget)
    first.clear()  # the caller owns its list
    again = orc.enumerate_monoid(mc.free_monoid(2), budget)
    assert len(again) == 10 and again == orc.enumerate_monoid(n2, budget)
    assert orc.brute_membership(n2, n2.element((3, 0)), budget)
    assert orc._ball.cache_info().maxsize is not None  # the only cache is bounded


def test_brute_faces_counts(n2, m_even, nm1):
    assert len(orc.brute_faces(n2, orc.EnumerationBudget(4))) == 4
    assert len(orc.brute_faces(m_even, orc.EnumerationBudget(6))) == 4
    assert len(orc.brute_faces(nm1[0], orc.EnumerationBudget(8))) == 2


def test_faces_match_oracle_on_grid(n1, n2, nm1, m_even):
    budget = orc.EnumerationBudget(6)
    square_cone, _ = mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    stretched, _ = mc.from_embedded([[2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1]])
    for m in (n1, n2, nm1[0], m_even, square_cone, stretched):
        ball = set(orc.enumerate_monoid(m, budget))
        fast = {
            frozenset(orc._closure_in_ball(m, f.generators(), ball))
            for f in mc.faces(m)
        }
        brute = set(orc.brute_faces(m, budget))
        assert fast == brute


RANK4 = {  # tests/data document -> saturated
    "pyramid_pentagon.json": False,
    "pyramid_pentagon_saturated.json": True,
}


@pytest.mark.parametrize("name", sorted(RANK4))
def test_rank4_faces_membership_and_hilbert_basis_match_oracle(name):
    """Pyramids over a lattice pentagon, with and without its interior point.
    Faces and membership are compared at the grid's weight 6."""
    m = documents.parse_monoid(documents.load_json(DATA / name)).monoid
    budget = orc.EnumerationBudget(6)
    ball = set(orc.enumerate_monoid(m, budget))
    fast = {frozenset(orc._closure_in_ball(m, f.generators(), ball)) for f in mc.faces(m)}
    assert fast == set(orc.brute_faces(m, budget)) and len(fast) == 24
    sample = sorted(ball)[:12]
    for g in ball | {m.gp.sub(x, y) for x in sample for y in sample}:
        if ws.default_weighting(m)(g) <= 6:
            assert mc.membership(m, g) == (g in ball)
    basis = cone.hilbert_basis(m.index.cone)
    verdicts = [mc.membership(m, (z, ())) for z in basis]
    for z, fast_in in zip(basis, verdicts):
        weight = int(ws.default_weighting(m)((z, ())))
        assert orc.brute_membership(m, (z, ()), orc.EnumerationBudget(weight)) == fast_in
    assert verdicts.count(False) == (0 if RANK4[name] else 1)
    assert mc.is_saturated_bounded(m) is RANK4[name]
    sat = mc.saturation(m)
    assert mc.is_saturated_bounded(sat) and all(mc.membership(sat, (z, ())) for z in basis)


def test_brute_h_plus_examples(n2):
    assert orc.brute_h_plus(n2, n2.element((1, -1)), orc.EnumerationBudget(6)) == 1
    for g in n2.generators:
        assert orc.brute_h_plus(n2, g, orc.EnumerationBudget(6)) == 1


def test_membership_agreement_grid(n1, n2, nm1, m_even):
    budget = orc.EnumerationBudget(6)
    for m in (n1, n2, nm1[0], m_even):
        h = ws.default_weighting(m)
        ball = set(orc.enumerate_monoid(m, budget))
        probes = set(ball)
        sample = sorted(ball)[:10]
        for x in sample:
            for y in sample:
                probes.add(m.gp.sub(x, y))
        for g in probes:
            if h(g) > 6:
                continue
            assert mc.membership(m, g) == (g in ball)


def test_brute_shear_grid():
    """fast vs brute gauges on the connection fixture grid (n <= 3, r <= 2, T <= 6)."""
    from conftest import gauge_built_module

    n1 = mc.free_monoid(1)
    n2 = mc.free_monoid(2)
    two_dir, _, _ = gauge_built_module(
        n2,
        [((F(0), F(0)), (F(0), F(1, 2))), ((F(1, 3), F(0)), (F(0), F(1, 3)))],
        {(1, 0): ((0, 1), (0, 0)), (0, 1): ((0, 0), (1, 0))},
        2, 6,
    )
    rank3, _, _ = gauge_built_module(
        n1,
        [((F(0), F(0), F(0)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1, 2)))],
        {(1,): ((0, 1, 0), (0, 0, 0), (1, 0, 0))},
        3, 6,
    )
    fixtures = [
        build_module(n1, [{(0,): ((0, 0), (0, F(1, 2))), (1,): ((0, 1), (0, 0))}], 2, 6),
        build_module(n1, [{(0,): ((F(1, 3),),), (1,): ((1,),), (2,): ((F(2, 7),),)}], 1, 6),
        two_dir,
        rank3,
    ]
    for e in fixtures:
        assert lc.validate_integrability(e)
        sr = shear(e)
        brute = orc.brute_shear_order(e, 3)
        assert brute, "oracle produced no orders"
        for key, bm in brute.items():
            assert tuple(tuple(x.coeff(key) for x in row) for row in sr.gauge) == bm


def test_brute_shear_underdetermined_raises(n1):
    # integer exponent difference: the weight-1 block is singular
    e = build_module(n1, [{(0,): ((0, 0), (0, 1)), (1,): ((0, 1), (0, 0))}], 2, 4)
    with pytest.raises(orc.SingularSystem):
        orc.brute_shear_order(e, 2)