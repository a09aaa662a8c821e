"""The compiled per-monoid paths against their one-shot definitions:
integer weights, |h|, homomorphisms through one Smith form, call-order
independence and the lifetime of the index."""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
from logmonoid.abelian import AbelianGroup, solve_in_group

from conftest import gauge_built_module

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
    lam = mc.weighting_functional(monoid, values)
    for g in _grid(monoid):
        expected = sum((lam[i] * g[0][i] for i in range(len(lam))), Fraction(0))
        assert mc.weight_of(monoid, values, g) == expected


def test_h_abs_is_two_h_plus_minus_h(monoid):
    h = ws.default_weighting(monoid)
    for g in _grid(monoid):
        assert ws.h_abs(monoid, h, g) == 2 * ws.h_plus(monoid, h, g) - h(g)
        assert ws.h_minus(monoid, h, g) == ws.h_plus(monoid, h, g) - h(g)


def _homs(m):
    """The sharp projection and the quotient by each generator."""
    yield mc.sharp_quotient(m)[1]
    for g in m.generators:
        yield mc.quotient(m, [g])[1]


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
            mc.weight_of(m, h.values, g),
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
