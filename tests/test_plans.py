"""Pair plans and the weight-order recursion of `coefficient_maps`, against
test-local double loops: the products of disk and annulus maps and of maps
over a monoid whose group has torsion, square and one-column right
factors, with cold plans, warm plans and after the document caches are
emptied; which modules share a plan; and the weight-order recursion
under several zero patterns of X."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import documents
from logmonoid import log_connection as lc
from logmonoid import weighted_series as ws
from logmonoid.log_convergence import log_convergence_check

from conftest import gauge_built_module

DATA = Path(__file__).parent / "data"


def _double_loop(m, h, t, a, b, cols):
    """The product of the (key, row-major matrix) pairs a and b, b's matrices
    with cols columns, at the keys with |h| <= t: one matrix product per
    pair of keys, zero matrices dropped."""
    index = m.index.weighted(h.values)
    out = {}
    for k1, x in a:
        for k2, y in b:
            k = m.gp.add(k1, k2)
            if index.h(k)[2] > t:
                continue
            inner = len(y) // cols
            rows = len(x) // inner
            acc = out.setdefault(k, [0] * (rows * cols))
            for r in range(rows):
                for c in range(cols):
                    acc[r * cols + c] += sum(x[r * inner + j] * y[j * cols + c] for j in range(inner))
    return {k: v for k, v in out.items() if any(v)}


def _product(m, h, t, a, b, cols):
    return {k: v for k, v in cmaps._map_mul(m, h, t, a, b, cols).items() if any(v)}


def _torsion_monoid():
    return documents.parse_monoid(json.loads((DATA / "torsion.json").read_text())).monoid


def _cases(rng, m, h, count):
    """Seeded (a, b, cols, annulus): n = 1..3, right factors square or one
    column, disk maps on the ball and annulus maps on differences of ball
    elements, each built at truncation 4."""
    ball = m.index.weighted(h.values).upto(4)
    diffs = [m.gp.sub(x, y) for x in ball for y in ball]
    for case in range(count):
        n, annulus = rng.randint(1, 3), case % 3 == 0
        cols = rng.choice((n, 1))

        def coefficients(rows, width):
            keys = [rng.choice(diffs if annulus else ball) for _ in range(rng.randint(1, 6))]
            entries = {k: [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rows * width)] for k in keys}
            return cmaps.coefficient_map(h, 4, entries, annulus)

        yield coefficients(n, n)[0], coefficients(n, cols)[0], cols, annulus


def test_plan_products_match_the_double_loop_cold_and_warm(n2):
    """Every product equals the double loop, on a cold plan cache and again
    on the warm one, at t = 4, 3, 2 in turn (so each truncation meets the
    plans of the one before); the grid reaches annulus keys where the |h|
    lookup prunes, one-column right factors and a monoid with torsion."""
    rng = random.Random(34)
    seen = set()
    for m in (n2, _torsion_monoid()):
        h = ws.default_weighting(m)
        index = m.index.weighted(h.values)
        for a, b, cols, annulus in _cases(rng, m, h, 60):
            index.plans.clear()
            for t in (4, 3, 2):
                want = _double_loop(m, h, t, a, b, cols)
                assert _product(m, h, t, a, b, cols) == want, t
                assert _product(m, h, t, a, b, cols) == want, t  # the plan is warm
            pruned = any(index.h(m.gp.add(k1, k2))[2] > 4 >= index.h(k1)[0] + index.h(k2)[0]
                         for k1, _ in a for k2, _ in b)
            seen |= {"annulus" if annulus else "disk", "column" if cols == 1 and len(b[0][1]) > 1 else "square"}
            seen |= {"|h| pruned"} if pruned else set()
            seen |= {"torsion"} if m.gp.torsion_invariants else set()
    assert seen == {"disk", "annulus", "column", "square", "|h| pruned", "torsion"}, seen
    assert len(index.plans) <= cmaps.PLAN_CACHE_SIZE


def test_plan_products_agree_after_the_document_caches_are_emptied():
    """The same seeded products on the torsion monoid of a document, then
    on the monoid parsed again after `documents.clear_caches()` (a new
    monoid, its plan cache cold): equal results, and the warm plans of the
    first build are not those of the second."""
    results, plans = [], []
    for _ in range(2):
        documents.clear_caches()
        m = _torsion_monoid()
        h = ws.default_weighting(m)
        rng = random.Random(35)
        results.append([_product(m, h, t, a, b, cols) for a, b, cols, _ in _cases(rng, m, h, 20) for t in (4, 3, 2)])
        plans.append(m.index.weighted(h.values).plans)
    assert results[0] == results[1]
    assert plans[0].keys() == plans[1].keys() and all(plans[0][k] is not plans[1][k] for k in plans[0])


def test_modules_with_equal_supports_share_one_plan(monkeypatch, n2):
    """All of a module's products run the plan of the union of its keys,
    kept by the weighted index: a second module with the same supports
    and other coefficients reuses the plan object, a module with a third
    support gets its own."""
    used = []
    product = cmaps.PairPlan.product
    monkeypatch.setattr(cmaps.PairPlan, "product", lambda self, a, b: used.append(self) or product(self, a, b))
    c1 = ((F(0), F(0)), (F(0), F(1, 2)))
    c2 = ((F(1, 3), F(0)), (F(0), F(1, 3)))
    modules = [gauge_built_module(n2, [c1, c2], gauge, 2, 4)[0] for gauge in (
        {(1, 0): ((0, 1), (0, 0))}, {(1, 0): ((0, 3), (0, 0))}, {(0, 1): ((0, 1), (0, 0))})]
    supports = [{k for terms, _ in e.matrices for k, _ in terms} for e in modules]
    assert supports[0] == supports[1] != supports[2]
    plans = []
    for e in modules:
        used.clear()
        assert lc.validate_integrability(e)
        assert log_convergence_check(e, cmaps.Radius.one(), cmaps.Radius.p_power(F(1, 2)), 2)
        assert len(used) == 4 and all(p is used[0] for p in used)
        plans.append(used[0])
    assert plans[0] is plans[1] and plans[2] is not plans[0]


def test_the_index_keeps_its_most_recently_used_plans(monkeypatch, n2):
    """Past PLAN_CACHE_SIZE plans the least recently used one is dropped;
    a plan read again counts as used last."""
    monkeypatch.setattr(cmaps, "PLAN_CACHE_SIZE", 3)
    h = ws.default_weighting(n2)
    index = n2.index.weighted(h.values)
    index.plans.clear()
    keys = index.upto(4)[:5]

    def product(k):
        return cmaps._map_mul(n2, h, 4, ((k, (1,)),), ((keys[0], (1,)),), 1)

    for k in keys[:3]:
        product(k)
    plans = list(index.plans.items())
    assert [key[2] for key, _ in plans] == [(k,) for k in keys[:3]]
    product(keys[0])
    product(keys[3])
    assert [key[2] for key in index.plans] == [(keys[2],), (keys[0],), (keys[3],)]
    assert index.plans[plans[0][0]] is plans[0][1]


def _reference_order(m, h, t, n, left, flats, solve):
    """The weight-order recursion as a double loop over every solved X_q
    and every left key: X_0 = I, X_m = solve(m, rhs) over the rationals."""
    index = m.index.weighted(h.values)
    ball = index.ball(t)
    xs = {m.gp.zero(): [F(int(i == j)) for i in range(n) for j in range(n)]}
    for key in index.upto(t)[1:]:
        rhs = []
        for terms, d in flats:
            acc = [F(0)] * (n * n)
            for k, a in terms:
                q = m.gp.sub(key, k)
                if q in xs and ball[k] + ball[q] <= t:
                    for r in range(n):
                        for c in range(n):
                            acc[r * n + c] -= sum(F(a[r * n + j], d) * xs[q][j * n + c] for j in range(n))
            rhs.append(acc)
        if any(any(x) for x in rhs):
            x = solve(key, rhs)
            if any(x):
                xs[key] = x
    return xs


@pytest.mark.parametrize("n", [1, 2])
def test_weight_order_matches_a_rational_double_loop(n2, n):
    """weight_order against a rational double loop, on one (t, n, left) in
    a row, with X zero at no key, at one key and at two, and after a run
    stopped by an exception.  Each solve is rhs_0 scaled by a key's own
    factor, or 0 at the keys of the pattern, so that new denominators
    arrive late and rescale X."""
    h = ws.default_weighting(n2)
    index = n2.index.weighted(h.values)
    t, rng = 5, random.Random(36 + n)
    keys = index.upto(t)
    left = keys[1:4]
    flats = []
    for _ in range(2):
        terms = [(k, [rng.randint(-3, 3) for _ in range(n * n)]) for k in left]
        flats.append((terms, rng.randint(1, 4)))
    factors = {k: F(rng.choice((1, 2, 3, 5, 7)), rng.choice((1, 2, 3, 5, 7))) for k in keys}

    def solve_rational(zeros):
        return lambda key, rhs: [F(0)] * (n * n) if key in zeros else [x * factors[key] for x in rhs[0]]

    def solve_integer(zeros, stop=None):
        def solve(key, rhs):
            if key == stop:
                raise ArithmeticError("stopped")
            x, d = rhs[0]
            f = factors[key]
            return ([0] * (n * n), 1) if key in zeros else ([v * f.numerator for v in x], d * f.denominator)
        return solve

    planes = [(cmaps._rows(terms, n, n), d) for terms, d in flats]
    for zeros in (set(), {keys[5]}, {keys[2], keys[9]}, {keys[9]}):
        with pytest.raises(ArithmeticError):
            cmaps.weight_order(index, t, n, left, planes, solve_integer(zeros, keys[7]))
        got, den = cmaps.weight_order(index, t, n, left, planes, solve_integer(zeros))
        want = _reference_order(n2, h, t, n, left, flats, solve_rational(zeros))
        assert {k: [F(v, den) for v in x] for k, x in got.items()} == want, zeros
