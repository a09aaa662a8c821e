"""The D_l operators, the embedding's coordinates and twist_reduce on integer
rows against the Fraction code they replaced (`fraction_reference`), on the
seeded grid of `test_spectral`: constant models with Jordan blocks and
repeated eigenvalues."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import fraction_reference as ref
import test_spectral
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
from logmonoid.errors import CertificationFailed, HypothesisError

F = Fraction
T = 2  # the sections' truncation: the limit projects at l up to T


def _outcome(fn, *args):
    """fn's value, or the kind of error it raises: a failed self-check is an
    AssertionError in the Fraction code and a CertificationFailed here."""
    try:
        return fn(*args)
    except (AssertionError, CertificationFailed):
        return "certification"
    except HypothesisError as exc:
        return type(exc).__name__


def _sections(rng, e, count):
    """count tuples of rank-many random series with keys of weight <= T."""
    m, w = e.monoid, e.weighting
    keys = m.index.weighted(w.values).upto(T)
    return [tuple(ws.series(m, w, {k: F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for k in rng.sample(keys, 3)}, T)
                  for _ in range(e.rank))
            for _ in range(count)]


GRID = test_spectral.GRID


@pytest.mark.parametrize("case,r,n,mats", GRID, ids=[f"{c}-r{r}-n{n}" for c, r, n, _ in GRID])
def test_dl_operators_match_the_fraction_code(case, r, n, mats):
    """D_l and its limit read the module's own Q_i; the Fraction code is
    handed its own default polynomials."""
    rng = random.Random(100 + case)
    e = test_spectral._module(mats, n)
    polys = ref.default_projection_polynomials(e)
    own = lc.default_projection_polynomials(e)
    assert own == polys and all(type(c) is F for q in own for c in q)
    for v in _sections(rng, e, 1):
        for l in (1, 2):
            got = _outcome(lc.dl_projection, e, v, l)
            assert got == _outcome(ref.dl_projection, e, v, polys, l)
            if not isinstance(got, str):
                assert repr(got) == repr(ref.dl_projection(e, v, polys, l))
        got = _outcome(lc.dl_limit, e, v)
        assert got == _outcome(ref.dl_limit, e, v, polys)
        assert isinstance(got, str) or all(type(x) is F for x in got)


def test_the_dl_grid_reaches_every_outcome():
    """Limits, vanishing denominators and annihilating polynomials all occur
    on the grid; the self-checks, which fail only on a fault of the program,
    never do."""
    seen = Counter()
    for case, r, n, mats in GRID:
        rng = random.Random(100 + case)
        e = test_spectral._module(mats, n)
        for v in _sections(rng, e, 1):
            got = _outcome(lc.dl_limit, e, v)
            seen[got if isinstance(got, str) else "limit"] += 1
    assert seen == {"limit": 34, "ZeroProjection": 11, "DenominatorVanishes": 3}


def _embeddings():
    """Facet embeddings of the tests' monoids and non-unimodular embeddings
    of N^2 and N^3."""
    n2, n3 = mc.free_monoid(2), mc.free_monoid(3)
    m_even = mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))])
    out = [lc.facet_embedding(m) for m in (mc.free_monoid(1), n2, n3, m_even, mc.from_embedded([[2], [3]])[0])]
    out += [lc.Embedding(n2, rows) for rows in (((1, 0), (1, 1)), ((2, 1), (1, 1)), ((1, 2), (3, 1)), ((2, 0), (0, 3)))]
    out += [lc.Embedding(n3, ((1, 1, 0), (0, 1, 1), (1, 0, 1))), lc.Embedding(n3, ((2, 1, 0), (0, 1, 0), (1, 0, 3)))]
    return out


def test_coordinates_and_twist_reduce_match_the_fraction_code():
    rng = random.Random(31)
    shifted = 0
    for emb in _embeddings():
        d = emb.monoid.gp.free_rank
        for _ in range(40):
            xi = tuple(F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(d))
            ints, den = emb.rational_coords(xi)
            assert tuple(F(x, den) for x in ints) == ref.rational_coords(emb, xi)
            y = tuple(rng.randint(-9, 9) for _ in range(d))
            for scale in (1, rng.choice((2, 3, 5))):
                ints, den = emb.inverse_coords(y, scale)
                assert tuple(F(x, den) for x in ints) == ref.inverse_coords(emb, tuple(F(c, scale) for c in y))
            got = lc.twist_reduce(emb, xi)
            assert got == ref.twist_reduce(emb, xi) and repr(got) == repr(ref.twist_reduce(emb, xi))
            assert all(type(x) is F for x in got[0])
            shifted += not emb.monoid.gp.is_zero(got[1])
    assert shifted > 100
