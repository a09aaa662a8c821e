"""The spectral layer on integer rows against the Fraction code it replaced
(`fraction_reference`): characteristic polynomials and rational roots,
the joint decomposition, eigenbasis data, filtration ranks, nilpotency
indices, (S-D) and the face images, on a seeded grid of commuting residue
tuples with repeated eigenvalues and Jordan blocks."""

import random
from fractions import Fraction

import pytest

import fraction_reference as ref
from conftest import build_module
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import qlin
from logmonoid import weighted_series as ws
from logmonoid.errors import IrrationalExponent, NonCommutingResidues

F = Fraction
EIGENVALUES = (F(0), F(0), F(1, 2), F(1, 3), F(-2, 3), F(1), F(5, 4), F(-7, 6))


def _conjugator(rng, n):
    """An invertible rational matrix: a random unipotent L U with scaled rows."""
    low = [[F(int(i == j)) if i <= j else F(rng.randint(-2, 2)) for j in range(n)] for i in range(n)]
    up = [[F(rng.choice((1, 2, -3))) if i == j else F(rng.randint(-2, 2), rng.choice((1, 2, 3))) if i < j
           else F(0) for j in range(n)] for i in range(n)]
    return qlin.qmat_mul(qlin.qmat(low), qlin.qmat(up))


def _commuting_residues(rng, r, n):
    """r commuting n x n matrices P (xi_b I + c_b J) P^-1 on a Jordan block
    structure shared by all of them; eigenvalues repeat across blocks."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    p = _conjugator(rng, n)
    p_inv = ref.qinverse(p)
    mats = []
    for _ in range(r):
        core = [[F(0)] * n for _ in range(n)]
        pos = 0
        for size in sizes:
            xi, c = rng.choice(EIGENVALUES), F(rng.choice((0, 1, 1, 2, -1)), rng.choice((1, 2)))
            for k in range(size):
                core[pos + k][pos + k] = xi
                if k + 1 < size:
                    core[pos + k][pos + k + 1] = c
            pos += size
        mats.append(qlin.qmat_mul(qlin.qmat_mul(p, qlin.qmat(core)), p_inv))
    return mats


def _grid():
    rng = random.Random(20)
    for case in range(48):
        r, n = case % 3 + 1, case % 4 + 1
        yield case, r, n, _commuting_residues(rng, r, n)


GRID = list(_grid())


def _charpoly_and_roots(a):
    """What `_residue_spectrum` computes for a = b / d: the characteristic
    polynomial of a as c_k(b) / d^(n-k), and its roots y / d for the roots y
    of the integer polynomial of b, or None."""
    b, d = qlin.over_lcm(a)
    poly = qlin.int_charpoly(b)
    roots = qlin.integer_roots(poly)
    scaled = [F(c, d ** (len(b) - k)) for k, c in enumerate(poly)]
    return scaled, None if roots is None else [(F(y, d), mult) for y, mult in roots]


def test_charpoly_and_roots_match_the_fraction_code():
    """int_charpoly on 600 random matrices, n <= 5; the roots where the
    divisor search of the Fraction code stays small (n <= 3), and on the
    grid."""
    rng = random.Random(21)
    seen = set()
    for case in range(600):
        n = rng.randint(1, 5)
        a = qlin.qmat([[F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(n)] for _ in range(n)])
        poly, roots = _charpoly_and_roots(a)
        assert poly == ref.charpoly(a)
        if n <= 3 and case % 3 == 0:
            assert roots == ref.rational_roots(poly)
            seen.add(roots is None)
    for _, _, _, mats in GRID:
        for a in mats:
            poly, roots = _charpoly_and_roots(a)
            assert poly == ref.charpoly(a)
            assert roots == ref.rational_roots(poly)
    assert seen == {True, False}


def test_rational_roots_on_products_of_factors():
    """Monic integer polynomials: linear factors (with repeats, roots 0
    among them) times an irreducible quadratic or not."""
    rng = random.Random(22)
    for _ in range(300):
        poly = [1]
        for _ in range(rng.randint(0, 4)):
            root = rng.randint(-6, 6) * rng.randint(1, 4)
            poly = [c - root * d for c, d in zip([0] + poly, poly + [0])]
        if rng.random() < 0.3:
            quad = (rng.choice((2, 3, 5, -1)), 0, 1)  # x^2 + c
            poly = [sum(poly[i] * quad[k - i] for i in range(len(poly)) if 0 <= k - i < 3)
                    for k in range(len(poly) + 2)]
        roots = qlin.integer_roots(poly)
        assert (None if roots is None else [(F(y), mult) for y, mult in roots]) == ref.rational_roots(poly)
    assert qlin.integer_roots([0, 0, -4, 0, 1]) == [(-2, 1), (0, 2), (2, 1)]
    assert qlin.integer_roots([98, 21, -12, 1]) == [(-2, 1), (7, 2)]  # a square root of c_0 = 49 * 2
    assert qlin.integer_roots([3, 0, 1]) is None
    big, small = 1000003, 999983  # small is found at q = small, big as the root of the linear quotient
    poly = [-5 * big * small, 5 * (big + small) + big * small, -(5 + big + small), 1]
    assert qlin.integer_roots(poly) == [(5, 1), (small, 1), (big, 1)]


def _module(mats, n):
    r = len(mats)
    m = mc.free_monoid(r)
    return lc.apply_ui(lc.facet_embedding(m), ws.default_weighting(m), mats, 3)


def _as_fractions(decomp):
    """The decomposition with each block's integer basis over its denominator
    read as Fraction vectors."""
    return decomp._replace(blocks=tuple(tuple(tuple(F(x, den) for x in v) for v in vectors)
                                        for vectors, den in decomp.blocks))


def _eigenbasis_fractions(data, res):
    """Shear's eigenbasis data with the eigenvalues over each residue's
    denominator and the matrices over theirs read as Fractions."""
    return tuple(([F(y, d) for y in eigs], *map(lc._fractions, mats)) for (eigs, *mats), (_, d) in zip(data, res))


@pytest.mark.parametrize("case,r,n,mats", GRID, ids=[f"{c}-r{r}-n{n}" for c, r, n, _ in GRID])
def test_spectral_layer_matches_the_fraction_code(case, r, n, mats):
    rng = random.Random(case)
    e = _module(mats, n)
    decomp = ref.decomposition(mats, e.embedding, n)
    assert _as_fractions(e.decomposition) == decomp  # the blocks too, vector for vector
    assert repr(lc.exponents(e).exponents) == repr(decomp.exponents)
    assert repr(lc.exponents(e).eigentuples) == repr(decomp.eigentuples)
    assert lc.residue(e) == tuple(mats)
    assert e.residues == tuple((tuple(map(tuple, rows)), d) for rows, d in map(qlin.over_lcm, mats))
    assert _eigenbasis_fractions(e.eigenbasis_data, e.residues) == tuple(ref.eigenbasis_data(a) for a in mats)
    assert e.filtration_ranks == ref.filtration_ranks(decomp, mats)
    assert e.nilpotency_indices == ref.nilpotency_indices(decomp, mats)
    own = decomp.exponent_set(e.monoid)
    other = lc.ExponentSet(e.monoid, tuple(tuple(rng.choice(EIGENVALUES) for _ in range(r))
                                            for _ in range(rng.randint(1, 3))))
    for sigma in (own, other):
        assert lc.check_sd(sigma) == ref.check_sd(sigma)
        if not lc.check_sd(sigma):
            continue
        for module in (e, e._replace(interval_kind="annulus")):
            annulus = module.interval_kind == "annulus"
            for face in mc.faces(e.monoid):
                rep = lc.is_sigma_unipotent(module, sigma, face)
                assert (rep.verdict, rep.face_images) == ref.unipotence(decomp, sigma, face, annulus)
                assert rep.filtration_ranks == e.filtration_ranks


def test_the_grid_covers_jordan_blocks_repeats_and_both_sd_outcomes():
    jordan = repeated = 0
    sd = set()
    for _, _, n, mats in GRID:
        e = _module(mats, n)
        jordan += any(k > 1 for row in e.nilpotency_indices for k in row)
        repeated += any(len(set(eigs)) < len(eigs) for eigs, *_ in e.eigenbasis_data)
        sd.add(lc.check_sd(lc.ExponentSet(e.monoid, tuple(tuple(x) for x in e.decomposition.exponents))))
    assert jordan >= 10 and repeated >= 10 and sd == {True, False}


def test_irrational_exponent_is_refused(n1):
    e = lc.apply_ui(lc.facet_embedding(n1), ws.default_weighting(n1), [((0, 2), (1, 0))], 3)  # x^2 - 2
    with pytest.raises(IrrationalExponent):
        lc.exponents(e)
    with pytest.raises(IrrationalExponent):
        lc.shear(e)


def test_non_commuting_residues_are_refused(n2):
    e = build_module(n2, [{(0, 0): ((0, 1), (0, 0))}, {(0, 0): ((0, 0), (1, 0))}], 2, 3)
    with pytest.raises(NonCommutingResidues):
        lc.exponents(e)
    with pytest.raises(NonCommutingResidues):
        lc.is_sigma_unipotent(e, lc.ExponentSet(n2, ((F(0), F(0)),)), mc.faces(n2)[0])
