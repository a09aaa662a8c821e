"""The one integer map, `snf.LatticeMap`, against what it replaced:
`SmithForm.solve` and `MonoidHom.gp_apply` give, on seeded random inputs,
exactly what solving through the Smith coordinates y = (u b)_i / d_i and
mapping v y (or the images of the Smith basis vectors) gives; and the
record from either producer (`SmithForm.solution_map`, `qlin.solve_map`)
calls, reads rationally and inverts as Fractions do."""

import itertools
import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from logmonoid import monoid_core as mc
from logmonoid import qlin, selftest
from logmonoid import snf
from logmonoid.abelian import AbelianGroup, group_quotient


def _smith_coordinates(smith, b):
    """y with a (v y) = b and y zero past the rank, or None."""
    c = snf.mat_vec(smith.u, tuple(b))
    y = [0] * smith.cols
    for i, (ci, di) in enumerate(zip(c, smith.diagonal)):
        if di == 0:
            if ci != 0:
                return None
        elif ci % di != 0:
            return None
        else:
            y[i] = ci // di
    return y


def _reference_solve(smith, b):
    y = _smith_coordinates(smith, b)
    return None if y is None else snf.mat_vec(smith.v, y)


def _reference_gp_apply(f, x):
    """f(x) through the cover coordinates of the images of the Smith basis
    vectors of the source generators."""
    smith = f.source.index.span.smith
    y = _smith_coordinates(smith, f.source.gp.lift(x))
    if y is None:
        raise ValueError("element outside the source group")
    v, tg = smith.v, f.target.gp
    lifts = [tg.lift(im) for im in f.images]
    images = tuple(
        tuple(sum(v[i][j] * lift[r] for i, lift in enumerate(lifts)) for j in range(len(v)))
        for r in range(tg.cover_dim)
    )
    return tg.from_cover(snf.mat_vec(images, y))


def _matrix(rng, rows, cols, bound=4):
    return snf.as_matrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _matrices(rng):
    """(kind, matrix, column count): empty, rank-deficient, wide, tall,
    square and torsion cover matrices."""
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        yield "empty", ((),) * rows, cols
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        for inner in range(1, min(rows, cols)):
            a = snf.mat_mul(_matrix(rng, rows, inner, 2), _matrix(rng, inner, cols, 2))
            yield "rank-deficient", a, cols
        yield "wide" if rows < cols else "tall" if rows > cols else "square", _matrix(rng, rows, cols), cols
    for _ in range(12):
        g = AbelianGroup(rng.randint(0, 2), rng.choice(((), (2,), (3,), (2, 4), (2, 6))))
        gens = [g.element([rng.randint(-3, 3) for _ in range(g.free_rank)],
                          [rng.randrange(d) for d in g.torsion_invariants]) for _ in range(rng.randint(0, 4))]
        # GroupSpan's matrix [lifted gens | torsion relations]
        cover = [g.lift(e) for e in gens] + g.cover_relations()
        yield "torsion cover", snf.as_matrix([[col[i] for col in cover] for i in range(g.cover_dim)]), len(cover)


def test_solve_equals_the_smith_coordinate_solve():
    """Every random right-hand side solves (or fails) as through the Smith
    coordinates; a solvable one to an integer solution, and one passing the
    checks to the rational solution rows b / den.  The cases include right-hand
    sides the check rows reject and ones only the den divisibility rejects."""
    rng = random.Random(40)
    seen = {"solved": 0, "checks": 0, "divisibility": 0}
    kinds = set()
    for kind, a, cols in _matrices(rng):
        kinds.add(kind)
        smith = snf.SmithForm(a, cols)
        rows, den, checks = smith.solution_map
        n = len(a)
        assert len(rows) == cols and len(checks) == n - smith.rank and den >= 1
        for _ in range(8):
            solvable = snf.mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)])
            shifted = tuple(y + (i == 0) for i, y in enumerate(solvable))
            for b in (solvable, shifted, tuple(rng.randint(-5, 5) for _ in range(n))):
                expected = _reference_solve(smith, b)
                assert smith.solve(b) == expected, (kind, a, b)
                passes_checks = not any(snf.mat_vec(checks, b))
                if expected is not None:
                    seen["solved"] += 1
                    assert snf.mat_vec(a, expected) == b
                elif passes_checks:
                    seen["divisibility"] += 1
                else:
                    seen["checks"] += 1
                if passes_checks:
                    assert snf.mat_vec(a, snf.mat_vec(rows, b)) == tuple(den * y for y in b)
    assert kinds == {"empty", "rank-deficient", "wide", "tall", "square", "torsion cover"}
    assert min(seen.values()) > 20, seen


def _source_grid(m, radius=2):
    """Elements of the source gp with free coordinates in [-radius, radius]
    and every torsion coordinate."""
    g = m.gp
    for free in itertools.product(range(-radius, radius + 1), repeat=g.free_rank):
        for tor in itertools.product(*(range(d) for d in g.torsion_invariants)):
            yield g.element(free, tor)


def _random_homs(rng):
    """Quotient maps of random monoids in groups with torsion, whose
    generators need not span the group, and the sections of the selftest
    surjections."""
    for _ in range(10):
        g = AbelianGroup(rng.randint(1, 2), rng.choice(((), (2,), (3,), (2, 4))))
        gens = tuple(dict.fromkeys(
            g.element([rng.randint(-2, 3) for _ in range(g.free_rank)], [rng.randrange(d) for d in g.torsion_invariants])
            for _ in range(rng.randint(1, 4))))
        source = mc.FineMonoid(g, gens)
        killed = [g.element([rng.randint(-2, 2) for _ in range(g.free_rank)]) for _ in range(rng.randint(0, 2))]
        q, project = group_quotient(g, killed)
        images = tuple(project(x) for x in gens)
        yield mc.MonoidHom(source, mc.FineMonoid(q, images), images)
    for f in selftest._surjections():
        yield mc.section(f).section


@pytest.mark.parametrize("homs", ["surjections", "random"])
def test_gp_apply_equals_the_smith_basis_images(homs):
    """gp_apply is x's generator coefficients times the lifted images; it
    gives what the images of the Smith basis vectors give, and raises on the
    same elements outside the source group."""
    outside = inside = 0
    for f in selftest._surjections() if homs == "surjections" else _random_homs(random.Random(41)):
        for x in _source_grid(f.source):
            try:
                expected = _reference_gp_apply(f, x)
            except ValueError:
                outside += 1
                with pytest.raises(ValueError, match="outside the source group"):
                    f.gp_apply(x)
                continue
            inside += 1
            assert f.gp_apply(x) == expected, (f, x)
    assert inside > 50 and (outside > 10 or homs == "surjections"), (inside, outside)


# -- the record against Fractions ---------------------------------------------------------

def _fraction_solve(a, b, ncols):
    """The solution of a x = b with every free variable zero, from the
    reduced row echelon form of [a | b] over Fractions, or None."""
    m, pivots = ref.qrref([tuple(row) + (x,) for row, x in zip(a, b)], ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [F(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = row[ncols]
    return tuple(x)


def _fraction_smith_solve(smith, b):
    """The solution of a x = b with zero Smith coordinates past the rank,
    y_i = (u b)_i / d_i over Fractions and x = v y, or None."""
    c = [sum((x * y for x, y in zip(row, b)), F(0)) for row in smith.u]
    if any(c[smith.rank:]):
        return None
    y = [c[i] / smith.diagonal[i] for i in range(smith.rank)] + [0] * (smith.cols - smith.rank)
    return tuple(sum((x * z for x, z in zip(row, y)), F(0)) for row in smith.v)


def _records(rng):
    """(kind, a, producer, record, the Fraction solve of a x = b) for seeded
    square, wide, tall, singular and den > 1 matrices, each from the Smith
    form and from the elimination."""
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        for _ in range(2):
            shapes = [("wide" if rows < cols else "tall" if rows > cols else "square", _matrix(rng, rows, cols, 3))]
            if min(rows, cols) > 1:
                inner = rng.randint(1, min(rows, cols) - 1)
                shapes.append(("singular", snf.mat_mul(_matrix(rng, rows, inner, 2), _matrix(rng, inner, cols, 2))))
            for kind, a in shapes:
                smith = snf.SmithForm(a, cols)
                yield kind, a, "smith", smith.solution_map, lambda b, s=smith: _fraction_smith_solve(s, b)
                yield kind, a, "gauss", qlin.solve_map(a), lambda b, a=a, c=cols: _fraction_solve(a, b, c)


def test_the_record_equals_the_fraction_computation():
    """The record's call, rational read and inverse give what Fractions
    give: the call the Fraction solution when it is integral and None
    otherwise, the rational read the solution for b / bden, and the inverse
    the solution z of (rows / den) z = y, checks z = 0; and the inverse
    undoes the call on the lattice."""
    rng = random.Random(44)
    seen = {"solved": 0, "checks": 0, "divisibility": 0, "den > 1": 0, "inverse refused": 0}
    kinds = set()
    for kind, a, producer, record, solve in _records(rng):
        kinds.add((kind, producer))
        rows, den, checks = record
        cols, n = len(rows), len(a)
        seen["den > 1"] += den > 1
        inverse = record.inverse
        stack = [tuple(F(x, den) for x in row) for row in rows] + [tuple(map(F, row)) for row in checks]
        for _ in range(6):
            x = [rng.randint(-3, 3) for _ in range(cols)]
            image = snf.mat_vec(a, x)
            for b in (image, tuple(y + (i == 0) for i, y in enumerate(image)), tuple(rng.randint(-5, 5) for _ in range(n))):
                bden = rng.choice((1, 2, 3))
                expected = solve(tuple(F(y, bden) for y in b))
                read = record.rational(b, bden)
                assert (None if read is None else tuple(F(y, read[1]) for y in read[0])) == expected, (a, b, bden)
                expected = solve(tuple(map(F, b)))
                integral = expected is not None and all(y.denominator == 1 for y in expected)
                assert record(b) == (tuple(map(int, expected)) if integral else None), (producer, a, b)
                seen["solved" if integral else "divisibility" if expected is not None else "checks"] += 1
                if integral:
                    assert inverse(record(b)) == b
            y = tuple(rng.randint(-4, 4) for _ in range(cols))
            z = _fraction_solve(stack, y + (0,) * len(checks), n)
            read = inverse.rational(y)
            assert (None if read is None else tuple(F(v, read[1]) for v in read[0])) == z, (producer, a, y)
            integral = z is not None and all(v.denominator == 1 for v in z)
            assert inverse(y) == (tuple(map(int, z)) if integral else None)
            seen["inverse refused"] += z is None
    assert {kind for kind, _ in kinds} == {"square", "wide", "tall", "singular"} and len(kinds) == 8
    assert min(seen.values()) > 20, seen
