"""A Smith form's one integer map against the Smith-coordinate solve it
replaced: `SmithForm.solve` and `MonoidHom.gp_apply` give, on seeded random
inputs, exactly what solving through the Smith coordinates y = (u b)_i / d_i
and mapping v y (or the images of the Smith basis vectors) gives."""

import itertools
import random

import pytest

from logmonoid import monoid_core as mc
from logmonoid import selftest
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
