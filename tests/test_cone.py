"""The facet layer of `cone`: faces, facets, units and cone membership read
from one double description, against the subset-LP enumeration they
replace, on a seeded grid of monoids of cone rank 0 and 2-4."""

import itertools
import random

import pytest

from logmonoid import cone
from logmonoid import monoid_core as mc
from logmonoid.qlin import qmat, qrank, qsolve, qvec


def _reference_faces(vectors, d):
    """Face supports by one simplex LP per subset T of distinct generator
    rays: T is a face support iff a rational functional vanishes on T and is
    >= 1 on the other generators."""
    n, vecs = len(vectors), [qvec(v) for v in vectors]
    classes = {}
    for i, v in enumerate(vecs):
        classes.setdefault(v, []).append(i)
    forced = classes.pop(qvec([0] * d), [])
    keys = sorted(classes)
    found = set()
    for r in range(len(keys) + 1):
        for chosen in itertools.combinations(keys, r):
            t = set(forced).union(*(classes[k] for k in chosen))
            rest = [i for i in range(n) if i not in t]
            if cone.support_functional(vecs, sorted(t), rest, d) is not None:
                found.add(frozenset(t))
    return found


def _reference_units(vectors):
    """Generators v with -v in the cone, by simplex LP."""
    vecs = [qvec(v) for v in vectors]
    return {
        j for j, v in enumerate(vecs)
        if not any(v) or cone.cone_member(vecs, tuple(-x for x in v)) is not None
    }


def _dot(a, x):
    return sum(p * q for p, q in zip(a, x))


def _in_cone(c, x):
    """Every normal >= 0 on x and every vanishing form 0 on it."""
    return all(_dot(lam, x) >= 0 for lam in c.normals) and not any(_dot(line, x) for line in c.lines)


def _pointed(rng, d, k):
    """k integer vectors of Z^d with last coordinate 1 or 2: a pointed cone."""
    return [[rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2)] for _ in range(k)]


def _grid_case(rng, kind):
    d = rng.choice((2, 3, 4))
    if kind == "pointed":
        return mc.from_embedded(_pointed(rng, d, rng.randint(d, d + 3)))[0]
    if kind == "random":  # often with lineality, sometimes the whole space
        return mc.from_embedded([[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(2, d + 2))])[0]
    if kind == "unit-line":
        vecs = _pointed(rng, d, rng.randint(d - 1, d + 1))
        line = [rng.randint(-1, 1) for _ in range(d - 1)] + [rng.choice((-1, 1))]
        return mc.from_embedded(vecs + [line, [-x for x in line]])[0]
    if kind == "repeated":
        vecs = _pointed(rng, d, rng.randint(d, d + 2))
        return mc.from_embedded(vecs + [list(vecs[0]), [2 * x for x in vecs[-1]]])[0]
    if kind == "zero":
        vecs = _pointed(rng, d, rng.randint(d, d + 2))
        return mc.from_embedded(vecs[:1] + [[0] * d] + vecs[1:])[0]
    if kind == "torsion":  # N^n / (a x_i = a x_j) plus a random relation
        n = d + 2
        i, j = rng.sample(range(n), 2)
        a = rng.choice((2, 3))
        u = [rng.randint(0, 1) for _ in range(n)]
        v = [rng.randint(0, 1) for _ in range(n)]
        return mc.from_presentation(
            n, [([a if x == i else 0 for x in range(n)], [a if x == j else 0 for x in range(n)]), (u, v)]
        )
    # free rank 0: torsion generators only
    return mc.from_presentation(2, [((rng.choice((2, 3)), 0), (0, 0)), ((0, 2), (0, 0))])


KINDS = ("pointed", "random", "unit-line", "repeated", "zero", "torsion", "rank0")
GRID_SEED, GRID_CASES = 20261018, 42


_rng = random.Random(GRID_SEED)
GRID = [(kind, _grid_case(_rng, kind)) for _ in range(GRID_CASES // len(KINDS)) for kind in KINDS]


@pytest.mark.parametrize("case", range(GRID_CASES), ids=[f"{i}-{kind}" for i, (kind, _) in enumerate(GRID)])
def test_facet_layer_matches_subset_lps(case):
    kind, m = GRID[case]
    ref = _reference_faces([g[0] for g in m.generators], m.gp.free_rank)
    assert {f.generator_indices for f in mc.faces(m)} == ref
    proper = [f for f in ref if len(f) < len(m.generators)]
    assert {f.generator_indices for f in mc.facets(m)} == {f for f in proper if not any(f < g for g in proper)}
    assert mc.unit_generator_indices(m) == _reference_units([g[0] for g in m.generators])
    assert mc.faces(m)[0].generator_indices == mc.unit_generator_indices(m)
    # the normals and vanishing forms describe the cone the LP sees
    c, rng = m.index.cone, random.Random(case)
    vecs = [qvec(g[0]) for g in m.generators]
    for _ in range(12):
        x = [rng.randint(-3, 3) for _ in range(m.gp.free_rank)]
        assert _in_cone(c, x) == (cone.cone_member(vecs, qvec(x)) is not None), (kind, x)


def test_grid_covers_every_kind():
    ranks = {m.index.cone.dim - len(m.index.cone.lines) for _, m in GRID}
    assert {0, 2, 3, 4} <= ranks
    assert any(m.gp.torsion_invariants for _, m in GRID)
    assert any(not mc.is_sharp(m) for _, m in GRID)


def test_cones_spanning_less_than_the_space():
    """Generators in a hyperplane or a line of Q^3: the forms vanishing on
    them are kept as lines, and faces, units and membership still agree."""
    rng = random.Random(GRID_SEED + 1)
    for _ in range(8):
        flat = [(x, y, x - y) for x, y in (rng.choice(((1, 0), (0, 1), (1, 1), (2, 1), (-1, 1))) for _ in range(4))]
        line = [(x, 2 * x, 0) for x in rng.sample((-2, -1, 1, 3), 2)]
        for vectors in (flat, line, flat + line[:1]):
            c = cone.Cone(vectors, 3)
            assert len(c.lines) == 3 - qrank(qmat([qvec(v) for v in vectors]))
            assert c.faces() == _reference_faces(vectors, 3)
            assert c.lineality == _reference_units(vectors)
            for x in itertools.product(range(-1, 3), repeat=3):
                assert _in_cone(c, x) == (cone.cone_member([qvec(v) for v in vectors], qvec(x)) is not None)



def test_pulling_triangulation_covers_the_cone_once():
    """On the grid's pointed cones: every simplex has rank-many independent
    extreme rays, every cone point lies in some simplex, and none lies in the
    interior of two."""
    checked = 0
    for kind, m in GRID:
        c = m.index.cone
        rank = c.dim - len(c.lines)
        if kind == "random" or c.lineality or rank == 0:
            continue
        simplices = [[qvec(c.vectors[i]) for i in s] for s in c.triangulation()]
        assert all(len(s) == rank == qrank(qmat(s)) for s in simplices)
        for x in itertools.product(range(-2, 3), repeat=c.dim):
            if not any(x) or not _in_cone(c, x):
                continue
            coords = [qsolve(qmat([[r[i] for r in s] for i in range(c.dim)]), qvec(x)) for s in simplices]
            assert any(a is not None and min(a) >= 0 for a in coords)
            assert sum(1 for a in coords if a is not None and min(a) > 0) <= 1
            checked += 1
    assert checked > 100
