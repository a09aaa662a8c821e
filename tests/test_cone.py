"""The facet layer of `cone`: faces, facets, units and cone membership read
from one double description, against the subset-LP enumeration they
replace, on a seeded grid of monoids of cone rank 0 and 2-4; verticality
and surjectivity of seeded homomorphisms into that grid, against the
bounded searches they replace and the oracle."""

import itertools
import math
import random
from pathlib import Path

import pytest

from logmonoid import cone, documents
from logmonoid import monoid_core as mc
from logmonoid import oracle as orc
from logmonoid.errors import NotSharp, NotSurjective, TorsionTarget
from logmonoid.qlin import qmat, qrank, qsolve, qvec

from conftest import cone_member, face_quotient_route_semi_saturated, quotient_route_weighting


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
        if not any(v) or cone_member(vecs, tuple(-x for x in v)) is not None
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
        assert _in_cone(c, x) == (cone_member(vecs, qvec(x)) is not None), (kind, x)


def test_grid_covers_every_kind():
    ranks = {m.index.cone.dim - len(m.index.cone.lines) for _, m in GRID}
    assert {0, 2, 3, 4} <= ranks
    assert any(m.gp.torsion_invariants for _, m in GRID)
    assert any(not mc.is_sharp(m) for _, m in GRID)


def test_default_weighting_equals_the_quotient_route_on_the_grid():
    """On a fresh copy of every grid monoid the default values and the
    weighted index's functional, as its denominator and numerators, equal the
    quotient route's; those with no unit generator and a torsion-free gp
    build no sharp quotient."""
    own_kinds = set()
    for kind, m in GRID:
        fresh = mc.FineMonoid(m.gp, m.generators)
        values = mc.default_weighting(fresh)
        index = fresh.index.weighted(values)
        got = (values, index.denominator, index.numerators)
        assert got == quotient_route_weighting(mc.FineMonoid(m.gp, m.generators)), kind
        own = not mc.unit_generator_indices(m) and not m.gp.torsion_invariants
        assert ("sharp" in vars(fresh.index)) != own, kind
        if own:
            own_kinds.add(kind)
    assert {"pointed", "repeated"} <= own_kinds


def test_semi_saturation_equals_the_face_quotient_route_on_the_grid():
    """On a fresh copy of every grid monoid the verdict equals the
    face-quotient route's; the grid shows both verdicts."""
    verdicts = set()
    for kind, m in GRID:
        verdict = mc.is_semi_saturated(mc.FineMonoid(m.gp, m.generators))
        assert verdict is face_quotient_route_semi_saturated(m), kind
        verdicts.add(verdict)
    assert verdicts == {True, False}


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
                assert _in_cone(c, x) == (cone_member([qvec(v) for v in vectors], qvec(x)) is not None)



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


def _moment_curve(k):
    """The monoid of the rank-4 moment-curve rays (1, t, t^2, t^3), t = 1..k."""
    return mc.from_embedded([[1, t, t * t, t ** 3] for t in range(1, k + 1)])[0]


def test_saturation_verdict_matches_the_hilbert_basis(n1, n2, nm1, m_even, torsion_monoid):
    """The verdict read from the candidates equals the one read from the whole
    Hilbert basis (gp torsion-free and every basis element in M) on the
    grid, the oracle's grid, the two pyramids, moment_curve_20 and the
    rank-4 moment-curve cones with 5..12 rays."""
    data = Path(__file__).parent / "data"
    monoids = [m for _, m in GRID] + [
        n1, n2, nm1[0], m_even, torsion_monoid,
        mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])[0],
        mc.from_embedded([[2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1]])[0],
    ] + [documents.parse_monoid(documents.load_json(data / name)).monoid
         for name in ("pyramid_pentagon.json", "pyramid_pentagon_saturated.json", "moment_curve_20.json")
         ] + [_moment_curve(k) for k in range(5, 13)]
    seen = set()
    for m in monoids:
        if not mc.is_sharp(m):
            with pytest.raises(NotSharp):
                mc.is_saturated_bounded(m)
            with pytest.raises(NotSharp):
                mc.saturation(m)
            continue
        verdict = mc.is_saturated_bounded(m)
        basis = m.index.hilbert_basis
        assert verdict is (not m.gp.torsion_invariants and all(mc.membership(m, (z, ())) for z in basis))
        found = set(cone.candidates(m.index.cone))
        assert set(basis) <= found and tuple([0] * m.gp.free_rank) not in found
        assert all(_in_cone(m.index.cone, z) for z in found)
        seen.add((bool(m.gp.torsion_invariants), verdict))
    assert seen == {(False, True), (False, False), (True, False)}


def test_saturation_verdict_stops_at_the_first_candidate_outside(monkeypatch):
    """On the rank-4 moment-curve cone with 40 rays the verdict builds no
    Hilbert basis and reads candidates only up to the first non-member; on a
    saturated pyramid it reads them all."""
    monkeypatch.setattr(cone, "hilbert_basis", lambda c: pytest.fail("the verdict built the Hilbert basis"))
    read = []
    candidates = cone.candidates
    monkeypatch.setattr(cone, "candidates", lambda c: (read.append(z) or z for z in candidates(c)))
    m = _moment_curve(40)
    assert mc.is_saturated_bounded(m) is False
    assert not mc.membership(m, (read[-1], ())) and all(mc.membership(m, (z, ())) for z in read[:-1])
    del read[:]
    data = Path(__file__).parent / "data" / "pyramid_pentagon_saturated.json"
    pyramid = documents.parse_monoid(documents.load_json(data)).monoid
    assert mc.is_saturated_bounded(pyramid) is True
    assert read == list(candidates(pyramid.index.cone))


# -- homomorphisms into the grid ----------------------------------------------

def _sums(gens, gp, count):
    """Every sum of at most `count` of gens, repetition allowed, fewest
    summands first."""
    seen = frontier = {gp.zero()}
    yield gp.zero()
    for _ in range(count):
        frontier = {gp.add(e, g) for e in frontier for g in gens} - seen
        seen = seen | frontier
        yield from sorted(frontier)


def _searched_vertical(f, bound=6):
    """The bounded search is_vertical made before the facet criterion: True
    when a sum of at most `bound` images dominates every target generator,
    False when for some generator m the rational relaxation m + M ni f(n)
    is infeasible, None otherwise."""
    m = f.target
    rays = [im[0] for im in f.images] + [tuple(-v for v in g[0]) for g in m.generators]
    undecided = False
    for tgt in m.generators:
        if any(mc.divides(m, tgt, x) for x in _sums(f.images, m.gp, bound)):
            continue
        if cone_member(rays, tgt[0]) is None:
            return False
        undecided = True
    return None if undecided else True


def _searched_onto(f, bound=8):
    """The bounded surjectivity search section made before membership in the
    image submonoid: every target generator is a sum of at most `bound`
    images."""
    sums = set(_sums(f.images, f.target.gp, bound))
    return all(tgt in sums for tgt in f.target.generators)


def _oracle_onto(f):
    """Every target generator in the image submonoid, by the oracle's ball
    at the generator's weight; the image must be sharp."""
    image = mc.FineMonoid(f.target.gp, f.images)
    _, weight = orc._weight_map(image)
    return all(
        orc.brute_membership(image, tgt, orc.EnumerationBudget(max(1, math.ceil(weight(tgt)))))
        for tgt in f.target.generators
    )


def _homs(rng, m, count=3):
    """The hom from the trivial monoid, then `count` homs from N^k: every
    generator, or sums of one or two random generators, or such sums inside
    a random face."""
    gp, gens = m.gp, m.generators
    out = [mc.MonoidHom(mc.free_monoid(0), m, ())]
    faces = mc.faces(m)
    for _ in range(count):
        style = rng.choice(("onto", "sums", "face"))
        if style == "onto":
            images = list(gens)
        else:
            pool = list(gens) if style == "sums" else faces[rng.randrange(len(faces))].generators()
            images = [gp.add(*rng.sample(pool, 2)) if len(pool) > 1 and rng.random() < 0.5 else rng.choice(pool)
                      for _ in range(rng.randint(1, 3) if pool else 0)]
        rng.shuffle(images)
        out.append(mc.MonoidHom(mc.free_monoid(len(images)), m, tuple(images)))
    return out


HOM_SEED = GRID_SEED + 2


def test_homs_into_the_grid_match_the_old_searches_and_the_oracle():
    """is_vertical equals the old bounded search wherever it decided, and
    section's surjectivity equals the old search and the oracle's membership
    of each target generator in the image submonoid."""
    seen = {"vertical": set(), "undecided": 0, "onto": set(), "oracle": 0, "torsion": 0, "units": 0}
    for case, (kind, m) in enumerate(GRID):
        rng = random.Random(HOM_SEED + case)
        for f in _homs(rng, m):
            where = (case, kind, f.images)
            vertical = mc.is_vertical(f)
            old = _searched_vertical(f)
            assert vertical in (True, False) and old in (vertical, None), where
            seen["vertical"].add(vertical)
            seen["undecided"] += old is None
            if m.gp.torsion_invariants:
                with pytest.raises(TorsionTarget):
                    mc.section(f)
                seen["torsion"] += 1
                continue
            try:
                mc.section(f)
                onto = True
            except NotSurjective:
                onto = False
            assert onto == _searched_onto(f), where
            seen["onto"].add(onto)
            if mc.is_sharp(mc.FineMonoid(m.gp, f.images)):
                assert onto == _oracle_onto(f), where
                seen["oracle"] += 1
            else:
                seen["units"] += 1
    assert seen["vertical"] == seen["onto"] == {True, False}
    assert min(seen["undecided"], seen["oracle"], seen["torsion"], seen["units"]) > 0, seen


def test_vertical_and_onto_past_the_old_search_bounds():
    """N -> <1, 9>: 9 is a sum of 9 images, past the old searches' bounds
    (section raised NotSurjective, is_vertical gave None).  The hom from the
    trivial monoid is vertical exactly onto a group."""
    m, _ = mc.from_embedded([[1], [9]])
    f = mc.MonoidHom(mc.free_monoid(1), m, (m.element((1,)),))
    assert mc.is_vertical(f) is True and _searched_vertical(f) is None
    sd = mc.section(f)
    assert sd.kernel.free_rank == 0 and sd.section.images == m.generators
    assert _oracle_onto(f) and not _searched_onto(f)
    trivial = mc.free_monoid(0)
    finite_group = next(g for kind, g in GRID if kind == "rank0")
    for target, vertical in ((m, False), (trivial, True), (finite_group, True)):
        assert mc.is_vertical(mc.MonoidHom(trivial, target, ())) is vertical
    with pytest.raises(NotSurjective):
        mc.section(mc.MonoidHom(trivial, m, ()))
    assert mc.section(mc.MonoidHom(trivial, trivial, ())).kernel.free_rank == 0
