"""Exact structure theory of fine monoids.

A fine monoid is stored as the integral image of its generators inside the
Grothendieck group (Smith-normalized), which makes integrality free and
membership a weight-bounded lattice search.  Faces, facets and units are
read from the facets of the rational cone of the generator free parts
(`cone.Cone`): a generator g is a unit iff free(g) lies in the lineality
space of that cone (clearing denominators in -free(g) = sum c_i free(g_i)
produces a torsion element of the monoid, which is always a unit).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import cone as _cone
from . import snf as _snf
from .abelian import AbelianGroup, Elt, GroupSpan, group_quotient, quotient_presented
from .errors import (
    CertificationFailed,
    NoPositiveFunctional,
    NotInGroupSpan,
    NotSharp,
    NotSubmonoid,
    NotSurjective,
    TorsionTarget,
    checked_make,
)
from .qlin import QVector, qmat, qsolve, qvec


class FineMonoid:
    """Finitely generated integral monoid inside its Grothendieck group.

    A value: read-only fields, equal and hashed by (gp, generators,
    weighting); the instance dict holds the cached `index`."""

    __slots__ = ("gp", "generators", "weighting", "__dict__", "__weakref__")

    def __init__(self, gp: AbelianGroup, generators: tuple[Elt, ...], weighting: Optional[tuple[int, ...]] = None):
        for g in generators:
            if len(g[0]) != gp.free_rank or len(g[1]) != len(gp.torsion_invariants):
                raise ValueError("generator has wrong shape for gp")
        if weighting is not None and len(weighting) != len(generators):
            raise ValueError("weighting must assign a value to every generator")
        for name, value in (("gp", gp), ("generators", generators), ("weighting", weighting)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of FineMonoid")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gp, self.generators, self.weighting) == (other.gp, other.generators, other.weighting)

    def __hash__(self):
        return hash((self.gp, self.generators, self.weighting))

    def element(self, free, torsion=()) -> Elt:
        return self.gp.element(free, torsion)

    @cached_property
    def index(self) -> "MonoidIndex":
        """Derived data, computed on demand at most once and freed with the monoid."""
        return MonoidIndex(self)

    def __repr__(self):
        return f"FineMonoid(rank={self.gp.free_rank}, torsion={self.gp.torsion_invariants}, gens={len(self.generators)})"


class Face(NamedTuple):
    parent: FineMonoid
    generator_indices: frozenset[int]

    def generators(self) -> list[Elt]:
        return [self.parent.generators[i] for i in sorted(self.generator_indices)]


class _MonoidHomFields(NamedTuple):
    source: FineMonoid
    target: FineMonoid
    images: tuple[Elt, ...]


class MonoidHom(_MonoidHomFields):
    # no __slots__: the instance dict holds the cached _smith_images

    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.images) != len(self.source.generators):
            raise ValueError("one image per source generator required")
        tg = self.target.gp
        for rel in self.source.index.span.relations():
            acc = tg.zero()
            for c, im in zip(rel, self.images):
                acc = tg.add(acc, tg.scale(c, im))
            if not tg.is_zero(acc):
                raise ValueError("images do not respect the source presentation")
        return self

    @cached_property
    def _smith_images(self) -> _snf.IntMatrix:
        """Cover coordinates of the images of the Smith basis vectors of the
        source generators: column j is sum_i v[i][j] * lift(images[i])."""
        v = self.source.index.span.smith.v
        lifts = [self.target.gp.lift(im) for im in self.images]
        return tuple(
            tuple(sum(v[i][j] * lift[r] for i, lift in enumerate(lifts)) for j in range(len(v)))
            for r in range(self.target.gp.cover_dim)
        )

    def gp_apply(self, x: Elt) -> Elt:
        y = self.source.index.span.smith.smith_coordinates(self.source.gp.lift(x))
        if y is None:
            raise ValueError("element outside the source group")
        return self.target.gp.from_cover(_snf.mat_vec(self._smith_images, y))

    def __call__(self, x: Elt) -> Elt:
        return self.gp_apply(x)


class SectionData(NamedTuple):
    hom: MonoidHom
    ntilde: FineMonoid
    section: MonoidHom
    kernel: AbelianGroup
    kernel_basis: tuple[Elt, ...]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_presentation(generator_count: int, relations: Sequence[tuple[Sequence[int], Sequence[int]]]) -> FineMonoid:
    """Image monoid of N^n in Z^n / <u - v>."""
    if generator_count < 0:
        raise ValueError(f"generators must be non-negative, got {generator_count}")
    cols = []
    for u, v in relations:
        if len(u) != generator_count or len(v) != generator_count:
            raise ValueError("relation vectors must have length generator_count")
        if any(x < 0 for x in u) or any(x < 0 for x in v):
            raise ValueError("relation vectors must be non-negative")
        cols.append(tuple(int(a) - int(b) for a, b in zip(u, v)))
    g, qmap = quotient_presented(generator_count, cols)
    gens = tuple(qmap(tuple(1 if i == j else 0 for i in range(generator_count))) for j in range(generator_count))
    return FineMonoid(g, gens)


def from_embedded(vectors: Sequence[Sequence[int]]):
    """Monoid generated by integer vectors inside Z^k; a group with torsion
    needs a presentation (`from_presentation`).

    Returns (monoid, convert) where convert maps an ambient element (free
    tuple, empty torsion tuple) to the normalized gp coordinates.  One Smith form
    u a v = d of the ambient generators gives the relations; a convert is
    one Smith-coordinate step and one mat-vec with u' v[:count, :rank], u'
    the quotient map's, composed once.
    """
    if not vectors:
        raise ValueError("at least one generator required")
    count = len(vectors)
    ambient = AbelianGroup(len(vectors[0]), ())
    span = GroupSpan(ambient, [ambient.element(v) for v in vectors])
    g, qmap = quotient_presented(count, span.relations())
    gens = tuple(qmap(tuple(1 if i == j else 0 for i in range(count))) for j in range(count))
    monoid = FineMonoid(g, gens)
    smith, rank = span.smith, span.smith.rank
    # the Smith coordinates past the rank are zero; the quotient map's rows
    # give gp's cover coordinates
    to_gp = _snf.mat_mul(qmap.rows, tuple(row[:rank] for row in smith.v[:count]))

    def convert(x) -> Elt:
        elt = ambient.element(x[0], x[1]) if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], tuple) else ambient.element(x)
        y = smith.smith_coordinates(ambient.lift(elt))
        if y is None:
            raise ValueError("element lies outside the group generated by the monoid")
        return g.from_cover(_snf.mat_vec(to_gp, y[:rank]))

    return monoid, convert


def free_monoid(n: int) -> FineMonoid:
    return from_presentation(n, [])


# ---------------------------------------------------------------------------
# units, sharpness, weightings
# ---------------------------------------------------------------------------

class MonoidIndex:
    """What the queries on one fine monoid derive from it, each computed at
    most once.  The monoid owns its index (`FineMonoid.index`), so the index
    is freed with it; every entry is a function of the monoid alone, so no
    answer depends on which queries came first."""

    def __init__(self, m: FineMonoid):
        self.monoid = m
        self._weighted: dict[tuple[int, ...], WeightedIndex] = {}
        self._face_projections: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}

    @cached_property
    def span(self) -> GroupSpan:
        """The generators inside gp, with one Smith form for every solve."""
        return GroupSpan(self.monoid.gp, self.monoid.generators)

    @cached_property
    def cone(self) -> _cone.Cone:
        """The rational cone of the generator free parts, by its facets."""
        m = self.monoid
        return _cone.Cone([g[0] for g in m.generators], m.gp.free_rank)

    @cached_property
    def unit_indices(self) -> frozenset[int]:
        return self.cone.lineality

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Every face, ordered by (size, generator indices)."""
        return tuple(Face(self.monoid, s) for s in sorted(self.cone.faces(), key=_face_key))

    @cached_property
    def facet_normals(self) -> dict[Face, tuple[int, ...]]:
        """Each facet with its primitive integer normal on the gp free
        coordinates (>= 0 on every generator, 0 exactly on the facet's), in
        face order."""
        pairs = sorted(zip(self.cone.supports, self.cone.normals), key=lambda p: _face_key(p[0]))
        return {Face(self.monoid, s): lam for s, lam in pairs}

    def face_projection(self, face: Face) -> tuple[tuple[int, ...], ...]:
        """gp^free -> (M/F)^gp free, the free part of the projection of
        `face_quotient_group`, as integer rows kept for the face."""
        found = self._face_projections.get(face.generator_indices)
        if found is None:
            gp = self.monoid.gp
            project = group_quotient(gp, face.generators())[1]
            cols = [project(gp.element(e))[0] for e in _snf.identity(gp.free_rank)]
            found = self._face_projections[face.generator_indices] = tuple(zip(*cols))
        return found

    @cached_property
    def hilbert_basis(self) -> tuple[tuple[int, ...], ...]:
        """The Hilbert basis of the cone, on the gp free coordinates."""
        return tuple(_cone.hilbert_basis(self.cone))

    @cached_property
    def semi_saturated(self) -> bool:
        """(M/F)^gp = Z^cover / <F's generator lifts, gp's torsion relations> is
        torsion-free for every face F: no Smith form and no face quotient."""
        gp = self.monoid.gp
        lifts, relations = [gp.lift(g) for g in self.monoid.generators], gp.cover_relations()
        return all(_snf.cokernel_is_torsion_free([lifts[i] for i in f.generator_indices] + relations)
                   for f in self.faces)

    @cached_property
    def sharp(self) -> tuple[FineMonoid, "MonoidHom"]:
        """M / M* together with the projection homomorphism."""
        m = self.monoid
        unit_gens = [m.generators[i] for i in sorted(self.unit_indices)]
        q, project = group_quotient(m.gp, unit_gens)
        images = tuple(project(g) for g in m.generators)
        mbar = FineMonoid(q, images, m.weighting)
        return mbar, MonoidHom(m, mbar, images)

    @cached_property
    def default_values(self) -> tuple[int, ...]:
        """The values of the integral functional lam of one LP, >= 1 on the
        nonzero generators of the sharp quotient and 0 on its zero ones.

        A monoid with no unit generator, a torsion-free gp and generators
        spanning gp^free (x) Q is its own sharp quotient
        (`quotient_presented(n, [])` is the identity): lam is read off its
        own generators, and, as the only functional taking these values,
        given to their weighted index, so no quotient is built and nothing
        is solved again."""
        m = self.monoid
        if m.weighting is not None:
            return m.weighting
        own = not self.unit_indices and not m.gp.torsion_invariants and not self.cone.lines
        mbar = m if own else self.sharp[0]
        vecs = [g[0] for g in mbar.generators]
        zero_set = [i for i, g in enumerate(mbar.generators) if mbar.gp.is_zero(g)]
        positive_set = [i for i in range(len(vecs)) if i not in zero_set]
        lam = _cone.support_functional(vecs, zero_set, positive_set, mbar.gp.free_rank)
        if lam is None:
            raise NoPositiveFunctional("sharp quotient admits no positive functional")
        den = math.lcm(*(x.denominator for x in lam))
        lam_int = [int(x * den) for x in lam]
        values = tuple(sum(c * x for c, x in zip(lam_int, g[0])) for g in mbar.generators)
        if own and values not in self._weighted:
            self._weighted[values] = WeightedIndex(self, values, tuple(map(Fraction, lam_int)))
        return values

    def weighted(self, values: tuple[int, ...]) -> "WeightedIndex":
        """The index of the weighting with these generator values; its
        functional is solved from them unless `default_values` gave it."""
        found = self._weighted.get(values)
        if found is None:
            m = self.monoid
            lam = qsolve(qmat([[Fraction(x) for x in g[0]] for g in m.generators]), qvec(values))
            if lam is None:
                raise ValueError("weights are not induced by a group homomorphism")
            found = self._weighted[values] = WeightedIndex(self, values, lam)
        return found


class WeightedIndex:
    """One weighting h of a fine monoid, compiled from its generator values
    and the rational functional lam with h(g) = lam * free(g).

    h is kept as integer numerators over one denominator.  On a sharp monoid
    the ball of elements of weight <= bound is grown level by level in
    place; `h` memoizes (h, h+, |h|) per element, searched in that ball, or
    for a monoid with units in the ball of the sharp quotient.  The pair
    plans of the products over this weighting are kept here too."""

    def __init__(self, index: MonoidIndex, values: tuple[int, ...], lam: QVector):
        self.index = index
        self.values = values
        self.functional: QVector = lam
        self.denominator = math.lcm(*(x.denominator for x in lam))
        self.numerators = tuple(int(x * self.denominator) for x in lam)
        self._levels: list[list[Elt]] = []  # elements of weight exactly w
        self._ball: dict[Elt, int] = {}
        self._gens: Optional[list[tuple[Elt, int]]] = None
        self._h: dict[Elt, tuple[int, int, int]] = {}
        self.plans: dict = {}  # the plans of `coefficient_maps`, least recently used first

    def weight(self, g: Elt) -> Fraction:
        """Group extension h(g) = lam * free(g); integral on the span of M."""
        return Fraction(self.scaled_weight(g), self.denominator)

    def scaled_weight(self, g: Elt) -> int:
        """h(g) times the denominator, an integer."""
        return sum(map(mul, self.numerators, g[0]))

    # -- the ball (sharp monoids) ------------------------------------------
    def _grow(self, bound: int) -> None:
        m = self.index.monoid
        gp = m.gp
        if self._gens is None:
            gens: dict[Elt, int] = {}
            for g, w in zip(m.generators, self.values):
                if gp.is_zero(g):
                    continue
                if w <= 0:
                    raise ValueError("nonzero generator with non-positive weight in a sharp monoid")
                gens.setdefault(g, w)
            self._gens = list(gens.items())
            self._levels.append([gp.zero()])
            self._ball[gp.zero()] = 0
        levels, ball = self._levels, self._ball
        # an element of weight w > 0 is g + e with e of weight w - h(g)
        for w in range(len(levels), bound + 1):
            level = []
            for g, wg in self._gens:
                if wg > w:
                    continue
                for e in levels[w - wg]:
                    cand = gp.add(e, g)
                    if cand not in ball:
                        ball[cand] = w
                        level.append(cand)
            levels.append(level)

    def ball(self, bound: int) -> dict[Elt, int]:
        """Every element of weight <= bound mapped to its weight, plus the
        heavier ones earlier queries reached.  The index's own dict: read it,
        do not modify it."""
        if bound >= len(self._levels):
            self._grow(bound)
        return self._ball

    def level(self, w: int) -> list[Elt]:
        """The elements of weight exactly w."""
        self.ball(w)
        return self._levels[w]

    def upto(self, bound: int) -> list[Elt]:
        """The elements of weight <= bound, ordered by (weight, element)."""
        self.ball(bound)
        return [e for level in self._levels[: bound + 1] for e in sorted(level)]

    def contains(self, g: Elt) -> bool:
        """g in M, for a sharp monoid: look g up in the ball of its weight,
        grown to that weight if it is not yet."""
        num = self.scaled_weight(g)
        if num < 0 or num % self.denominator:
            return False
        return g in self.ball(num // self.denominator)

    # -- h, h+ and |h| -----------------------------------------------------
    def h(self, g: Elt) -> tuple[int, int, int]:
        """(h(g), h+(g), |h|(g)) with h+(g) = min{h(y) : y in M, y - g in M}.
        On a sharp monoid the ball grows to h(g) at least; |h| >= |h(g)|, so
        a caller that keeps only |h| <= t can drop the heavier keys first."""
        found = self._h.get(g)
        if found is None:
            found = self._h[g] = self._h_triple(g)
        return found

    def _h_triple(self, g: Elt) -> tuple[int, int, int]:
        sharp = is_sharp(self.index.monoid)
        # y = g is the least candidate for an element of M: h+ = h = |h|
        if sharp and self.contains(g):
            hg = self.scaled_weight(g) // self.denominator
            return hg, hg, hg
        coeffs = self.index.span.coefficients(g)
        if coeffs is None:
            raise NotInGroupSpan("element outside the group generated by the monoid")
        hg = sum(c * v for c, v in zip(coeffs, self.values))
        # y = sum of the positive part of g is a candidate, so h+ <= seed
        seed = sum(c * v for c, v in zip(coeffs, self.values) if c > 0)
        if sharp:
            bar, gbar, sub = self, g, self.index.monoid.gp.sub
        else:
            mbar, project = self.index.sharp
            bar, gbar, sub = mbar.index.weighted(self.values), project.gp_apply(g), mbar.gp.sub
        best = seed
        for w in range(max(hg, 0), seed):
            if any(bar.contains(sub(y, gbar)) for y in bar.level(w)):
                best = w
                break
        return hg, best, 2 * best - hg


def unit_generator_indices(m: FineMonoid) -> frozenset[int]:
    return m.index.unit_indices


def units(m: FineMonoid) -> list[Elt]:
    """Generators of the unit group M* (the group generated by unit generators)."""
    out = []
    for i in sorted(unit_generator_indices(m)):
        g = m.generators[i]
        if not m.gp.is_zero(g) and g not in out:
            out.append(g)
    return out


def is_sharp(m: FineMonoid) -> bool:
    return all(m.gp.is_zero(m.generators[i]) for i in unit_generator_indices(m))


def sharp_quotient(m: FineMonoid) -> tuple[FineMonoid, MonoidHom]:
    """M / M* together with the projection homomorphism."""
    return m.index.sharp


def default_weighting(m: FineMonoid) -> tuple[int, ...]:
    """Integer weights h(g_i), zero exactly on units.

    Every fine monoid admits one: take an integral interior point of the
    dual cone of the sharp quotient and pull it back."""
    return m.index.default_values


def weight_of(m: FineMonoid, values: tuple[int, ...], g: Elt) -> Fraction:
    """Group extension h(g) = lam * free(g); integral on gp."""
    return m.index.weighted(values).weight(g)


class _WeightingFields(NamedTuple):
    monoid: FineMonoid
    values: tuple[int, ...]


class Weighting(_WeightingFields):
    """h: M -> N vanishing exactly on the units."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        m = self.monoid
        if len(self.values) != len(m.generators):
            raise ValueError("one weight per generator required")
        if any(v < 0 for v in self.values):
            raise ValueError("weights must be non-negative")
        m.index.weighted(self.values)  # raises if not a homomorphism
        units_idx = m.index.unit_indices
        for i, v in enumerate(self.values):
            if (v == 0) != (i in units_idx):
                raise ValueError("weights must vanish exactly on unit generators")
        return self

    def __call__(self, g: Elt) -> Fraction:
        """Group extension of h (integral on gp, may be negative off M)."""
        return self.monoid.index.weighted(self.values).weight(g)


# ---------------------------------------------------------------------------
# membership by weight-bounded search
# ---------------------------------------------------------------------------

def membership(m: FineMonoid, g: Elt) -> bool:
    """Decide g in M by weight-bounded search: in M's own ball when M is
    sharp, else in the ball of the sharp quotient."""
    idx = m.index
    if is_sharp(m):
        return idx.weighted(idx.default_values).contains(g)
    mbar, project = idx.sharp
    return mbar.index.weighted(idx.default_values).contains(project.gp_apply(g))


def divides(m: FineMonoid, a: Elt, b: Elt) -> bool:
    """a <= b in the divisibility order: b - a in M."""
    return membership(m, m.gp.sub(b, a))


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def _face_key(support: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return len(support), tuple(sorted(support))


def faces(m: FineMonoid) -> tuple[Face, ...]:
    """All faces, each as the subset of generators it contains: all of them,
    and every intersection of facet supports.  Every face equals the
    submonoid generated by its generator subset."""
    return m.index.faces


def facets(m: FineMonoid) -> tuple[Face, ...]:
    """Maximal proper faces."""
    return tuple(m.index.facet_normals)


# ---------------------------------------------------------------------------
# quotients, localization, semi-saturatedness
# ---------------------------------------------------------------------------

def quotient(m: FineMonoid, n_sub: Sequence[Elt]) -> tuple[FineMonoid, MonoidHom]:
    """M/N: the image of M in gp/N^gp."""
    for x in n_sub:
        if not membership(m, x):
            raise NotSubmonoid(f"{x} is not an element of the monoid")
    q, project = group_quotient(m.gp, list(n_sub))
    images = tuple(project(g) for g in m.generators)
    result = FineMonoid(q, images)
    return result, MonoidHom(m, result, images)


def face_quotient_group(m: FineMonoid, face: Face) -> tuple[AbelianGroup, Callable[[Elt], Elt]]:
    """(M/F)^gp = gp / F^gp with its projection (group level only), built
    afresh on each call."""
    return group_quotient(m.gp, face.generators())


def localize(m: FineMonoid, face: Face) -> FineMonoid:
    """F^{-1}M: adjoin the negatives of the face generators."""
    extra = tuple(m.gp.neg(g) for g in face.generators())
    return FineMonoid(m.gp, m.generators + extra)


def is_semi_saturated(m: FineMonoid) -> bool:
    """True iff (M/F)^gp is torsion-free for every face F (equivalent to the
    definition: na in M for n > 0 implies (nm+1)a in M for some m), decided
    with no face quotient (`MonoidIndex.semi_saturated`)."""
    return m.index.semi_saturated


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def saturation(m: FineMonoid) -> FineMonoid:
    """M^sat, the preimage of the rational cone under the free-part map: its
    generators are M's, the Hilbert basis lifts and the torsion of gp."""
    if not is_sharp(m):
        raise NotSharp("saturation requires a sharp monoid")
    values = default_weighting(m)
    zero_torsion = tuple([0] * len(m.gp.torsion_invariants))
    gens = list(m.generators)
    for g in [(z, zero_torsion) for z in m.index.hilbert_basis] + m.gp.torsion_generators():
        if g not in gens:
            gens.append(g)
    wvals = tuple(int(weight_of(m, values, g)) for g in gens)
    return FineMonoid(m.gp, tuple(gens), wvals)


def is_saturated_bounded(m: FineMonoid, weight_bound: Optional[int] = None) -> bool:
    """M = M^sat, decided exactly: gp is torsion-free and every candidate of
    the cone (`cone.candidates`: the primitive extreme rays and the
    parallelepiped points of a triangulation, which generate M^sat) lies in
    M.  The candidates are read lazily and the answer is False at the first
    one outside M, so the Hilbert basis is never built.  weight_bound is
    unused, as the answer is exact; perfbench/workloads.py still passes one."""
    if not is_sharp(m):
        raise NotSharp("is_saturated_bounded requires a sharp monoid")
    if m.gp.torsion_invariants:
        return False
    return all(membership(m, (z, ())) for z in _cone.candidates(m.index.cone))


# ---------------------------------------------------------------------------
# sections of surjections onto torsion-free targets
# ---------------------------------------------------------------------------

def section(f: MonoidHom) -> SectionData:
    """Section of a surjective hom onto a torsion-free-gp monoid, with the
    splitting Ntilde ~ M + Ker(f^gp).  The images must lie in M (f(N) is a
    submonoid of M), else NotSubmonoid names the first that does not."""
    m = f.target
    n = f.source
    if m.gp.torsion_invariants:
        raise TorsionTarget("target gp has torsion")
    for x in f.images:
        if not membership(m, x):
            raise NotSubmonoid(f"image {x} is not an element of the target monoid")

    # f^gp on free parts: M^gp is free, torsion of N^gp dies
    d_m = m.gp.free_rank
    d_n = n.gp.free_rank
    # matrix of f^gp restricted to free parts: image of free basis vectors of N^gp
    basis_images = []
    for k in range(d_n):
        e = n.gp.element(tuple(1 if i == k else 0 for i in range(d_n)))
        basis_images.append(f.gp_apply(e)[0])
    a = _snf.as_matrix([[basis_images[j][i] for j in range(d_n)] for i in range(d_m)])
    # one Smith form of a gives every lift and the kernel; with no rows it is all of N^gp
    smith = _snf.SmithForm(a, d_n)

    # lexicographically-first lifts of the free basis of M^gp through a (Smith basis)
    section_images_cover = []
    for k in range(d_m):
        x = smith.solve(tuple(1 if i == k else 0 for i in range(d_m)))
        if x is None:
            raise NotSurjective("f^gp is not surjective on free parts")
        section_images_cover.append(x)
    # f^gp is onto M^gp, so the images generate M^gp as a group, and f is
    # onto iff every target generator lies in the image submonoid f(N)
    image = FineMonoid(m.gp, f.images)
    for tgt in m.generators:
        if not membership(image, tgt):
            raise NotSurjective(f"target generator {tgt} is not in the image of the source")

    def s_gp(x: Elt) -> Elt:
        free = tuple(
            sum(section_images_cover[k][i] * x[0][k] for k in range(d_m))
            for i in range(d_n)
        )
        return n.gp.element(free)

    kernel_free = smith.kernel_basis()
    kernel = AbelianGroup(len(kernel_free), n.gp.torsion_invariants)
    kbasis = [n.gp.element(v) for v in kernel_free] + n.gp.torsion_generators()

    # Ntilde = s(M) + Ker(f^gp): generators are the section images of M's
    # generators together with +-kernel generators
    nt_gens = [s_gp(g) for g in m.generators]
    for v in kbasis:
        nt_gens.append(v)
        nt_gens.append(n.gp.neg(v))
    ntilde = FineMonoid(n.gp, tuple(dict.fromkeys(nt_gens)))
    sec = MonoidHom(m, ntilde, tuple(s_gp(g) for g in m.generators))

    data = SectionData(f, ntilde, sec, kernel, tuple(kbasis))
    _verify_section(data)
    return data


def _verify_section(data: SectionData) -> None:
    """f o s = id on M's generators, and s(M^gp) + Ker(f^gp) spans N^gp.
    The sharp-case identity (Im(s) + N) cap Ker(f^gp) = Ker(f) holds with
    nothing to check: f(s(a) + b) = a + f(b) = 0 with a and f(b) in a sharp
    M forces a = f(b) = 0, so s(a) + b = b lies in N."""
    f, s = data.hom, data.section
    m = f.target
    n = f.source
    # f^gp o s^gp = id on generators
    for g in m.generators:
        if f.gp_apply(s.gp_apply(g)) != g:
            raise CertificationFailed(f"section identity f o s = id fails at the generator {g}")
    # splitting: N^gp modulo s(free basis of M^gp) and the kernel basis is 0
    basis = [s.gp_apply(m.gp.element(e)) for e in _snf.identity(m.gp.free_rank)]
    if group_quotient(n.gp, basis + list(data.kernel_basis))[0] != AbelianGroup(0):
        raise CertificationFailed("section splitting: s(M^gp) + Ker(f^gp) does not span N^gp")


# ---------------------------------------------------------------------------
# verticality
# ---------------------------------------------------------------------------

def is_vertical(f: MonoidHom) -> bool:
    """f(N) lies in no proper face of M, i.e. every target generator m admits
    n with m <= f(n): every facet normal of M is positive on some image, and
    a monoid without facets is a group (Ogus, Lectures on Logarithmic
    Algebraic Geometry, I.4.3)."""
    images = [x[0] for x in f.images]
    return all(
        any(sum(map(mul, lam, x)) > 0 for x in images)
        for lam in f.target.index.facet_normals.values()
    )
