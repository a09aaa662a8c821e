"""Log nabla-modules on polyannuli at finite truncation.

Connection matrices are integer coefficient maps (`coefficient_maps`).
Every other rational matrix here -- the residues, their eigenbases and
nilpotent parts, the ad operators of the residues -- is integer rows over one
positive denominator (`RatMatrix`), eigenvalues are integers over their
residue's denominator, and D_l's Q_i are integer coefficients over one
denominator.  Fractions are built only for the values handed back.  The
connection operator d_i + A^i is one function, `_nabla`, whose products
are the gathers of a pair plan (`coefficient_maps.PairPlan`).  A module
lays its maps over the union of their keys, so all its products share one
plan, and keeps each composition (d_i + A^i) A^j it has computed, which
integrability and log-convergence share.  This module holds the
embeddings, (S-D), the module type with its cached residue analysis,
integrability and the exponents.  Each later stage is its own module, so
a process compiles only the stages it runs: the shear in `shearing`,
Sigma-unipotence in `unipotence`, log-convergence in `log_convergence`.
Constant models, D_l and the homotopy operator are in `constant_models`.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from fractions import Fraction
from importlib import import_module
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .abelian import Elt
from .coefficient_maps import CoefficientMap, _add_into, _canonical, _map_mul
from .errors import (
    CertificationFailed,
    IrrationalExponent,
    NIViolated,
    NonCommutingResidues,
    NotIntegrable,
    NotMonoidSupported,
    NotSharp,
    NotSemiSaturated,
    checked_make,
)
from .monoid_core import FineMonoid, Weighting, is_semi_saturated, is_sharp, membership
from .qlin import QMatrix, QVector, int_charpoly, integer_roots, nullspace_over_lcm, over_lcm, qrank
from .snf import IntMatrix, LatticeMap, identity, mat_mul

# a rational matrix inside this module: integer rows over one positive denominator
RatMatrix = tuple[IntMatrix, int]
_NOT_INTEGRABLE = "connection is not integrable; shearing undefined"


def _fractions(a: RatMatrix) -> QMatrix:
    """a as the Fraction rows the module's results hold."""
    rows, den = a
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# embeddings phi: (M^gp)^free -> Z^r
# ---------------------------------------------------------------------------

class _EmbeddingFields(NamedTuple):
    monoid: FineMonoid
    matrix: tuple[tuple[int, ...], ...]  # r rows of length free_rank


class Embedding(_EmbeddingFields):
    # no __slots__: the instance dict holds the cached phi

    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        d = self.monoid.gp.free_rank
        r = len(self.matrix)
        if any(len(row) != d for row in self.matrix):
            raise ValueError("embedding rows must have length free_rank")
        if r != d or self.phi.inverse.checks:
            raise ValueError("embedding must be a rational isomorphism (square, invertible)")
        for g in self.monoid.generators:
            if any(c < 0 for c in self.coords(g)):
                raise ValueError("embedding must map the monoid into N^r")
        return self

    @property
    def r(self) -> int:
        return len(self.matrix)

    def coords(self, g: Elt) -> tuple[int, ...]:
        return tuple(sum(row[k] * g[0][k] for k in range(len(row))) for row in self.matrix)

    @cached_property
    def phi(self) -> LatticeMap:
        """The matrix as a lattice map over 1 with no checks; its `inverse`
        is phi^-1, with checks exactly when the matrix is singular."""
        return LatticeMap(self.matrix, 1, ())


def _facet_rows(m: FineMonoid) -> list[tuple[int, ...]]:
    """The row vectors gp^free -> (M/F)^gp = Z of the facets F, in facets(m)
    order, sign-normalized onto N: the facets' primitive normals, read from
    the index.  (M/F)^gp has rank 1 only when the generators span gp
    rationally (the cone has no vanishing forms); on a semi-saturated monoid
    it is then torsion-free, so the normal is the quotient map."""
    normals = m.index.facet_normals
    if normals and m.index.cone.lines:
        raise NotSemiSaturated("facet quotient group is not isomorphic to Z")
    return list(normals.values())


def facet_embedding(m: FineMonoid) -> Embedding:
    """phi = product of the facet quotient maps, pruned to a rational isomorphism."""
    if not is_sharp(m):
        raise NotSemiSaturated("facet embedding requires a sharp monoid")
    if not is_semi_saturated(m):
        raise NotSemiSaturated("facet embedding requires a semi-saturated monoid")
    # from the last row to the first, keep each row the kept rows do not span
    kept: list[tuple[int, ...]] = []
    for row in reversed(_facet_rows(m)):
        if qrank([row, *kept]) > len(kept):
            kept.insert(0, row)
    if len(kept) != m.gp.free_rank:
        raise NotSemiSaturated("facet functionals do not span the dual space")
    return Embedding(m, tuple(kept))


# ---------------------------------------------------------------------------
# exponent sets and (S-D)
# ---------------------------------------------------------------------------

class _ExponentSetFields(NamedTuple):
    monoid: FineMonoid
    elements: tuple[QVector, ...]


class ExponentSet(_ExponentSetFields):
    """Finite set of rational vectors in M^gp tensor Q (free coordinates)."""

    # no __slots__: the instance dict holds the cached (S-D) verdict

    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        d = self.monoid.gp.free_rank
        for xi in self.elements:
            if len(xi) != d:
                raise ValueError("exponent vector has wrong dimension")
        return self

    @cached_property
    def satisfies_sd(self) -> bool:
        """(S-D) via facets, decided once per set: with the elements as
        integer vectors over one denominator d, two facet images differ by a
        nonzero integer iff they are distinct and congruent modulo d."""
        m = self.monoid
        if not is_semi_saturated(m):
            raise NotSemiSaturated("(S-D) check requires a semi-saturated monoid")
        vecs, d = over_lcm(self.elements)
        for row in _facet_rows(m):
            images = {sum(map(mul, row, v)) for v in vecs}
            if len({x % d for x in images}) < len(images):
                return False
        return True


def check_sd(sigma: ExponentSet) -> bool:
    """Global (S-D) via facets: all pairwise differences of the facet images
    avoid Z \\ {0}.  Rational exponents are automatically of positive type
    and non-Liouville, so the NI and NI_and_NL classes coincide here."""
    return sigma.satisfies_sd


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

def _nabla(
    e: "LogNablaModule", a: CoefficientMap, b: CoefficientMap, i: Optional[int] = None, shift: int = 0,
) -> dict:
    """a b for n x n coefficient maps of the module e, at its truncation, or
    with a direction i (d_i - shift + a) b, d_i scaling t^m by the i-th
    coordinate of m: {key: integer matrix} over the product of the two
    denominators.  b's terms may be any (key, matrix) pairs."""
    (ax, da), (bx, db) = a, b
    out = _map_mul(e.monoid, e.weighting, e.truncation, ax, bx, e.rank)
    if i is not None:
        coords = e.coords
        for k, x in bx:
            _add_into(out, k, [da * (coords(k)[i] - shift) * v for v in x])
    return out


def map_product(e: "LogNablaModule", a: CoefficientMap, b: CoefficientMap, i: Optional[int] = None) -> CoefficientMap:
    """a b, or (d_i + a) b with a direction i, as a stored map (`_nabla`)."""
    return _canonical(_nabla(e, a, b, i), a[1] * b[1])


def _least_difference(x: dict, y: dict, n: int) -> Optional[Elt]:
    """The least key at which the maps x and y of n x n matrices differ, or None."""
    zero = [0] * (n * n)
    return min((k for k in x.keys() | y.keys() if x.get(k, zero) != y.get(k, zero)), default=None)


# ---------------------------------------------------------------------------
# the module type
# ---------------------------------------------------------------------------

class _LogNablaModuleFields(NamedTuple):
    rank: int
    embedding: Embedding
    weighting: Weighting
    truncation: int
    matrices: tuple[CoefficientMap, ...]
    base_matrices: Optional[tuple[CoefficientMap, ...]] = None
    interval_kind: str = "disk"


class LogNablaModule(_LogNablaModuleFields):
    """d_i + A^i per embedding coordinate i, and the base matrices D_k, at
    one truncation: each matrix a coefficient map (see `coefficient_map`)."""

    # no __slots__: the instance dict holds the cached residue analysis

    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.interval_kind not in ("disk", "annulus", "point"):
            raise ValueError("interval_kind must be disk, annulus or point")
        if self.weighting.monoid != self.monoid:
            raise ValueError("weighting and embedding must share one monoid")
        if len(self.matrices) != self.embedding.r:
            raise ValueError("one matrix per embedding coordinate required")
        entries = self.rank * self.rank
        if any(len(x) != entries for terms, _ in itertools.chain(self.matrices, self.base_matrices or ())
               for _, x in terms):
            raise ValueError("connection matrices must be rank x rank")
        return self

    @property
    def monoid(self) -> FineMonoid:
        return self.embedding.monoid

    @cached_property
    def coords(self) -> Callable[[Elt], tuple[int, ...]]:
        """The embedding coordinates of a key, each computed once and kept:
        the keys the module's maps and products reach."""
        return cache(self.embedding.coords)

    @cached_property
    def padded(self) -> tuple[CoefficientMap, ...]:
        """The matrices, then the base matrices, each over the union of their
        keys (a zero matrix where a map has none), so that every product of
        two of them runs one pair plan (`coefficient_maps.PairPlan`)."""
        maps = [(dict(terms), den) for terms, den in (*self.matrices, *(self.base_matrices or ()))]
        zero = (0,) * (self.rank * self.rank)
        support = sorted(set().union(*(x for x, _ in maps)))
        return tuple((tuple((k, x.get(k, zero)) for k in support), den) for x, den in maps)

    @cached_property
    def _compositions(self) -> dict[tuple[int, int], dict]:
        return {}

    def composition(self, i: int, j: int) -> dict:
        """(d_i + A^i) A^j over d_i d_j (`_nabla`), computed at most once per
        ordered pair and kept with the module: integrability and the second
        level of log-convergence read it.  Read it, do not modify it."""
        out = self._compositions.get((i, j))
        if out is None:
            out = self._compositions[i, j] = _nabla(self, self.padded[i], self.padded[j], i)
        return out

    @cached_property
    def integrability_defect(self):
        """None when every bracket vanishes up to truncation; otherwise the
        first failing ("connection", i, j, key) for [d_i + A^i, d_j + A^j] or
        ("base", k, i, key) for [d_i + A^i, D_k], key its least nonzero term.
        Each bracket is the difference of two compositions on the coefficient
        maps, both over the product of the two denominators (`_nabla`):
        [d_i + A^i, d_j + A^j] = (d_i + A^i) A^j - (d_j + A^j) A^i, both read
        from `composition`, and [d_i + A^i, D] = (d_i + A^i) D - D A^i."""
        r, n = self.embedding.r, self.rank
        for i, j in itertools.combinations(range(r), 2):
            key = _least_difference(self.composition(i, j), self.composition(j, i), n)
            if key is not None:
                return ("connection", i, j, key)
        for k, d in enumerate(self.padded[r:]):
            for i, a in enumerate(self.padded[:r]):
                key = _least_difference(_nabla(self, a, d, i), _nabla(self, d, a), n)
                if key is not None:
                    return ("base", k, i, key)
        return None

    # the residue analysis depends on the module alone: computed at most once,
    # freed with the module; a failing step raises again on the next read

    @cached_property
    def residues(self) -> tuple[RatMatrix, ...]:
        """Constant terms A^i_0, read from the coefficient maps as integer rows
        over their least common denominator, validated to commute pairwise
        (the integer rows commute iff the matrices do)."""
        zero, n = self.monoid.gp.zero(), self.rank
        mats = []
        for terms, den in self.matrices:
            x = next((x for k, x in terms if k == zero), (0,) * (n * n))
            g = math.gcd(den, *x)
            mats.append((tuple(tuple(v // g for v in x[r : r + n]) for r in range(0, n * n, n)), den // g))
        for (a, _), (b, _) in itertools.combinations(mats, 2):
            if mat_mul(a, b) != mat_mul(b, a):
                raise NonCommutingResidues("constant terms of the connection do not commute")
        return tuple(mats)

    @cached_property
    def residue_spectra(self) -> tuple[list, ...]:
        """Per residue, its spectrum: what `_residue_spectrum` returns."""
        return tuple(_residue_spectrum(a) for a in self.residues)

    @cached_property
    def joint_blocks(self) -> list:
        """The joint decomposition of the residues: what `joint_decomposition`
        returns, each eigentuple's coordinate i over residue i's denominator."""
        return joint_decomposition(self.residue_spectra, self.rank)

    @cached_property
    def decomposition(self) -> "ResidueDecomposition":
        """The joint blocks with their eigentuples and exponents as Fractions."""
        dens = [d for _, d in self.residues]
        den = math.lcm(*dens)
        eigentuples, exps = [], []
        for eigs, _ in self.joint_blocks:
            eigentuples.append(tuple(Fraction(y, d) for y, d in zip(eigs, dens)))
            xi, dxi = self.embedding.phi.inverse.rational([y * (den // d) for y, d in zip(eigs, dens)], den)
            exps.append(tuple(Fraction(x, dxi) for x in xi))
        blocks = tuple(basis for _, basis in self.joint_blocks)
        return ResidueDecomposition(self.rank, tuple(eigentuples), tuple(exps), blocks)

    @cached_property
    def eigenbasis_data(self) -> tuple:
        """Shear's per-residue (eigenvalues, P, P^{-1}, nilpotent part)."""
        from .shearing import _eigenbasis_data

        return tuple(map(_eigenbasis_data, self.residues, self.residue_spectra))

    @cached_property
    def block_nilpotents(self) -> tuple[tuple[RatMatrix, ...], ...]:
        """Per block of the decomposition and per residue, the residue's
        nilpotent part on the block, in the block's basis."""
        return tuple(
            tuple(_nilpotent_part(a, basis, y) for a, y in zip(self.residues, eigs))
            for eigs, basis in self.joint_blocks
        )

    @cached_property
    def filtration_ranks(self) -> tuple[int, ...]:
        from .unipotence import _block_filtration_ranks

        return _block_filtration_ranks(self.decomposition, self.block_nilpotents)

    @cached_property
    def nilpotency_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per block of the decomposition and per residue, the nilpotency
        index of the residue's nilpotent part on the block."""
        return tuple(tuple(map(_nilpotency_index, nils)) for nils in self.block_nilpotents)

    @cached_property
    def projection_polynomials(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """D_l's Q_i = (minimal polynomial of res_i) / (x - xi_{i,target}),
        the target the first block, so the image of prod Q_i(res_i) lies in
        the xi_target eigenspace.  For res_i = b / d with integer eigenvalues
        y over d, Q_i is prod (d x - y)^mult / d^deg: its integer coefficients
        (ascending) and d^deg."""
        blocks = self.joint_blocks
        target = blocks[0][0]
        polys = []
        for i, (_, d) in enumerate(self.residues):
            # minimal polynomial exponent per eigenvalue of res_i: its nilpotency
            # index on the generalized eigenspace, the sum of the blocks sharing it
            factors: dict[int, int] = {}
            for (eigs, _), indices in zip(blocks, self.nilpotency_indices):
                factors[eigs[i]] = max(factors.get(eigs[i], 1), indices[i])
            poly = [1]
            for y, idx in factors.items():
                for _ in range(idx - 1 if y == target[i] else idx):
                    poly = [d * a - y * c for a, c in zip([0] + poly, poly + [0])]
            polys.append((tuple(poly), d ** (len(poly) - 1)))
        return tuple(polys)

    @cached_property
    def sheared_exponents(self) -> ExponentSet:
        """The exponent set of the sheared constant model, the residue (the
        shearing gauge has B_0 = I).  A non-constant module must pass
        shear's hypothesis checks and on an annulus be M-supported; then
        every module, with no shear to certify it, must be integrable.  A
        constant module is its own sheared model: NI, which only the shear
        recursion needs, is not asked of it."""
        if not smat_is_constant_all(self):
            if self.interval_kind == "annulus":
                _require_monoid_support(self)
            _shear_hypotheses(self)
        exponents = self.decomposition.exponent_set(self.monoid)
        if not validate_integrability(self):
            raise NotIntegrable(_NOT_INTEGRABLE)
        return exponents


def validate_integrability(e: LogNablaModule) -> bool:
    """[d_i + A^i, d_j + A^j] = 0 and [d_i + A^i, D] = 0 coefficientwise up to
    truncation; decided once per module."""
    return e.integrability_defect is None


# ---------------------------------------------------------------------------
# residues and exponents
# ---------------------------------------------------------------------------

def residue(e: LogNablaModule) -> tuple[QMatrix, ...]:
    """Constant terms A^i_0, validated to commute pairwise."""
    return tuple(map(_fractions, e.residues))


class ResidueDecomposition(NamedTuple):
    """Joint generalized eigendecomposition of the commuting residues."""

    module_rank: int
    eigentuples: tuple[tuple[Fraction, ...], ...]  # per block: phi-coordinates
    exponents: tuple[QVector, ...]  # per block: vectors in M^gp tensor Q
    # per block: basis column vectors as integers over one denominator
    blocks: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(vectors) for vectors, _ in self.blocks)

    def exponent_set(self, monoid: FineMonoid) -> ExponentSet:
        uniq = []
        for xi in self.exponents:
            if xi not in uniq:
                uniq.append(xi)
        return ExponentSet(monoid, tuple(uniq))


def _residue_spectrum(a: RatMatrix) -> list[tuple[int, list[list[int]], tuple[list[tuple[int, ...]], int]]]:
    """Per eigenvalue y / d of a = b / d, ascending: (y, (b - y)^mult, the
    null-space basis of that power as integer vectors over one denominator,
    which spans the generalized eigenspace).  The y are the integer roots of
    the characteristic polynomial of b."""
    b, d = a
    roots = integer_roots(int_charpoly(b))
    if roots is None:
        raise IrrationalExponent("characteristic polynomial does not split over Q")
    out = []
    for y, mult in roots:
        shifted = [[x - y * (i == j) for j, x in enumerate(row)] for i, row in enumerate(b)]
        power = shifted
        for _ in range(mult - 1):
            power = mat_mul(power, shifted)
        out.append((y, power, nullspace_over_lcm(power, len(b))))
    return out


def joint_decomposition(spectra: Sequence[list], n: int) -> list[tuple[tuple[int, ...], tuple]]:
    """Blocks of the common generalized eigendecomposition of commuting
    matrices, from their spectra, as (eigentuple, (basis vectors, their
    denominator)), all integers: a block B meets V_y(A) in B w for w in the
    null space of (A - y)^mult B, which equals B (A|B - y)^mult.  Sorting
    the integer eigentuples sorts the eigenvalues, each coordinate sharing
    one denominator."""
    if not spectra:
        return [((), (identity(n), 1))]
    blocks = [((y,), basis) for y, _, basis in spectra[0]]
    for spectrum in spectra[1:]:
        new = []
        for eigs, (basis, den) in blocks:
            cols = tuple(zip(*basis))
            for y, power, _ in spectrum:
                null, dw = nullspace_over_lcm(mat_mul(power, cols), len(basis))
                if null:
                    new.append((eigs + (y,), (mat_mul(null, basis), den * dw)))
        blocks = new
    blocks.sort(key=lambda t: t[0])
    return blocks


def exponents(e: LogNablaModule) -> ResidueDecomposition:
    """Exponents xi_k in M^gp tensor Q with multiplicities and block witnesses."""
    return e.decomposition


def _check_ni_coordinatewise(spectra) -> None:
    """locally (NI-D) under the module's embedding: no nonzero integer
    difference of eigenvalues in any coordinate; spectra holds per residue
    its distinct eigenvalues as integers over its denominator d."""
    for eigs, d in spectra:
        for x, y in itertools.product(eigs, repeat=2):
            if x != y and (x - y) % d == 0:
                raise NIViolated(
                    f"exponent difference {(x - y) // d} is a nonzero integer (NI violated)"
                )


def _nilpotency_index(nil: RatMatrix) -> int:
    """The least k >= 1 with nil^k = 0, read on the integer rows."""
    rows = nil[0]
    index, power = 1, rows
    while any(map(any, power)):
        if index >= len(rows):
            raise CertificationFailed("nilpotency index: a residue's nilpotent part on a block is not nilpotent")
        power = mat_mul(power, rows)
        index += 1
    return index


def _nilpotent_part(a: RatMatrix, basis: tuple, y: int) -> RatMatrix:
    """N = a - y/d on span(basis), which a leaves invariant, in that basis,
    for a = b / d and basis = (vectors, den).  A block's basis is den times
    the identity at some coordinates (a null-space basis is, and so is B w
    for B and w such bases), so N is (b - y) B read at those coordinates,
    over d den."""
    (b, d), (vectors, den) = a, basis
    shifted = [[x - y * (i == j) for j, x in enumerate(row)] for i, row in enumerate(b)]
    rows = list(zip(*vectors))
    image = mat_mul(shifted, rows)
    k = len(vectors)
    return tuple(image[rows.index(tuple(den * (i == j) for i in range(k)))] for j in range(k)), d * den


def _shear_hypotheses(e: LogNablaModule) -> None:
    """Check, in order, what shearing needs beyond a disk or point interval:
    a sharp monoid, commuting residues (the curvature at weight 0, so
    `NotIntegrable` if not) with rational eigenvalues, and (NI-D)."""
    if not is_sharp(e.monoid):
        raise NotSharp("shearing requires a sharp monoid")
    try:
        e.residues  # noqa: B018 -- reading the residues checks that they commute
    except NonCommutingResidues:
        raise NotIntegrable(_NOT_INTEGRABLE) from None
    _check_ni_coordinatewise([([y for y, *_ in spectrum], d)
                              for spectrum, (_, d) in zip(e.residue_spectra, e.residues)])


def smat_is_constant_all(e: LogNablaModule) -> bool:
    zero = e.monoid.gp.zero()
    return all(k == zero for terms, _ in e.matrices for k, _ in terms)


def _require_monoid_support(e: LogNablaModule) -> None:
    m = e.monoid
    for terms, _ in e.matrices:
        for key, _ in terms:
            if not membership(m, key):
                raise NotMonoidSupported(
                    "unipotence decision needs M-supported matrices; twist away "
                    "negative-weight terms first"
                )


# perfbench/tracer.py, perfbench/workloads.py and tests/test_benchmark_names.py
# look the three stage functions up here.  Each is imported from its own module
# on first access (PEP 562) and kept as a global, where the tracer finds and
# wraps it.  ROADMAP item 22 points the benchmark at the stage modules and
# deletes this lookup.
_STAGES = {"shear": "shearing", "is_sigma_unipotent": "unipotence", "log_convergence_check": "log_convergence"}


def __getattr__(name):
    try:
        home = _STAGES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
    return value
