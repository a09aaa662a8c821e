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
integrability and log-convergence share.  The shear solves
(g + m_i id)(B_m) = RHS order by order in the weight
(`coefficient_maps.weight_order`) in the residue's eigenbasis
(`qlin.sylvester_solver`) and certifies the gauge's operator-norm bound in
valuation form; a failed self-check raises `CertificationFailed`.  B^-1
is computed when a `ShearResult`'s `gauge_inverse_map` is first read.
Constant models, D_l and the homotopy operator are in `constant_models`.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property, reduce
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .abelian import Elt
from .coefficient_maps import (
    DEFAULT_PRIME, CoefficientMap, Radius, _add_into, _canonical, _map_mul, _reduced, _rows, coefficient,
    gauss_valuation, inverse_map, weight_order,
)
from .errors import (
    CertificationFailed,
    IrrationalExponent,
    NIViolated,
    NonCommutingResidues,
    NotDiskModule,
    NotIntegrable,
    NotMonoidSupported,
    NotSharp,
    NotSemiSaturated,
    SDViolated,
    checked_make,
)
from .monoid_core import Face, FineMonoid, Weighting, is_semi_saturated, is_sharp, membership
from .qlin import (
    QMatrix, QVector, commutator_rows, eigenbasis_sylvester, int_charpoly, integer_roots, inverse_over_lcm,
    nullspace_over_lcm, over_lcm, padic_valuation, qrank, sylvester_solve, sylvester_solver,
)
from .snf import IntMatrix, identity, mat_mul, mat_vec

if TYPE_CHECKING:
    from .weighted_series import SeriesMatrix

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
    # no __slots__: the instance dict holds the cached inverse

    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        d = self.monoid.gp.free_rank
        r = len(self.matrix)
        if any(len(row) != d for row in self.matrix):
            raise ValueError("embedding rows must have length free_rank")
        if r != d or self.inverse is None:
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

    def rational_coords(self, xi: QVector) -> tuple[tuple[int, ...], int]:
        """phi(xi) as integers over the least common denominator of xi."""
        (v,), den = over_lcm([xi])
        return mat_vec(self.matrix, v), den

    @cached_property
    def inverse(self) -> Optional[RatMatrix]:
        """The rational inverse of the matrix, or None if it is singular."""
        return inverse_over_lcm(self.matrix)

    def inverse_coords(self, v: Sequence[int], den: int = 1) -> tuple[tuple[int, ...], int]:
        """phi^-1(v / den) as integers over one denominator."""
        rows, d = self.inverse
        return mat_vec(rows, v), d * den


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
            xi, dxi = self.embedding.inverse_coords([y * (den // d) for y, d in zip(eigs, dens)], den)
            exps.append(tuple(Fraction(x, dxi) for x in xi))
        blocks = tuple(basis for _, basis in self.joint_blocks)
        return ResidueDecomposition(self.rank, tuple(eigentuples), tuple(exps), blocks)

    @cached_property
    def eigenbasis_data(self) -> tuple:
        """Shear's per-residue (eigenvalues, P, P^{-1}, nilpotent part)."""
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


# ---------------------------------------------------------------------------
# shearing (order-by-order gauge to the constant model)
# ---------------------------------------------------------------------------

class BoundRecord(NamedTuple):
    key: Elt
    weight: int
    actual: Optional[Fraction]  # log_p |B_m| = -v_p(B_m), or None when B_m = 0 (printed "-inf")
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.actual is None or self.actual <= self.bound


class _ShearResultFields(NamedTuple):
    gauge_map: CoefficientMap  # B, with B_0 = I
    constant_model: tuple[QMatrix, ...]
    bound_report: tuple[BoundRecord, ...]
    constant_base_model: Optional[tuple[QMatrix, ...]]
    norm_constant_log: Fraction  # log_p C
    nilpotency_exponent: int  # e
    weighting: Weighting
    truncation: int


class ShearResult(_ShearResultFields):
    # no __slots__: the instance dict holds B^-1 and the gauges rendered as series

    def _render(self, a: CoefficientMap) -> SeriesMatrix:
        from .weighted_series import series_matrix

        n = math.isqrt(len(a[0][0][1]))  # B_0 = I: no gauge map is empty
        return series_matrix(self.weighting, self.truncation, a, n)

    @cached_property
    def gauge_inverse_map(self) -> CoefficientMap:
        """B^-1 (`coefficient_maps.inverse_map`), computed on first read; `shear`
        sets it for a module with base matrices, whose base model needs it."""
        w, n = self.weighting, math.isqrt(len(self.gauge_map[0][0][1]))
        return inverse_map(w.monoid.index.weighted(w.values), self.truncation, self.gauge_map, n)

    @cached_property
    def gauge(self) -> SeriesMatrix:
        return self._render(self.gauge_map)

    @cached_property
    def gauge_inverse(self) -> SeriesMatrix:
        return self._render(self.gauge_inverse_map)


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


def _eigenbasis_data(a: RatMatrix, spectrum: list) -> tuple:
    """(eigenvalues, P, P^{-1}, nilpotent part P^{-1} a P - D) for a = b / d:
    one eigenvalue y per column of P, as an integer over d, and each matrix
    integer rows over one denominator.  P's columns are the spectrum's
    null-space vectors over their lcm den, so P^{-1} is den p^{-1} for
    p = den P, and P^{-1} a P = p^{-1} b p / d."""
    b, d = a
    den = math.lcm(*(vden for _, _, (_, vden) in spectrum))
    cols: list[list[int]] = []
    eigs: list[int] = []
    for y, _, (vecs, vden) in spectrum:
        cols += [[x * (den // vden) for x in v] for v in vecs]
        eigs += [y] * len(vecs)
    p = tuple(zip(*cols))
    pinv, dinv = inverse_over_lcm(p)
    conj = mat_mul(mat_mul(pinv, b), p)
    nil = tuple(tuple(x - eigs[i] * dinv * (i == j) for j, x in enumerate(row)) for i, row in enumerate(conj))
    return eigs, (p, den), (tuple(tuple(x * den for x in row) for row in pinv), dinv), (nil, dinv * d)


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


def shear(
    e: LogNablaModule,
    radius: Radius = Radius.one(),
    p: int = DEFAULT_PRIME,
) -> ShearResult:
    """Gauge B with B_0 = I solving A^i B + d_i B = B A^i_0 for every i,
    plus the norm-bound report and the constant base model.  B comes from
    `coefficient_maps.weight_order` over one running denominator, a key's
    pairs one set of gathers for the right-hand sides of all r directions;
    B^-1 is computed on the first read of the result's `gauge_inverse_map`.
    The recursion certifies integrability, with no map product, or raises `NotIntegrable`."""
    if e.interval_kind == "annulus":
        raise NotDiskModule("shear acts on disk or point modules; annuli go through twist_reduce")
    _shear_hypotheses(e)
    a0s, eigendata = e.residues, e.eigenbasis_data
    # ad(N)^j X = sum_i (-1)^i C(j, i) N^(j-i) X N^i, N of index q (the largest on a block): j = 2q - 1
    # kills every term, while for j = 2q - 2 only +-C(2q-2, q-1) N^(q-1) X N^(q-1) survives, nonzero for some X
    steps = [2 * max(k[i] for k in e.nilpotency_indices) - 1 for i in range(len(a0s))]
    # per direction: its eigenbasis rows, and ad(b) of A^i_0 = b / d for the all-directions check
    bases = [eigenbasis_sylvester(d, pmat, pinv, nil, k)
             for (_, d), (_, pmat, pinv, (nil, _)), k in zip(a0s, eigendata, steps)]
    ads = [commutator_rows(b) for b, _ in a0s]

    @cache
    def divisors(i: int, mi: int) -> list[int]:
        """e_ab = y_a - y_b + m_i d, row-major, for the eigenvalues y / d of A^i_0."""
        y, d = eigendata[i][0], a0s[i][1]
        return [ya - yb + mi * d for ya in y for yb in y]

    solver = cache(lambda i, mi: sylvester_solver(bases[i], divisors(i, mi)))  # None if singular

    m = e.monoid
    t = e.truncation
    w = e.weighting
    n = e.rank

    index = m.index.weighted(w.values)
    ball = index.ball(t)
    keys = index.upto(t)  # 0, then every element of weight 1..t; 0 is the only one of weight 0
    coords = e.coords
    zero, size = keys[0], n * n
    # every coefficient is a row-major integer matrix over its denominator;
    # A^i keeps its terms of weight 1..t, laid out as row planes over the A-keys, lightest first
    inside = set(keys[1:])
    acoeff = [({k: x for k, x in terms if k in inside}, den) for terms, den in e.matrices]
    akeys = sorted(set().union(*(ac for ac, _ in acoeff)), key=ball.get)
    aflats = [(_rows([(k, ac.get(k, (0,) * size)) for k in akeys], n, n), da) for ac, da in acoeff]

    def sylvester_step(key: Elt, rhs) -> tuple[tuple[int, ...], int]:
        """B_m from its right-hand sides in every direction: solved in one, checked in all."""
        mk = coords(key)
        i0 = next(i for i in range(len(a0s)) if mk[i] != 0)
        solved = solver(i0, mk[i0])
        if solved is None:
            raise CertificationFailed(f"Sylvester solve: the operator of direction {i0} at m_i = {mk[i0]} "
                                      "is singular although NI holds")
        bm, dm = _reduced(*sylvester_solve(solved, rhs[i0]))
        # (ad(b) + m_i d) B_m = d rhs_i, cross-multiplied, i0 first: a failure there is the solver's fault; in a
        # direction i, past every lighter key, B_m's error E_i is zero iff the curvature (ad A^i0_0 + m_i0) E_i is (NI)
        for i in sorted(range(len(a0s)), key=i0.__ne__):
            (ri, di), d = rhs[i], a0s[i][1]
            if any((sum(map(mul, row, bm)) + mk[i] * d * b) * di != x * d * dm for row, b, x in zip(ads[i], bm, ri)):
                if i == i0:
                    raise CertificationFailed(f"shear all-directions identity: B_m fails direction {i0} at m = {key}")
                raise NotIntegrable(_NOT_INTEGRABLE)
        return bm, dm

    # B_m pairs A^i_{m'} with every fixed B_{m - m'}
    bmats, bden = weight_order(index, t, n, akeys, aflats, sylvester_step)

    # bound constants (log-norm form, base p): e is the nilpotency index of the
    # commutator part g2; C bounds both the resolvent norms and |A^i_m| a^{h(m)}
    e_exp = max([1, *steps])
    log_c = Fraction(0)
    qa = radius.value_exponent()
    for _eigs, *mats in eigendata:
        # log_p |P|, |P^-1|, |N|: each matrix as a one-key map, N = 0 as no terms (-INF)
        flat = [(tuple(itertools.chain.from_iterable(a)), d) for a, d in mats]
        lp, lpinv, lnil = (-gauss_valuation([(zero, x)] if any(x) else (), d, p) for x, d in flat)
        log_c = max(log_c, 2 * (lp + lpinv) + (e_exp - 1) * max(lnil, Fraction(0)))
    for ac, da in acoeff:
        log_c = max(log_c, -gauss_valuation(ac.items(), da, p, lambda k: qa.numerator * ball[k], qa.denominator))

    # Z_m chain DP and the bound records, on integers (every valuation is
    # one): bound = e log Z_m + h(m) s with s = 2 log C + q_a = s_n / s_d
    s = 2 * log_c + qa
    s_n, s_d = s.numerator, s.denominator

    @cache
    def worst(i: int, mi: int) -> int:
        """max(0, max_z v_p(z - m_i d) - v_p(d)) over the eigenvalue differences
        z / d of A^i_0: the z - m_i d are the divisors up to sign."""
        return max(0, max(padic_valuation(z, p) for z in divisors(i, mi)) - padic_valuation(a0s[i][1], p))

    # logz grows along divisibility (worst >= 0), so the chain max over the
    # nonzero proper divisors of a key is reached at some key - g, g a
    # generator: each key passes its value on to key + g.  log_p |B_m| is
    # v_p(den) - v_p(gcd of B_m) over B's one denominator
    gens = [(ball[g], g) for g in m.generators if g in ball and not m.gp.is_zero(g)]
    chain: dict[Elt, int] = {}
    vden, records = padic_valuation(bden, p), []
    for key in keys[1:]:
        logz = min(worst(i, mi) for i, mi in enumerate(coords(key)) if mi) + chain.get(key, 0)
        for hg, g in gens:
            if ball[key] + hg <= t:
                nxt = m.gp.add(key, g)
                chain[nxt] = max(chain.get(nxt, 0), logz)
        actual = Fraction(vden - padic_valuation(math.gcd(*bmats[key]), p)) if key in bmats else None
        records.append(BoundRecord(key, ball[key], actual, Fraction(e_exp * logz * s_d + ball[key] * s_n, s_d)))

    gauge, gauge_inv, constant_base = _canonical(bmats, bden), None, None
    model = tuple(map(_fractions, a0s))
    if e.base_matrices is not None:
        gauge_inv = inverse_map(index, t, gauge, n)
        prods = [map_product(e, gauge_inv, map_product(e, d, gauge)) for d in e.base_matrices]
        constant_base = tuple(coefficient(prod, zero, n) for prod in prods)
        # B^-1 [d_i + A^i, D] B = (d_i + ad A^i_0) D' = 0 for all i iff (NI) D' is constant and commutes with all A^i_0
        if any(k != zero for terms, _ in prods for k, _ in terms) or any(
                mat_mul(c, a) != mat_mul(a, c) for c in constant_base for a in model):
            raise NotIntegrable(_NOT_INTEGRABLE)

    result = ShearResult(gauge_map=gauge, constant_model=model, bound_report=tuple(records),
                         constant_base_model=constant_base, norm_constant_log=log_c, nilpotency_exponent=e_exp,
                         weighting=w, truncation=t)
    if gauge_inv is not None:
        result.__dict__["gauge_inverse_map"] = gauge_inv
    return result


# ---------------------------------------------------------------------------
# unipotence
# ---------------------------------------------------------------------------

class UnipotenceReport(NamedTuple):
    verdict: bool
    sheared_exponents: ExponentSet
    filtration_ranks: tuple[int, ...]
    offending_face: Optional[Face]
    face_images: tuple[QVector, ...]


def _block_filtration_ranks(decomp: ResidueDecomposition, nilpotents) -> tuple[int, ...]:
    """Ranks of the successive quotients of the canonical filtration: within a
    block, U_j = common kernel of all degree-j products of the nilpotent parts
    (which commute, so one product per multiset of factors), read on their
    integer rows."""
    ranks = []
    for k, nils in zip(decomp.multiplicities, nilpotents):
        prev_dim = 0
        j = 1
        while prev_dim < k:
            rows = [row for combo in itertools.combinations_with_replacement([x for x, _ in nils], j)
                    for row in reduce(mat_mul, combo)]
            dim = k - qrank(rows) if rows else k
            if dim > prev_dim:
                ranks.append(dim - prev_dim)
                prev_dim = dim
            j += 1
            if j > 2 * k + 2:
                raise CertificationFailed("filtration ranks: the canonical filtration does not exhaust a block")
    return tuple(ranks)


def is_sigma_unipotent(e: LogNablaModule, sigma: ExponentSet, face: Face) -> UnipotenceReport:
    """Sigma-unipotence along a face: sheared exponents, projected to
    (M/F)^gp tensor Q, must match images of Sigma (modulo the quotient
    lattice on annuli, exactly on disks/points).

    The shearing gauge has B_0 = I, so the sheared constant model is the
    residue; the module must pass the checks of `sheared_exponents`.
    Annulus modules must be M-supported; the twist-reduce normalization is
    realized by the modulo-lattice comparison of the exponent images, which
    are integer vectors over one denominator d until the report.
    """
    if not check_sd(sigma):
        raise SDViolated("Sigma fails the (NI-D) facet condition")
    sheared = e.sheared_exponents
    exps = e.decomposition.exponents
    vecs, d = over_lcm(exps + sigma.elements)
    proj = e.monoid.index.face_projection(face)
    images = [tuple(sum(map(mul, row, v)) for row in proj) for v in vecs]
    own = images[: len(exps)]
    # on annuli the images are compared modulo the quotient lattice, d Z^k here
    key = (lambda v: tuple(x % d for x in v)) if e.interval_kind == "annulus" else tuple
    verdict = set(map(key, own)) <= set(map(key, images[len(exps):]))
    return UnipotenceReport(
        verdict=verdict,
        sheared_exponents=sheared,
        filtration_ranks=e.filtration_ranks,
        offending_face=None if verdict else face,
        face_images=tuple(tuple(Fraction(x, d) for x in img) for img in own),
    )


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


# ---------------------------------------------------------------------------
# log-convergence (transfer hypothesis), bounded verdict
# ---------------------------------------------------------------------------

def log_convergence_check(
    e: LogNablaModule,
    a_prime: Radius,
    eta: Radius,
    depth: int,
    p: int = DEFAULT_PRIME,
) -> bool:
    """Bounded eta-nullity of P_k = (1/k!) prod_i prod_{j<k_i} (d_i - j) on the
    basis sections: no eta-weighted Gauss norm may exceed the |k| = 0 baseline.
    The n sections are carried side by side as the columns of one n x n
    integer map {key: x} over a denominator d, starting from the identity;
    a column's Gauss valuation is min v_p(x) - v_p(d) + q h(key) at radius
    a' = p^-q (`gauss_valuation`), and the map's is the least of them.
    P_k is computed along one path to k, so the module must be integrable.
    Level 1 is the maps themselves, (d_i + A^i) 1 = A^i, and level 2 at
    e_i + e_j, j < i, is the module's composition (d_i + A^i) A^j, which
    integrability has read; only a step with k_i != 0 or at level 3 or
    more runs `_nabla`, with the shift k_i, the left factor over the
    module's union of keys (`LogNablaModule.padded`)."""
    if e.interval_kind not in ("disk", "point"):
        raise NotDiskModule("log-convergence is defined on disks and points")
    if eta.is_zero or eta.value_exponent() <= 0:
        raise ValueError("eta must lie in (0,1) as a p-power")
    if not validate_integrability(e):
        raise NotIntegrable("connection is not integrable; log-convergence undefined")
    q, q_eta = a_prime.value_exponent(), eta.value_exponent()
    h = e.monoid.index.weighted(e.weighting.values).h
    radius = lambda key: q.numerator * h(key)[0]  # noqa: E731
    # the basis sections have valuation 0, the baseline; enumerate multi-indices
    # k with 1 <= |k| <= depth, the factors (d_i - j) for different directions
    # commuting by integrability; the maps are nonzero at keys with |h| <= t
    r = e.embedding.r
    frontier = {tuple(int(j == i) for j in range(r)): (dict(terms), den) for i, (terms, den) in enumerate(e.matrices)}
    for level in range(1, depth + 1):
        if level > 1:
            new = {}
            for k, (sections, den) in frontier.items():
                for i, a in enumerate(e.padded[:r]):
                    kk = k[:i] + (k[i] + 1,) + k[i + 1 :]
                    if kk in new:
                        continue
                    if level == 2 and not k[i]:
                        out = e.composition(i, k.index(1))  # (d_i + A^i) A^j for k = e_j, over d_i d_j
                    else:  # (d_i - k_i + A^i) sections, over d_i den; at level 2 the sections are A^i
                        out = _nabla(e, a, a if level == 2 else (sections.items(), den), i, k[i])
                    new[kk] = ({key: x for key, x in out.items() if any(x)}, a[1] * den)
            frontier = new
        for k, (sections, den) in frontier.items():
            val = gauss_valuation(sections.items(), den * math.prod(map(math.factorial, k)), p, radius, q.denominator)
            if val + level * q_eta < 0:
                return False
    return True
