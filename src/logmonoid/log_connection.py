"""Log nabla-modules on polyannuli at finite truncation.

Connection matrices are square matrices of truncated series, stored as
integer coefficient maps.  Every other rational matrix here -- the residues,
their eigenbases and nilpotent parts, the Sylvester operators and the D_l
factors -- is integer rows over one positive denominator (`RatMatrix`),
eigenvalues are integers over their residue's denominator, and D_l's
projection polynomials Q_i, a function of the module alone, are integer
coefficients over one denominator.  Fractions are built only for the values
handed back: `residue`, a shear's constant models, log C and bound records,
the eigentuples and exponents, the face images, the reported Q_i and the D_l
outputs, `twist_reduce`, and the homotopy forms, which stay on Fractions.  The shearing recursion solves the Sylvester equations
(g + m_i id)(B_m) = RHS order by order in the weight and certifies the
operator-norm bound of the gauge in valuation form; a failed self-check of a
result raises `CertificationFailed`.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property, reduce
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .abelian import Elt, checked_make
from .errors import (
    CertificationFailed,
    DenominatorVanishes,
    IrrationalExponent,
    NonCommutingResidues,
    NonConstantModel,
    NotDiskModule,
    NotIntegrable,
    NotMonoidSupported,
    NotSharp,
    NotSemiSaturated,
    SingularSylvester,
    ZeroProjection,
)
from .monoid_core import Face, FineMonoid, is_semi_saturated, is_sharp, membership
from .qlin import (
    INF, QMatrix, QVector, int_charpoly, integer_roots, inverse_over_lcm, nullspace_over_lcm, over_lcm,
    padic_valuation, qmat, qrank, qvec,
)
from .snf import IntMatrix, identity, mat_mul, mat_vec
# the coefficient maps live in weighted_series; map_sum is imported so that lc.map_sum still reads it
from .weighted_series import (  # noqa: F401
    DEFAULT_PRIME, CoefficientMap, Radius, SeriesMatrix, TruncatedSeries, Weighting, _add_into, _canonical, _map_mul,
    coefficient, coefficient_map, gauss_valuation, map_sum, series_matrix,
)

# a rational matrix inside this module: integer rows over one positive denominator
RatMatrix = tuple[IntMatrix, int]


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

def map_product(e: "LogNablaModule", a: CoefficientMap, b: CoefficientMap, i: Optional[int] = None) -> CoefficientMap:
    """a b for n x n coefficient maps of the module e, at its truncation;
    with a direction i, (d_i + a) b, d_i scaling t^m by the i-th coordinate
    of m."""
    (ax, da), (bx, db) = a, b
    out = _map_mul(e.monoid, e.weighting, e.truncation, ax, bx, e.rank)
    if i is not None:
        coords = e.coords
        for k, x in bx:
            _add_into(out, k, [da * coords(k)[i] * v for v in x])
    return _canonical(out, da * db)


# ---------------------------------------------------------------------------
# the module type
# ---------------------------------------------------------------------------

def _least_bracket_key(e: "LogNablaModule", x: dict, y: dict, partials) -> Optional[Elt]:
    """The least key at which [X, Y] + sum c d_l(Z) over partials (Z, c, l)
    is nonzero, or None: X, Y and the Z are coefficient maps, and c scales Z
    to the denominator of X Y."""
    args = (e.monoid, e.weighting, e.truncation)
    acc = _map_mul(*args, x, y, e.rank)
    for k, z in _map_mul(*args, y, x, e.rank).items():
        _add_into(acc, k, [-v for v in z])
    coords = e.coords
    for z, c, l in partials:
        for k, mat in z:
            _add_into(acc, k, [c * coords(k)[l] * v for v in mat])
    return min((k for k, mat in acc.items() if any(mat)), default=None)


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
    def integrability_defect(self):
        """None when every bracket vanishes up to truncation; otherwise the
        first failing ("connection", i, j, key) for [d_i + A^i, d_j + A^j] or
        ("base", k, i, key) for [d_i + A^i, D_k], key its least nonzero term.
        Each bracket is evaluated on the coefficient maps: over d_i d_j,
        m_i d_i A^j_m - m_j d_j A^i_m + (A^i A^j - A^j A^i)_m."""
        maps = self.matrices
        for i, j in itertools.combinations(range(self.embedding.r), 2):
            (ai, di), (aj, dj) = maps[i], maps[j]
            key = _least_bracket_key(self, ai, aj, ((aj, di, i), (ai, -dj, j)))
            if key is not None:
                return ("connection", i, j, key)
        for k, (d, _) in enumerate(self.base_matrices or ()):
            for i, (ai, di) in enumerate(maps):
                key = _least_bracket_key(self, ai, d, ((d, di, i),))
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
        """The exponent set of the sheared constant model.  The shearing
        gauge has B_0 = I, so that model is the residue; a non-constant
        module must pass shear's hypothesis checks, and on an annulus be
        M-supported."""
        if not smat_is_constant_all(self):
            if self.interval_kind == "annulus":
                _require_monoid_support(self)
            _shear_hypotheses(self)
        return self.decomposition.exponent_set(self.monoid)


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
    gauge_inverse_map: CoefficientMap  # B^-1
    constant_model: tuple[QMatrix, ...]
    bound_report: tuple[BoundRecord, ...]
    constant_base_model: Optional[tuple[QMatrix, ...]]
    norm_constant_log: Fraction  # log_p C
    nilpotency_exponent: int  # e
    weighting: Weighting
    truncation: int


class ShearResult(_ShearResultFields):
    # no __slots__: the instance dict holds the gauges rendered as series

    def _render(self, a: CoefficientMap) -> SeriesMatrix:
        n = math.isqrt(len(a[0][0][1]))  # B_0 = I: no gauge map is empty
        return series_matrix(self.weighting, self.truncation, a, n)

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
                raise SingularSylvester(
                    f"exponent difference {(x - y) // d} is a nonzero integer (NI violated)"
                )


def _ad_nilpotency(nilpotent: RatMatrix) -> int:
    """Smallest e >= 1 with ad(N)^e = 0 on matrix space: 2k - 1 for k the
    nilpotency index of N.  ad(N)^j X = sum_i (-1)^i C(j, i) N^(j-i) X N^i,
    so j = 2k - 1 kills every term, while for j = 2k - 2 only
    +-C(2k-2, k-1) N^(k-1) X N^(k-1) survives, nonzero for some X over Q."""
    return 2 * _nilpotency_index(nilpotent) - 1


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


def _shear_hypotheses(e: LogNablaModule) -> tuple[tuple[RatMatrix, ...], tuple]:
    """Check what shearing needs beyond a disk or point interval -- a sharp
    monoid, integrability, commuting residues with rational eigenvalues and
    locally (NI-D) -- and return the residues with their eigenbasis data."""
    if not is_sharp(e.monoid):
        raise NotSharp("shearing requires a sharp monoid")
    if not validate_integrability(e):
        raise NotIntegrable("connection is not integrable; shearing undefined")
    res = e.residues
    eigendata = e.eigenbasis_data
    _check_ni_coordinatewise([(sorted(set(eigs)), d) for (eigs, *_), (_, d) in zip(eigendata, res)])
    return res, eigendata


def shear(
    e: LogNablaModule,
    radius: Radius = Radius.one(),
    p: int = DEFAULT_PRIME,
) -> ShearResult:
    """Gauge B with B_0 = I solving A^i B + d_i B = B A^i_0 for every i,
    plus the inverse, the norm-bound report and the constant base model."""
    if e.interval_kind == "annulus":
        raise NotDiskModule("shear acts on disk or point modules; annuli go through twist_reduce")
    a0s, eigendata = _shear_hypotheses(e)
    # per direction, the differences x - y of A^i_0's eigenvalues, integers
    # over its denominator dx, with v_p(dx)
    eig_diffs = [(sorted({x - y for x in eigs for y in eigs}), dx, padic_valuation(dx, p))
                 for (eigs, *_), (_, dx) in zip(eigendata, a0s)]
    m = e.monoid
    t = e.truncation
    w = e.weighting
    emb = e.embedding
    n = e.rank

    index = m.index.weighted(w.values)
    ball = index.ball(t)
    keys = index.upto(t)[1:]  # every element of weight 1..t; 0 is the only one of weight 0
    coords = e.coords
    zero = m.gp.zero()
    # every coefficient is a row-major integer matrix over its denominator;
    # A^i keeps its terms of weight 1..t, and B, B' only their nonzero terms
    inside = set(keys)
    acoeff = [({k: x for k, x in terms if k in inside}, den) for terms, den in e.matrices]
    # the A-keys, lightest first, as (m', h(m'), m') for scatter
    akeys = [(k, ball[k], k) for k in sorted(dict.fromkeys(k for ac, _ in acoeff for k in ac), key=ball.get)]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    ops: dict = {}  # (i, m_i) -> the Sylvester operator of direction i, integer rows over one denominator
    inverses: dict = {}  # (i, m_i) -> its inverse, the same way: one per direction and coordinate
    worst: dict = {}  # (i, m_i) -> max(0, v_p(x - y - m_i) over eigenvalue pairs of A^i_0)

    gp_add = m.gp.add

    def scatter(pending: dict, q: Elt, xq, lightest_first) -> None:
        """Push (y, xq) onto the pending pairs of q + k for each (k, h(k), y)
        of lightest_first with h(q) + h(k) <= t: only the pairs that exist,
        each found once (a row-wise sparse product, Gustavson 1978)."""
        room = t - ball[q]
        for k, hk, y in lightest_first:
            if hk > room:
                break
            pending.setdefault(gp_add(q, k), []).append((y, xq))

    # B_m pairs A^i_{m'} with every fixed B_{m - m'}; each m' weighs >= 1,
    # so in weight order a key's pairs are all pushed before it is solved
    bmats = {zero: (ident, 1)}
    pending: dict = {}
    scatter(pending, zero, bmats[zero], akeys)
    for key in keys:
        partners = pending.pop(key, None)
        if partners is None:
            continue
        rhs = [_neg_convolution([((ac[kp], da), b) for kp, b in partners if kp in ac], n)
               for ac, da in acoeff]
        mk = coords(key)
        for i in range(emb.r):
            if (i, mk[i]) not in ops:
                ops[i, mk[i]] = _sylvester(*a0s[i], mk[i])
        i0 = next(i for i in range(emb.r) if mk[i] != 0)
        if (i0, mk[i0]) not in inverses:
            inverses[i0, mk[i0]] = _sylvester_inverse(*ops[i0, mk[i0]])
        bm, dm = _sylvester_solve(inverses[i0, mk[i0]], rhs[i0])
        # integrability forces the single-index solution to satisfy all
        # directions: op(B_m) = rhs, cross-multiplied
        for i, (ri, di) in enumerate(rhs):
            op, dop = ops[i, mk[i]]
            if any(sum(map(mul, row, bm)) * di != x * dop * dm for row, x in zip(op, ri)):
                raise CertificationFailed(f"shear all-directions identity: B_m solved in direction {i0} "
                                          f"fails the equation of direction {i} at m = {key}")
        if any(bm):
            bmats[key] = (bm, dm)
            scatter(pending, key, bmats[key], akeys)

    # inverse by the convolution identity sum B_{m'} B'_{m''} = delta_{m,0}:
    # B'_m = -sum_{m' != 0} B_{m'} B'_{m - m'} for m != 0, scattered the
    # same way from each fixed B'_q; bmats is in weight order
    bnonzero = [(k, ball[k], b) for k, b in bmats.items() if k != zero]
    bprime = {zero: (ident, 1)}
    scatter(pending, zero, bprime[zero], bnonzero)
    for key in keys:
        pairs = pending.pop(key, None)
        if pairs is None:
            continue
        bp = _reduced(*_neg_convolution(pairs, n))
        if any(bp[0]):
            bprime[key] = bp
            scatter(pending, key, bp, bnonzero)

    # bound constants (log-norm form, base p): e is the nilpotency index of the
    # commutator part g2; C bounds both the resolvent norms and |A^i_m| a^{h(m)}
    e_exp = 1
    for _eigs, _pmat, _pinv, nil in eigendata:
        e_exp = max(e_exp, _ad_nilpotency(nil))
    log_c = Fraction(0)
    qa = radius.value_exponent()
    for _eigs, pmat, pinv, nil in eigendata:
        cand = 2 * (_log_norm(pmat, p) + _log_norm(pinv, p)) + (e_exp - 1) * max(
            _log_norm(nil, p), Fraction(0)
        )
        log_c = max(log_c, cand)
    for ac, da in acoeff:
        log_c = max(log_c, -gauss_valuation(ac.items(), da, p, lambda k: qa.numerator * ball[k], qa.denominator))

    # Z_m chain DP and the bound records, on integers (every valuation is
    # one): bound = e log Z_m + h(m) s with s = 2 log C + q_a = s_n / s_d
    s = 2 * log_c + qa
    s_n, s_d = s.numerator, s.denominator
    logz: dict[Elt, int] = {}
    gens = [g for g in m.generators if not m.gp.is_zero(g)]
    records = []
    for key in keys:
        wmin = None
        for i in range(emb.r):
            mi = coords(key)[i]
            if mi == 0:
                continue
            if (i, mi) not in worst:
                diffs, dx, vdx = eig_diffs[i]
                worst[i, mi] = max(0, *(padic_valuation(z - mi * dx, p) - vdx for z in diffs))
            zi = worst[i, mi]
            wmin = zi if wmin is None else min(wmin, zi)
        # the chain max runs over the nonzero proper divisors of key; logz
        # grows along divisibility (wmin >= 0), so it is reached at some
        # key - g, g a generator: logz holds exactly the lighter nonzero
        # elements of M
        best_prev = max((logz.get(m.gp.sub(key, g), 0) for g in gens), default=0)
        logz[key] = wmin + best_prev
        bound = Fraction(e_exp * logz[key] * s_d + ball[key] * s_n, s_d)
        actual = -gauss_valuation(((key, bmats[key][0]),), bmats[key][1], p) if key in bmats else None
        records.append(BoundRecord(key, ball[key], actual, bound))

    gauge, gauge_inv = _over_one_denominator(bmats), _over_one_denominator(bprime)

    constant_base = None
    if e.base_matrices is not None:
        (bm, db), (bp, dp) = gauge, gauge_inv
        transformed = []
        for d, dd in e.base_matrices:
            prod = _canonical(_map_mul(m, w, t, bp, _map_mul(m, w, t, d, bm, n).items(), n), dp * dd * db)
            if any(k != zero for k, _ in prod[0]):
                raise CertificationFailed("shear base model: a base matrix is not constant after the gauge")
            transformed.append(coefficient(prod, zero, n))
        constant_base = tuple(transformed)

    return ShearResult(
        gauge_map=gauge,
        gauge_inverse_map=gauge_inv,
        constant_model=tuple(map(_fractions, a0s)),
        bound_report=tuple(records),
        constant_base_model=constant_base,
        norm_constant_log=log_c,
        nilpotency_exponent=e_exp,
        weighting=w,
        truncation=t,
    )


def _log_norm(a: RatMatrix, p: int) -> Fraction:
    """log_p |a| = -v_p(a), the Gauss valuation of a as a one-key map; 0 for
    the zero matrix."""
    rows, den = a
    x = [v for row in rows for v in row]
    v = gauss_valuation([(None, x)] if any(x) else [], den, p)
    return Fraction(0) if v is INF else -v


def _over_one_denominator(coeffs: dict) -> CoefficientMap:
    """{key: (x, d)}, x an integer matrix and x / d reduced, as one map."""
    den = math.lcm(*(d for _, d in coeffs.values()))
    return _canonical({k: [v * (den // d) for v in x] for k, (x, d) in coeffs.items()}, den)


def _reduced(x: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *x)
    return tuple(v // g for v in x), den // g


def _neg_convolution(pairs, n: int) -> tuple[list[int], int]:
    """-sum X Y over pairs ((X, dx), (Y, dy)) of row-major integer n x n
    matrices over their denominators, as one stacked integer product
    [X | ...] [Y; ...] over the lcm of the dx dy."""
    den = math.lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
    left: list[list[int]] = [[] for _ in range(n)]
    right: list[list[int]] = [[] for _ in range(n)]
    for (x, dx), (y, dy) in pairs:
        s = den // (dx * dy)
        for r, row in enumerate(left):
            row.extend([v * s for v in x[r * n : r * n + n]] if s > 1 else x[r * n : r * n + n])
        for c, col in enumerate(right):
            col.extend(y[c::n])
    return [-sum(map(mul, row, col)) for row in left for col in right], den


def _sylvester(a0: list[list[int]], d: int, mi: int) -> tuple[list[list[int]], int]:
    """X -> A0 X - X A0 + mi X on row-major vec(X) for A0 = a0 / d, as
    n^2 x n^2 integer rows over the denominator d."""
    ix = range(len(a0))
    # row (i, j), column (k, l): the coefficient of X_kl in (A0 X - X A0 + mi X)_ij, times d
    return [[a0[i][k] * (l == j) - a0[l][j] * (k == i) + mi * d * (k == i and l == j) for k in ix for l in ix]
            for i in ix for j in ix], d


def _sylvester_inverse(rows: list[list[int]], d: int) -> tuple[list[list[int]], int]:
    """The inverse of the operator rows / d, the same way."""
    inv = inverse_over_lcm(rows)
    if inv is None:
        raise SingularSylvester("Sylvester solve singular: NI hypothesis violated")
    return [[x * d for x in row] for row in inv[0]], inv[1]


def _sylvester_solve(inverse, rhs) -> tuple[tuple[int, ...], int]:
    """The B_m with S B_m = rhs, from S^-1 = (rows, d) and rhs = (x, dx)."""
    (rows, d), (x, dx) = inverse, rhs
    return _reduced([sum(map(mul, row, x)) for row in rows], d * dx)


# ---------------------------------------------------------------------------
# U_I, twisting, gauge transport
# ---------------------------------------------------------------------------

def apply_ui(
    embedding: Embedding,
    weighting: Weighting,
    constant_model: Sequence[Sequence[Sequence]],
    truncation: int,
    xi_twist: Optional[QVector] = None,
    interval_kind: str = "disk",
    base_model: Optional[Sequence[Sequence[Sequence]]] = None,
) -> LogNablaModule:
    """The module with constant matrices A^i_0 (+ xi_i id after a C_xi twist),
    given as rationals (read by `qmat`).  The built module's residues must
    commute (`NonCommutingResidues`); a scalar twist does not change that."""
    n = len(constant_model[0]) if constant_model else 0
    phi, dphi = embedding.rational_coords(qvec(xi_twist)) if xi_twist is not None else ((0,) * len(constant_model), 1)
    zero = embedding.monoid.gp.zero()

    def stored(a, shift: int = 0) -> CoefficientMap:
        rows, d = over_lcm(qmat(a))
        flat = [x * dphi + shift * d * (i == j) for i, row in enumerate(rows) for j, x in enumerate(row)]
        return coefficient_map(weighting, truncation, {zero: flat}, den=d * dphi)

    base = None if base_model is None else tuple(stored(b) for b in base_model)
    mats = tuple(stored(a, phi[k]) for k, a in enumerate(constant_model))
    e = LogNablaModule(n, embedding, weighting, truncation, mats, base, interval_kind)
    e.residues  # noqa: B018 -- reading the residues checks that they commute
    return e


def gauge_transform(e: LogNablaModule, b: CoefficientMap, b_inv: CoefficientMap) -> LogNablaModule:
    """Matrices of the connection in the basis f = e*B: B^{-1}(A^i B + d_i B),
    and B^{-1} D B for each base matrix D."""
    new = tuple(map_product(e, b_inv, map_product(e, a, b, i)) for i, a in enumerate(e.matrices))
    base = None
    if e.base_matrices is not None:
        base = tuple(map_product(e, b_inv, map_product(e, d, b)) for d in e.base_matrices)
    return LogNablaModule(e.rank, e.embedding, e.weighting, e.truncation, new, base, e.interval_kind)


def twist_reduce(embedding: Embedding, xi: QVector) -> tuple[QVector, Elt]:
    """Canonical representative of xi modulo M^gp on an annulus (0 notin I).

    The unique integer candidate is floor(phi(xi)) componentwise; the shift is
    applied only when that candidate lies in phi(M^gp)."""
    xi = qvec(xi)
    phi_xi, den = embedding.rational_coords(xi)
    y, dy = embedding.inverse_coords([x // den for x in phi_xi])
    if all(c % dy == 0 for c in y):
        shift = tuple(c // dy for c in y)
        return tuple(a - b for a, b in zip(xi, shift)), embedding.monoid.gp.element(shift)
    return xi, embedding.monoid.gp.zero()


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
    residue; a non-constant module must pass shear's hypothesis checks.
    Annulus modules must be M-supported; the twist-reduce normalization is
    realized by the modulo-lattice comparison of the exponent images, which
    are integer vectors over one denominator d until the report.
    """
    if not check_sd(sigma):
        raise SingularSylvester("Sigma fails the (NI-D) facet condition")
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
# D_l operators
# ---------------------------------------------------------------------------

def dl_constant_term(f: TruncatedSeries, l: int, embedding: Embedding) -> TruncatedSeries:
    """D_l on one series: `dl_projection` on the rank-1 module with zero
    residues, whose factor on t^m is prod_i prod_{j<=l} (j^2 - m_i^2) / j^2.
    It kills every tracked t^m with 0 < |m_i| <= l and fixes constants."""
    zero = apply_ui(embedding, f.weighting, [((0,),)] * embedding.r, f.truncation)
    return dl_projection(zero, (f,), l)[0]


def _require_constant_model(e: LogNablaModule) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The module's Q_i, once the module is known to be constant."""
    if not smat_is_constant_all(e):
        raise NonConstantModel("D_l projections require a constant (U_I-type) module")
    return e.projection_polynomials


def _rat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """a b, divided through by the gcd of its entries and denominator."""
    (x, dx), (y, dy) = a, b
    rows = mat_mul(x, y)
    g = math.gcd(dx * dy, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), dx * dy // g


def default_projection_polynomials(e: LogNablaModule) -> list[list[Fraction]]:
    """The module's Q_i (`LogNablaModule.projection_polynomials`) as
    Fractions, ascending, for the report."""
    return [[Fraction(c, den) for c in poly] for poly, den in _require_constant_model(e)]


def _dl_factor(e: LogNablaModule, i: int, mi: int, l: int) -> RatMatrix:
    """D_l's factor of direction i on t^m w, where d_i acts as S = res_i + m_i:
    Q_i(S) times, for each block k and j = 1..l,
    ((j + xi_k - S)(j - xi_k + S) / ((j - xi_1 + xi_k)(j + xi_1 - xi_k)))^q,
    xi the blocks' i-th eigenvalues and q the largest nilpotency index.  On
    integers, with S = s / d, Q_i = c / dc, u = j d, xi_k = y / d and
    xi_1 = t / d, Q_i(S) = sum_k c_k d^(deg - k) s^k / (dc d^deg) by Horner
    and a pair is ((u^2 - y^2) I + 2 y s - s^2) / ((u - t + y)(u + t - y)).
    At m_i = l = 0 the factor is Q_i(res_i)."""
    b, d = e.residues[i]
    c, dc = e.projection_polynomials[i]
    blocks = e.joint_blocks
    target = blocks[0][0]
    q = max((max(indices, default=1) for indices in e.nilpotency_indices), default=1)
    s = [[x + mi * d * (r == col) for col, x in enumerate(row)] for r, row in enumerate(b)]
    cols = tuple(zip(*s))
    acc = [[0] * len(s) for _ in s]
    for k, ck in enumerate(reversed(c)):
        acc = [[sum(map(mul, row, col)) + ck * d**k * (r == j) for j, col in enumerate(cols)]
               for r, row in enumerate(acc)]
    op = (acc, dc * d ** (len(c) - 1))
    s2 = mat_mul(s, s)
    for eigs, _ in blocks:
        y, t = eigs[i], target[i]
        for u in range(d, l * d + 1, d):
            den = (u - t + y) * (u + t - y)
            if den == 0:
                raise DenominatorVanishes("j +- (xi_1 - xi_k) vanishes: NI hypothesis violated")
            sign = 1 if den > 0 else -1
            pair = [[sign * ((u * u - y * y) * (r == col) + 2 * y * x - x2)
                     for col, (x, x2) in enumerate(zip(row, row2))] for r, (row, row2) in enumerate(zip(s, s2))]
            for _ in range(q):
                op = _rat_mul(op, (pair, abs(den)))
    return op


def _sections(v: Sequence[TruncatedSeries]) -> tuple[list[dict], int]:
    """The coefficients of the series v as integer maps over one denominator."""
    den = math.lcm(*(f.coefficients[1] for f in v))
    return [{k: x * (den // d) for k, (x,) in terms} for terms, d in (f.coefficients for f in v)], den


def dl_projection(e: LogNablaModule, v: Sequence[TruncatedSeries], l: int) -> tuple[TruncatedSeries, ...]:
    """The generization operator D_l applied termwise: on t^m w it is the
    product over the directions i of `_dl_factor`, built once per (i, m_i)."""
    _require_constant_model(e)
    n = e.rank
    factors: dict = {}
    sections, vden = _sections(v)
    out: list[dict] = [{} for _ in range(n)]
    for k in set().union(*sections):
        op = (identity(n), 1)
        for i, mi in enumerate(e.coords(k)):
            if (i, mi) not in factors:
                factors[i, mi] = _dl_factor(e, i, mi, l)
            op = _rat_mul(op, factors[i, mi])
        for comp, x in enumerate(mat_vec(op[0], [sec.get(k, 0) for sec in sections])):
            out[comp][k] = (x, op[1])
    w0 = v[0]
    result = []
    for coeffs in out:
        den = math.lcm(*(d for _, d in coeffs.values()))
        a = coefficient_map(w0.weighting, w0.truncation, {k: (x * (den // d),) for k, (x, d) in coeffs.items()},
                            w0.annulus, den * vden)
        result.append(w0._replace(coefficients=a))
    return tuple(result)


def dl_limit(e: LogNablaModule, v: Sequence[TruncatedSeries]) -> QVector:
    """prod_i Q_i(res_i)(v_0), D_l's factor at m = 0 and l = 0 on the constant
    terms: the H^0_{xi_1} witness.  Certifies that it is an eigenvector of
    every residue and that the projection stabilizes to it once l exceeds
    every tracked coordinate; either check fails only on a program fault."""
    _require_constant_model(e)
    n = e.rank
    zero = e.monoid.gp.zero()
    sections, vden = _sections(v)
    op = reduce(_rat_mul, (_dl_factor(e, i, 0, 0) for i in range(e.embedding.r)), (identity(n), 1))
    if not any(map(any, op[0])):
        raise ZeroProjection("projection polynomials annihilate the whole module")
    w, wden = mat_vec(op[0], [sec.get(zero, 0) for sec in sections]), op[1] * vden
    # membership in H^0_{xi_1}: res_i(w) = xi_{i,1} w, on integers b_i w = y_i w
    for i, ((b, _), y) in enumerate(zip(e.residues, e.joint_blocks[0][0])):
        if mat_vec(b, w) != tuple(y * x for x in w):
            raise CertificationFailed(f"dl_limit eigenvector check: the limit is not an eigenvector of residue {i}")
    # stabilization: for l beyond every tracked coordinate the projection is constant
    lmax = max((abs(c) for terms, _ in (f.coefficients for f in v) for k, _ in terms for c in e.coords(k)), default=0)
    proj = dl_projection(e, v, lmax)
    if any(f.coefficients != _canonical({zero: [x]}, wden) for f, x in zip(proj, w)):
        raise CertificationFailed(f"dl_limit stabilization check: D_{lmax} of the sections is not the limit")
    return tuple(Fraction(x, wden) for x in w)


# ---------------------------------------------------------------------------
# homotopy operator of the Ext isomorphism
# ---------------------------------------------------------------------------

LogForm = dict  # {(key, wedge index tuple): Fraction}


class HomotopyReport(NamedTuple):
    residuals: tuple[LogForm, ...]

    @property
    def all_zero(self) -> bool:
        return all(not r for r in self.residuals)


def _nabla_f(form: LogForm, emb: Embedding, delta: QVector) -> LogForm:
    """nabla_F(t^m wedge) = sum_{i'} (m_{i'} + delta_{i'}) t^m dlog t_{i'} ^ wedge."""
    out: LogForm = {}
    for (key, wedge), c in form.items():
        coords = emb.coords(key)
        for ip in range(emb.r):
            if ip in wedge:
                continue
            coeff = (Fraction(coords[ip]) + delta[ip]) * c
            if coeff == 0:
                continue
            pos = sum(1 for w in wedge if w < ip)
            sign = Fraction(-1) ** pos
            new_wedge = tuple(sorted(wedge + (ip,)))
            out[(key, new_wedge)] = out.get((key, new_wedge), Fraction(0)) + sign * coeff
    return {k: v for k, v in out.items() if v != 0}


def _phi_op(form: LogForm, emb: Embedding, delta: QVector) -> LogForm:
    out: LogForm = {}
    gp = emb.monoid.gp
    for (key, wedge), c in form.items():
        if gp.is_zero(key):
            continue
        coords = emb.coords(key)
        l = next((i for i in range(emb.r) if coords[i] != 0), None)
        if l is None or l not in wedge:
            continue
        den = Fraction(coords[l]) + delta[l]
        if den == 0:
            raise DenominatorVanishes("m_l + xi'_l - xi_l = 0: NI hypothesis violated")
        s = wedge.index(l) + 1
        sign = Fraction(-1) ** (s - 1)
        new_wedge = tuple(w for w in wedge if w != l)
        val = sign * c / den
        out[(key, new_wedge)] = out.get((key, new_wedge), Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def homotopy_check(
    embedding: Embedding,
    xi: QVector,
    xi_prime: QVector,
    test_forms: Sequence[LogForm],
) -> HomotopyReport:
    """residual of nabla_F phi + phi nabla_F - (id - g1 g2) on each test form
    for F = C_{xi' - xi}; identically zero when the denominators are nonzero."""
    phi, den = embedding.rational_coords(tuple(a - b for a, b in zip(qvec(xi_prime), qvec(xi))))
    delta = tuple(Fraction(x, den) for x in phi)
    gp = embedding.monoid.gp
    residuals = []
    for form in test_forms:
        lhs = _merge(
            _nabla_f(_phi_op(form, embedding, delta), embedding, delta),
            _phi_op(_nabla_f(form, embedding, delta), embedding, delta),
        )
        rhs = {k: v for k, v in form.items() if not gp.is_zero(k[0])}
        residual = _merge(lhs, {k: -v for k, v in rhs.items()})
        residuals.append(residual)
    return HomotopyReport(tuple(residuals))


def _merge(a: LogForm, b: LogForm) -> LogForm:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


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
    P_k is computed along one path to k, so the module must be integrable."""
    if e.interval_kind not in ("disk", "point"):
        raise NotDiskModule("log-convergence is defined on disks and points")
    if eta.is_zero or eta.value_exponent() <= 0:
        raise ValueError("eta must lie in (0,1) as a p-power")
    if not validate_integrability(e):
        raise NotIntegrable("connection is not integrable; log-convergence undefined")
    q, q_eta = a_prime.value_exponent(), eta.value_exponent()
    m, w, t, n = e.monoid, e.weighting, e.truncation, e.rank
    h = m.index.weighted(w.values).h
    radius = lambda key: q.numerator * h(key)[0]  # noqa: E731
    coords = e.coords
    # the basis sections have valuation 0, the baseline; enumerate multi-indices
    # k with 1 <= |k| <= depth, the factors (d_i - j) for different directions
    # commuting by integrability
    frontier = {(0,) * e.embedding.r: ({m.gp.zero(): [int(i == j) for i in range(n) for j in range(n)]}, 1)}
    for level in range(1, depth + 1):
        new = {}
        for k, (sections, den) in frontier.items():
            for i, (ai, di) in enumerate(e.matrices):
                kk = k[:i] + (k[i] + 1,) + k[i + 1 :]
                if kk in new:
                    continue
                out = _map_mul(m, w, t, ai, sections.items(), n)  # (d_i + A^i - k_i) sections, over di den
                for key, x in sections.items():
                    _add_into(out, key, [di * (coords(key)[i] - k[i]) * v for v in x])
                new[kk] = ({key: x for key, x in out.items() if any(x)}, di * den)
        frontier = new
        for k, (sections, den) in frontier.items():
            val = gauss_valuation(sections.items(), den * math.prod(map(math.factorial, k)), p, radius, q.denominator)
            if val + level * q_eta < 0:
                return False
    return True
