"""Log nabla-modules on polyannuli at finite truncation.

Connection matrices are square matrices of truncated series; residues and
exponents are exact rational data; the shearing recursion solves the
Sylvester equations (g + m_i id)(B_m) = RHS order by order in the weight
and certifies the operator-norm bound of the gauge in valuation form.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .abelian import Elt
from .errors import (
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
from .monoid_core import Face, FineMonoid, face_quotient_group, is_semi_saturated, is_sharp, membership
from .qlin import (
    INF,
    QMatrix,
    QVector,
    charpoly,
    matrix_valuation,
    padic_valuation,
    qidentity,
    qinverse,
    qmat,
    qmat_add,
    qmat_mul,
    qmat_scale,
    qmat_sub,
    qmat_vec,
    qnullspace,
    qsolve,
    qvec,
    rational_roots,
)
from .weighted_series import (
    DEFAULT_PRIME,
    Radius,
    TruncatedSeries,
    Weighting,
    constant_series,
    series,
    series_add,
    series_equal,
    series_mul,
    series_scale,
    series_sub,
)

SeriesMatrix = tuple[tuple[TruncatedSeries, ...], ...]


# ---------------------------------------------------------------------------
# embeddings phi: (M^gp)^free -> Z^r
# ---------------------------------------------------------------------------

class _EmbeddingFields(NamedTuple):
    monoid: FineMonoid
    matrix: tuple[tuple[int, ...], ...]  # r rows of length free_rank


class Embedding(_EmbeddingFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        d = self.monoid.gp.free_rank
        r = len(self.matrix)
        if any(len(row) != d for row in self.matrix):
            raise ValueError("embedding rows must have length free_rank")
        if r != d or qinverse(qmat(self.matrix)) is None:
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

    def rational_coords(self, xi: QVector) -> QVector:
        return tuple(
            sum((Fraction(row[k]) * xi[k] for k in range(len(row))), Fraction(0))
            for row in self.matrix
        )

    def inverse_coords(self, v: QVector) -> QVector:
        inv = qinverse(qmat(self.matrix))
        return qmat_vec(inv, v)


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
    rows = _facet_rows(m)
    d = m.gp.free_rank
    from .qlin import qrank

    if qrank(qmat(rows)) != d:
        raise NotSemiSaturated("facet functionals do not span the dual space")
    while len(rows) > d:
        for i in range(len(rows)):
            trial = rows[:i] + rows[i + 1 :]
            if qrank(qmat(trial)) == d:
                rows = trial
                break
        else:
            raise NotSemiSaturated("cannot prune facet embedding to an isomorphism")
    return Embedding(m, tuple(rows))


# ---------------------------------------------------------------------------
# exponent sets and (S-D)
# ---------------------------------------------------------------------------

class _ExponentSetFields(NamedTuple):
    monoid: FineMonoid
    elements: tuple[QVector, ...]


class ExponentSet(_ExponentSetFields):
    """Finite set of rational vectors in M^gp tensor Q (free coordinates)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        d = self.monoid.gp.free_rank
        for xi in self.elements:
            if len(xi) != d:
                raise ValueError("exponent vector has wrong dimension")
        return self


def check_sd(sigma: ExponentSet, s_class: str = "NI") -> bool:
    """Global (S-D) via facets: all pairwise differences of the facet images
    avoid Z \\ {0}.  Rational exponents are automatically of positive type
    and non-Liouville, so NI and NI_and_NL coincide here."""
    if s_class not in ("NI", "NI_and_NL"):
        raise ValueError("s_class must be 'NI' or 'NI_and_NL'")
    m = sigma.monoid
    if not is_semi_saturated(m):
        raise NotSemiSaturated("(S-D) check requires a semi-saturated monoid")
    for row in _facet_rows(m):
        images = [
            sum((Fraction(row[k]) * xi[k] for k in range(len(row))), Fraction(0))
            for xi in sigma.elements
        ]
        for x, y in itertools.product(images, repeat=2):
            diff = x - y
            if diff != 0 and diff.denominator == 1:
                return False
    return True


# ---------------------------------------------------------------------------
# series matrices
# ---------------------------------------------------------------------------

def smat_from_rational(monoid, weighting, a: QMatrix, truncation, annulus=False) -> SeriesMatrix:
    return tuple(
        tuple(constant_series(monoid, weighting, x, truncation, annulus) for x in row)
        for row in a
    )


def smat_constant_term(a: SeriesMatrix) -> QMatrix:
    return tuple(tuple(x.constant_term for x in row) for row in a)


def smat_add(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return tuple(tuple(series_add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smat_sub(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return tuple(tuple(series_sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smat_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    n = len(a)
    inner = len(b)
    cols = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = series_mul(a[i][k], b[k][j])
                acc = term if acc is None else series_add(acc, term)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def smat_is_zero(a: SeriesMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def smat_equal(a: SeriesMatrix, b: SeriesMatrix) -> bool:
    return all(series_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def smat_coefficient(a: SeriesMatrix, key: Elt) -> QMatrix:
    return tuple(tuple(x.coeff(key) for x in row) for row in a)


def smat_keys(a: SeriesMatrix) -> set[Elt]:
    return {k for row in a for x in row for k, _ in x.terms}


def smat_partial(a: SeriesMatrix, emb: Embedding, i: int) -> SeriesMatrix:
    """Coefficientwise d_i: t^m -> m_i t^m with m_i the i-th phi-coordinate."""
    out = []
    for row in a:
        new_row = []
        for f in row:
            coeffs = {k: Fraction(emb.coords(k)[i]) * c for k, c in f.terms}
            new_row.append(
                series(f.monoid, f.weighting, coeffs, f.truncation, f.annulus, validate=False)
            )
        out.append(tuple(new_row))
    return tuple(out)


def smat_is_constant(a: SeriesMatrix) -> bool:
    gp_zero = a[0][0].monoid.gp.zero()
    return all(all(k == gp_zero for k, _ in x.terms) for row in a for x in row)


# ---------------------------------------------------------------------------
# the module type
# ---------------------------------------------------------------------------

def _integrability_brackets(e: "LogNablaModule"):
    """Yield (label, bracket) for every bracket integrability requires to vanish."""
    r = e.embedding.r
    for i in range(r):
        for j in range(i + 1, r):
            yield ("connection", i, j), smat_add(
                smat_sub(
                    smat_partial(e.matrices[j], e.embedding, i),
                    smat_partial(e.matrices[i], e.embedding, j),
                ),
                smat_sub(
                    smat_mul(e.matrices[i], e.matrices[j]),
                    smat_mul(e.matrices[j], e.matrices[i]),
                ),
            )
    for k, d in enumerate(e.base_matrices or ()):
        for i in range(r):
            yield ("base", k, i), smat_add(
                smat_partial(d, e.embedding, i),
                smat_sub(smat_mul(e.matrices[i], d), smat_mul(d, e.matrices[i])),
            )


class _LogNablaModuleFields(NamedTuple):
    rank: int
    embedding: Embedding
    matrices: tuple[SeriesMatrix, ...]
    base_matrices: Optional[tuple[SeriesMatrix, ...]] = None
    interval_kind: str = "disk"


class LogNablaModule(_LogNablaModuleFields):
    # no __slots__: the instance dict holds the cached residue analysis

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.interval_kind not in ("disk", "annulus", "point"):
            raise ValueError("interval_kind must be disk, annulus or point")
        if len(self.matrices) != self.embedding.r:
            raise ValueError("one matrix per embedding coordinate required")
        for a in self.matrices:
            if len(a) != self.rank or any(len(row) != self.rank for row in a):
                raise ValueError("connection matrices must be rank x rank")
        return self

    @property
    def monoid(self) -> FineMonoid:
        return self.embedding.monoid

    @property
    def weighting(self) -> Weighting:
        return self.matrices[0][0][0].weighting

    @property
    def truncation(self) -> int:
        return self.matrices[0][0][0].truncation

    @cached_property
    def integrability_defect(self):
        """None when every bracket vanishes up to truncation; otherwise the
        first failing ("connection", i, j, key) for [d_i + A^i, d_j + A^j] or
        ("base", k, i, key) for [d_i + A^i, D_k], key its least nonzero term."""
        for label, lhs in _integrability_brackets(self):
            keys = smat_keys(lhs)
            if keys:
                return label + (min(keys),)
        return None

    # the residue analysis depends on the module alone: computed at most once,
    # freed with the module; a failing step raises again on the next read

    @cached_property
    def residues(self) -> tuple[QMatrix, ...]:
        """Constant terms A^i_0, validated to commute pairwise."""
        mats = tuple(smat_constant_term(a) for a in self.matrices)
        for a, b in itertools.combinations(mats, 2):
            if qmat_mul(a, b) != qmat_mul(b, a):
                raise NonCommutingResidues("constant terms of the connection do not commute")
        return mats

    @cached_property
    def decomposition(self) -> "ResidueDecomposition":
        return _decomposition_from_model(self.residues, self.embedding, self.rank)

    @cached_property
    def eigenbasis_data(self) -> tuple:
        """Shear's per-residue (eigenvalues, P, P^{-1}, nilpotent part)."""
        return tuple(_eigenbasis_data(a) for a in self.residues)

    @cached_property
    def filtration_ranks(self) -> tuple[int, ...]:
        return _block_filtration_ranks(self.decomposition, self.residues)

    @cached_property
    def nilpotency_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per block of the decomposition and per residue, the nilpotency
        index of the residue's nilpotent part on the block."""
        d = self.decomposition
        return tuple(
            tuple(_nilpotent_part(a, basis, x)[1] for a, x in zip(self.residues, eigs))
            for eigs, basis in zip(d.eigentuples, d.blocks)
        )


def validate_integrability(e: LogNablaModule) -> bool:
    """[d_i + A^i, d_j + A^j] = 0 and [d_i + A^i, D] = 0 coefficientwise up to
    truncation; decided once per module."""
    return e.integrability_defect is None


# ---------------------------------------------------------------------------
# residues and exponents
# ---------------------------------------------------------------------------

def residue(e: LogNablaModule) -> tuple[QMatrix, ...]:
    """Constant terms A^i_0, validated to commute pairwise."""
    return e.residues


class ResidueDecomposition(NamedTuple):
    """Joint generalized eigendecomposition of the commuting residues."""

    module_rank: int
    eigentuples: tuple[tuple[Fraction, ...], ...]  # per block: phi-coordinates
    exponents: tuple[QVector, ...]  # per block: vectors in M^gp tensor Q
    blocks: tuple[tuple[QVector, ...], ...]  # per block: basis column vectors

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def exponent_set(self, monoid: FineMonoid) -> ExponentSet:
        uniq = []
        for xi in self.exponents:
            if xi not in uniq:
                uniq.append(xi)
        return ExponentSet(monoid, tuple(uniq))


def _restrict(a: QMatrix, basis: Sequence[QVector]) -> QMatrix:
    """Matrix of a on span(basis) in the given basis (requires invariance)."""
    n = len(basis[0])
    k = len(basis)
    bmat = qmat([[basis[j][i] for j in range(k)] for i in range(n)])
    cols = []
    for b in basis:
        img = qmat_vec(a, b)
        sol = qsolve(bmat, img)
        if sol is None:
            raise NonCommutingResidues("subspace is not invariant under a residue")
        cols.append(sol)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def _generalized_eigenspaces(a: QMatrix) -> list[tuple[Fraction, list[QVector]]]:
    n = len(a)
    roots = rational_roots(charpoly(a))
    if roots is None or sum(m for _, m in roots) != n:
        raise IrrationalExponent("characteristic polynomial does not split over Q")
    out = []
    for xi, _mult in roots:
        shifted = qmat_sub(a, qmat_scale(xi, qidentity(n)))
        power = qidentity(n)
        for _ in range(n):
            power = qmat_mul(power, shifted)
        null = qnullspace(power)
        out.append((xi, [qvec(v) for v in null]))
    return out


def joint_decomposition(mats: Sequence[QMatrix], n: int) -> list[tuple[tuple[Fraction, ...], list[QVector]]]:
    """Blocks of the common generalized eigendecomposition of commuting matrices."""
    blocks: list[tuple[tuple[Fraction, ...], list[QVector]]] = [
        ((), [qvec([1 if i == j else 0 for i in range(n)]) for j in range(n)])
    ]
    for a in mats:
        new = []
        for eigs, basis in blocks:
            sub = _restrict(a, basis)
            for xi, null in _generalized_eigenspaces(sub):
                vectors = []
                for w in null:
                    vec = tuple(
                        sum((w[j] * basis[j][i] for j in range(len(basis))), Fraction(0))
                        for i in range(n)
                    )
                    vectors.append(vec)
                new.append((eigs + (xi,), vectors))
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
    actual: object  # -log_p |B_m| ... stored as log-norm exponent (Fraction or -INF)
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.actual is None or self.actual <= self.bound


class ShearResult(NamedTuple):
    gauge: SeriesMatrix
    gauge_inverse: SeriesMatrix
    constant_model: tuple[QMatrix, ...]
    bound_report: tuple[BoundRecord, ...]
    constant_base_model: Optional[tuple[QMatrix, ...]]
    norm_constant_log: Fraction  # log_p C
    nilpotency_exponent: int  # e


def _check_ni_coordinatewise(decomp_per_matrix) -> None:
    """locally (NI-D) under the module's embedding: no nonzero integer
    difference of eigenvalues in any coordinate."""
    for eigs in decomp_per_matrix:
        for x, y in itertools.product(eigs, repeat=2):
            diff = x - y
            if diff != 0 and diff.denominator == 1:
                raise SingularSylvester(
                    f"exponent difference {diff} is a nonzero integer (NI violated)"
                )


def _ad_nilpotency(nilpotent: QMatrix) -> int:
    """Smallest e >= 1 with ad(N)^e = 0 on matrix space: 2k - 1 for k the
    nilpotency index of N.  ad(N)^j X = sum_i (-1)^i C(j, i) N^(j-i) X N^i,
    so j = 2k - 1 kills every term, while for j = 2k - 2 only
    +-C(2k-2, k-1) N^(k-1) X N^(k-1) survives, nonzero for some X over Q."""
    return 2 * _nilpotency_index(nilpotent) - 1


def _is_zero_qmat(a: QMatrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _nilpotency_index(nil: QMatrix) -> int:
    """The least k >= 1 with nil^k = 0."""
    index, power = 1, nil
    while not _is_zero_qmat(power):
        if index >= len(nil):
            raise AssertionError("matrix is not nilpotent")
        power = qmat_mul(power, nil)
        index += 1
    return index


def _nilpotent_part(a: QMatrix, basis: Sequence[QVector], xi: Fraction) -> tuple[QMatrix, int]:
    """N = a - xi on span(basis), which a must leave invariant, and its
    nilpotency index."""
    nil = qmat_sub(_restrict(a, basis), qmat_scale(xi, qidentity(len(basis))))
    return nil, _nilpotency_index(nil)


def _eigenbasis_data(a: QMatrix):
    """(eigenvalues list, P, P^{-1}, nilpotent part in the eigenbasis)."""
    spaces = _generalized_eigenspaces(a)
    cols: list[QVector] = []
    eigs: list[Fraction] = []
    for xi, vecs in spaces:
        for v in vecs:
            cols.append(v)
            eigs.append(xi)
    n = len(a)
    pmat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    pinv = qinverse(pmat)
    conj = qmat_mul(qmat_mul(pinv, a), pmat)
    nil = tuple(
        tuple(conj[i][j] - (eigs[i] if i == j else 0) for j in range(n)) for i in range(n)
    )
    return eigs, pmat, pinv, nil


def _shear_hypotheses(e: LogNablaModule) -> tuple[tuple[QMatrix, ...], tuple]:
    """Check what shearing needs beyond a disk or point interval -- a sharp
    monoid, integrability, commuting residues with rational eigenvalues and
    locally (NI-D) -- and return the residues with their eigenbasis data."""
    if not is_sharp(e.monoid):
        raise NotSharp("shearing requires a sharp monoid")
    if not validate_integrability(e):
        raise NotIntegrable("connection is not integrable; shearing undefined")
    res = e.residues
    eigendata = e.eigenbasis_data
    _check_ni_coordinatewise([sorted(set(eigs)) for eigs, *_ in eigendata])
    return res, eigendata


def _sparse_coefficients(a: SeriesMatrix, keys) -> dict[Elt, QMatrix]:
    """The nonzero coefficient matrices of a at the given keys."""
    n = len(a)
    out: dict[Elt, list[list[Fraction]]] = {}
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            for k, c in x.terms:
                if k in keys:
                    out.setdefault(k, [[Fraction(0)] * n for _ in range(n)])[i][j] = c
    return {k: tuple(map(tuple, mat)) for k, mat in out.items()}


def shear(
    e: LogNablaModule,
    truncation: Optional[int] = None,
    radius: Radius = Radius.one(),
    p: int = DEFAULT_PRIME,
) -> ShearResult:
    """Gauge B with B_0 = I solving A^i B + d_i B = B A^i_0 for every i,
    plus the inverse, the norm-bound report and the constant base model."""
    if e.interval_kind == "annulus":
        raise NotDiskModule("shear acts on disk or point modules; annuli go through twist_reduce")
    a0s, eigendata = _shear_hypotheses(e)
    per_matrix_eigs = [sorted(set(eigs)) for eigs, *_ in eigendata]
    m = e.monoid
    t = e.truncation if truncation is None else min(truncation, e.truncation)
    w = e.weighting
    emb = e.embedding
    n = e.rank

    index = m.index.weighted(w.values)
    ball = index.ball(t)
    keys = index.upto(t)[1:]  # every element of weight 1..t; 0 is the only one of weight 0
    coords = {k: emb.coords(k) for k in keys}
    acoeff = [_sparse_coefficients(a, coords) for a in e.matrices]
    zero_elt = m.gp.zero()

    bmats: dict[Elt, QMatrix] = {zero_elt: qidentity(n)}
    for key in keys:
        rhs = [_convolution_rhs(ac, bmats, key, m, n) for ac in acoeff]
        i0 = next(i for i in range(emb.r) if coords[key][i] != 0)
        bm = _solve_sylvester(a0s[i0], Fraction(coords[key][i0]), rhs[i0], n)
        # integrability forces the single-index solution to satisfy all directions
        for i in range(emb.r):
            if qmat_add_scaled(a0s[i], bm, Fraction(coords[key][i])) != rhs[i]:
                raise AssertionError("shear recursion violates the all-directions identity")
        bmats[key] = bm

    # inverse by the convolution identity sum B_{m'} B'_{m''} = delta_{m,0}:
    # B'_m = -sum_{m' != 0} B_{m'} B'_{m - m'} for m != 0; the m' = 0 term
    # drops out because its partner B'_m is assigned only after the call
    bprime: dict[Elt, QMatrix] = {zero_elt: qidentity(n)}
    for key in keys:
        bprime[key] = _convolution_rhs(bmats, bprime, key, m, n)

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
    for ac in acoeff:
        for key, amat in ac.items():
            log_c = max(log_c, Fraction(-matrix_valuation(amat, p)) - qa * ball[key])

    # Z_m chain DP and the bound records
    logz: dict[Elt, Fraction] = {}
    gens = [g for g in m.generators if not m.gp.is_zero(g)]
    records = []
    for key in keys:
        wmin = None
        for i in range(emb.r):
            mi = coords[key][i]
            if mi == 0:
                continue
            worst = max(
                (Fraction(padic_valuation(x - y - mi, p))
                 for x, y in itertools.product(per_matrix_eigs[i], repeat=2)),
                default=Fraction(0),
            )
            zi = max(worst, Fraction(0))
            wmin = zi if wmin is None else min(wmin, zi)
        # the chain max runs over the nonzero proper divisors of key; logz
        # grows along divisibility (wmin >= 0), so it is reached at some
        # key - g, g a generator: logz holds exactly the lighter nonzero
        # elements of M
        best_prev = max((logz.get(m.gp.sub(key, g), 0) for g in gens), default=0)
        logz[key] = wmin + best_prev
        bound = e_exp * logz[key] + 2 * ball[key] * log_c + qa * ball[key]
        v = matrix_valuation(bmats[key], p)
        actual = None if v is INF else Fraction(-v)
        records.append(BoundRecord(key, ball[key], actual, bound))

    gauge = _smat_from_coeffs(m, w, bmats, t, n)
    gauge_inv = _smat_from_coeffs(m, w, bprime, t, n)

    constant_base = None
    if e.base_matrices is not None:
        transformed = []
        for d in e.base_matrices:
            db = smat_mul(gauge_inv, smat_mul(d, gauge))
            if not smat_is_constant(db):
                raise AssertionError("base matrices fail to become constant after the gauge")
            transformed.append(smat_constant_term(db))
        constant_base = tuple(transformed)

    return ShearResult(
        gauge=gauge,
        gauge_inverse=gauge_inv,
        constant_model=a0s,
        bound_report=tuple(records),
        constant_base_model=constant_base,
        norm_constant_log=log_c,
        nilpotency_exponent=e_exp,
    )


def _log_norm(a: QMatrix, p: int):
    v = matrix_valuation(a, p)
    return Fraction(0) if v is INF else Fraction(-v)


def _zero_qmat(n: int) -> QMatrix:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def qmat_add_scaled(a0: QMatrix, bm: QMatrix, mi: Fraction) -> QMatrix:
    """A0*Bm - Bm*A0 + mi*Bm."""
    comm = qmat_sub(qmat_mul(a0, bm), qmat_mul(bm, a0))
    return tuple(
        tuple(comm[i][j] + mi * bm[i][j] for j in range(len(bm)))
        for i in range(len(bm))
    )


def _convolution_rhs(acoeffs: dict, bmats: dict, key: Elt, m: FineMonoid, n: int) -> QMatrix:
    """-sum A_{m'} B_{key - m'} over the coefficients A_{m'} whose partner
    B_{key - m'} is known, as minus the one product
    [A_{m'} | ...] [B_{key - m'}; ...]."""
    left: list[list[Fraction]] = [[] for _ in range(n)]
    right: list[tuple[Fraction, ...]] = []
    for kp, amat in acoeffs.items():
        bm = bmats.get(m.gp.sub(key, kp))
        if bm is None:
            continue
        for row, arow in zip(left, amat):
            row.extend(arow)
        right.extend(bm)
    if not right:
        return _zero_qmat(n)
    return tuple(tuple(-x for x in row) for row in qmat_mul(left, right))


def _solve_sylvester(a0: QMatrix, mi: Fraction, rhs: QMatrix, n: int) -> QMatrix:
    """(A0 X - X A0 + mi X) = rhs as an n^2 linear system."""
    rows = []
    target = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += a0[i][k]
                row[i * n + k] -= a0[k][j]
            row[i * n + j] += mi
            rows.append(row)
            target.append(rhs[i][j])
    sol = qsolve(qmat(rows), qvec(target))
    if sol is None:
        raise SingularSylvester("Sylvester solve singular: NI hypothesis violated")
    return tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))


def _smat_from_coeffs(m, w, coeffs: dict, t: int, n: int) -> SeriesMatrix:
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = {k: mat[i][j] for k, mat in coeffs.items() if mat[i][j] != 0}
            row.append(series(m, w, entry, t, annulus=False, validate=False))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# U_I, twisting, gauge transport
# ---------------------------------------------------------------------------

def apply_ui(
    embedding: Embedding,
    weighting: Weighting,
    constant_model: Sequence[QMatrix],
    truncation: int,
    xi_twist: Optional[QVector] = None,
    interval_kind: str = "disk",
    base_model: Optional[Sequence[QMatrix]] = None,
) -> LogNablaModule:
    """The module with constant matrices A^i_0 (+ xi_i id after a C_xi twist)."""
    mats = [qmat(a) for a in constant_model]
    n = len(mats[0]) if mats else 0
    for a, b in itertools.combinations(mats, 2):
        if qmat_mul(a, b) != qmat_mul(b, a):
            raise NonCommutingResidues("constant model matrices must commute")
    if xi_twist is not None:
        phi_xi = embedding.rational_coords(qvec(xi_twist))
        mats = [
            tuple(
                tuple(a[i][j] + (phi_xi[k] if i == j else 0) for j in range(n))
                for i in range(n)
            )
            for k, a in enumerate(mats)
        ]
    smats = tuple(
        smat_from_rational(embedding.monoid, weighting, a, truncation) for a in mats
    )
    base = None
    if base_model is not None:
        base = tuple(
            smat_from_rational(embedding.monoid, weighting, qmat(b), truncation)
            for b in base_model
        )
    return LogNablaModule(n, embedding, smats, base, interval_kind)


def gauge_transform(e: LogNablaModule, b: SeriesMatrix, b_inv: SeriesMatrix) -> LogNablaModule:
    """Matrices of the connection in the basis f = e*B: B^{-1}(A B + dB)."""
    new = []
    for i in range(e.embedding.r):
        inner = smat_add(smat_mul(e.matrices[i], b), smat_partial(b, e.embedding, i))
        new.append(smat_mul(b_inv, inner))
    base = None
    if e.base_matrices is not None:
        base = tuple(smat_mul(b_inv, smat_mul(d, b)) for d in e.base_matrices)
    return LogNablaModule(e.rank, e.embedding, tuple(new), base, e.interval_kind)


def twist_reduce(embedding: Embedding, xi: QVector) -> tuple[QVector, Elt]:
    """Canonical representative of xi modulo M^gp on an annulus (0 notin I).

    The unique integer candidate is floor(phi(xi)) componentwise; the shift is
    applied only when that candidate lies in phi(M^gp)."""
    phi_xi = embedding.rational_coords(qvec(xi))
    floors = tuple(Fraction(x.numerator // x.denominator) for x in phi_xi)
    y = embedding.inverse_coords(floors)
    if all(c.denominator == 1 for c in y):
        gp = embedding.monoid.gp
        shift = gp.element(tuple(int(c) for c in y))
        reduced = tuple(a - b for a, b in zip(qvec(xi), y))
        return reduced, shift
    return qvec(xi), embedding.monoid.gp.zero()


# ---------------------------------------------------------------------------
# unipotence
# ---------------------------------------------------------------------------

class UnipotenceReport(NamedTuple):
    verdict: bool
    sheared_exponents: ExponentSet
    filtration_ranks: tuple[int, ...]
    offending_face: Optional[Face]
    face_images: tuple[QVector, ...]


def _face_projection_matrix(m: FineMonoid, face: Face) -> tuple[QMatrix, int]:
    q, project = face_quotient_group(m, face)
    d = m.gp.free_rank
    rows = []
    for i in range(q.free_rank):
        row = []
        for k in range(d):
            e = m.gp.element(tuple(1 if x == k else 0 for x in range(d)))
            row.append(Fraction(project(e)[0][i]))
        rows.append(tuple(row))
    return tuple(rows), q.free_rank


def _block_filtration_ranks(decomp: ResidueDecomposition, res: Sequence[QMatrix]) -> tuple[int, ...]:
    """Ranks of the successive quotients of the canonical filtration: within a
    block, U_j = common kernel of all degree-j products of the nilpotent parts."""
    ranks = []
    r = len(res)
    for eigs, basis in zip(decomp.eigentuples, decomp.blocks):
        k = len(basis)
        nils = [_nilpotent_part(a, basis, x)[0] for a, x in zip(res, eigs)]
        prev_dim = 0
        j = 1
        while prev_dim < k:
            # common kernel of all products of j nilpotent factors
            rows = []
            for combo in itertools.product(range(r), repeat=j):
                prod = qidentity(k)
                for i in combo:
                    prod = qmat_mul(prod, nils[i])
                rows.extend(prod)
            null = qnullspace(qmat(rows)) if rows else []
            dim = len(null) if rows else k
            if dim > prev_dim:
                ranks.append(dim - prev_dim)
                prev_dim = dim
            j += 1
            if j > 2 * k + 2:
                raise AssertionError("filtration failed to exhaust a block")
    return tuple(ranks)


def is_sigma_unipotent(e: LogNablaModule, sigma: ExponentSet, face: Face) -> UnipotenceReport:
    """Sigma-unipotence along a face: sheared exponents, projected to
    (M/F)^gp tensor Q, must match images of Sigma (modulo the quotient
    lattice on annuli, exactly on disks/points).

    The shearing gauge has B_0 = I, so the sheared constant model is the
    residue; a non-constant module must pass shear's hypothesis checks.
    Annulus modules must be M-supported; the twist-reduce normalization is
    realized by the modulo-lattice comparison of the exponent images.
    """
    if not check_sd(sigma, "NI"):
        raise SingularSylvester("Sigma fails the (NI-D) facet condition")
    if not smat_is_constant_all(e):
        if e.interval_kind == "annulus":
            _require_monoid_support(e)
        _shear_hypotheses(e)
    decomp = e.decomposition
    proj, _d_f = _face_projection_matrix(e.monoid, face)
    modulo = e.interval_kind == "annulus"
    images = tuple(qmat_vec(proj, qvec(xi)) for xi in decomp.exponents)
    sigma_images = [qmat_vec(proj, qvec(s)) for s in sigma.elements]
    verdict = True
    for img in images:
        if not any(_vectors_match(img, s, modulo) for s in sigma_images):
            verdict = False
            break
    return UnipotenceReport(
        verdict=verdict,
        sheared_exponents=decomp.exponent_set(e.monoid),
        filtration_ranks=e.filtration_ranks,
        offending_face=None if verdict else face,
        face_images=images,
    )


def smat_is_constant_all(e: LogNablaModule) -> bool:
    return all(smat_is_constant(a) for a in e.matrices)


def _require_monoid_support(e: LogNablaModule) -> None:
    m = e.monoid
    for a in e.matrices:
        for key in smat_keys(a):
            if not membership(m, key):
                raise NotMonoidSupported(
                    "unipotence decision needs M-supported matrices; twist away "
                    "negative-weight terms first"
                )


def _decomposition_from_model(
    model: Sequence[QMatrix], embedding: Embedding, rank: int
) -> ResidueDecomposition:
    blocks = joint_decomposition(model, rank)
    eigentuples = tuple(eigs for eigs, _ in blocks)
    exps = tuple(embedding.inverse_coords(qvec(eigs)) for eigs, _ in blocks)
    bases = tuple(tuple(b) for _, b in blocks)
    return ResidueDecomposition(rank, eigentuples, exps, bases)


def _vectors_match(a: QVector, b: QVector, modulo_lattice: bool) -> bool:
    if len(a) != len(b):
        return False
    if modulo_lattice:
        return all((x - y).denominator == 1 for x, y in zip(a, b))
    return a == b


# ---------------------------------------------------------------------------
# D_l operators
# ---------------------------------------------------------------------------

def dl_constant_term(f: TruncatedSeries, l: int, embedding: Embedding) -> TruncatedSeries:
    """D_l = prod_i prod_{0<|j|<=l} (d_i - j)/j applied termwise; kills every
    tracked t^m with 0 < |m_i| <= l and fixes constants."""
    out = {}
    for k, c in f.terms:
        coords = embedding.coords(k)
        factor = Fraction(1)
        for mi in coords:
            for j in range(1, l + 1):
                factor *= Fraction(mi - j, j) * Fraction(mi + j, -j)
        if factor != 0:
            out[k] = c * factor
    return series(f.monoid, f.weighting, out, f.truncation, f.annulus, validate=False)


def _require_constant_model(e: LogNablaModule) -> tuple[QMatrix, ...]:
    if not smat_is_constant_all(e):
        raise NonConstantModel("D_l projections require a constant (U_I-type) module")
    return residue(e)


def _poly_eval_matrix(coeffs: Sequence[Fraction], a: QMatrix) -> QMatrix:
    n = len(a)
    acc = _zero_qmat(n)
    power = qidentity(n)
    for c in coeffs:
        if c != 0:
            acc = tuple(
                tuple(acc[i][j] + c * power[i][j] for j in range(n)) for i in range(n)
            )
        power = qmat_mul(power, a)
    return acc


def default_projection_polynomials(e: LogNablaModule, target_block: int = 0) -> list[list[Fraction]]:
    """Q_i = (minimal polynomial of res_i) / (x - xi_{i,target}): the image of
    prod Q_i(res_i) lands in the xi_target eigenspace."""
    res = _require_constant_model(e)
    decomp = e.decomposition
    target = decomp.eigentuples[target_block]
    polys = []
    for i in range(len(res)):
        # minimal polynomial exponent per eigenvalue of res_i: its nilpotency
        # index on the generalized eigenspace, the sum of the blocks sharing it
        factors: dict[Fraction, int] = {}
        for eigs, indices in zip(decomp.eigentuples, e.nilpotency_indices):
            factors[eigs[i]] = max(factors.get(eigs[i], 1), indices[i])
        poly = [Fraction(1)]
        for xi, idx in factors.items():
            mult = idx - 1 if xi == target[i] else idx
            for _ in range(mult):
                poly = _poly_mul(poly, [-xi, Fraction(1)])
        polys.append(poly)
    return polys


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def dl_projection(
    e: LogNablaModule,
    v: Sequence[TruncatedSeries],
    q_polys: Sequence[Sequence[Fraction]],
    l: int,
    target_block: int = 0,
) -> tuple[TruncatedSeries, ...]:
    """The generization operator D_l applied termwise: on t^m w the operator
    d_i acts as res_i + m_i."""
    res = _require_constant_model(e)
    decomp = e.decomposition
    n = e.rank
    emb = e.embedding
    q = max((max(indices, default=1) for indices in e.nilpotency_indices), default=1)
    target = decomp.eigentuples[target_block]
    keys = set()
    for f in v:
        keys.update(k for k, _ in f.terms)
    out_coeffs: list[dict] = [dict() for _ in range(n)]
    for k in sorted(keys):
        vec = qvec([f.coeff(k) for f in v])
        coords = emb.coords(k)
        op = qidentity(n)
        for i in range(emb.r):
            shifted = tuple(
                tuple(res[i][a][b] + (coords[i] if a == b else 0) for b in range(n))
                for a in range(n)
            )
            op = qmat_mul(op, _poly_eval_matrix(q_polys[i], shifted))
            for blk, eigs in enumerate(decomp.eigentuples):
                xik = eigs[i]
                for j in range(1, l + 1):
                    den1 = Fraction(j) - (target[i] - xik)
                    den2 = Fraction(j) + (target[i] - xik)
                    if den1 == 0 or den2 == 0:
                        raise DenominatorVanishes(
                            "j +- (xi_1 - xi_k) vanishes: NI hypothesis violated"
                        )
                    num1 = qmat_sub(qmat_scale(Fraction(j) + xik, qidentity(n)), shifted)
                    num2 = qmat_add(qmat_scale(Fraction(j) - xik, qidentity(n)), shifted)
                    pair = qmat_scale(Fraction(1) / (den1 * den2), qmat_mul(num1, num2))
                    for _ in range(q):
                        op = qmat_mul(op, pair)
        img = qmat_vec(op, vec)
        for comp in range(n):
            if img[comp] != 0:
                out_coeffs[comp][k] = out_coeffs[comp].get(k, Fraction(0)) + img[comp]
    w0 = v[0]
    return tuple(
        series(w0.monoid, w0.weighting, out_coeffs[comp], w0.truncation, w0.annulus, validate=False)
        for comp in range(n)
    )


def dl_limit(
    e: LogNablaModule,
    v: Sequence[TruncatedSeries],
    q_polys: Sequence[Sequence[Fraction]],
    target_block: int = 0,
) -> QVector:
    """prod_i Q_i(res_i)(v_0): the H^0_{xi_1} witness; asserts the projection
    stabilizes to it once l exceeds every tracked coordinate."""
    res = _require_constant_model(e)
    decomp = e.decomposition
    n = e.rank
    zero = e.monoid.gp.zero()
    v0 = qvec([f.coeff(zero) for f in v])
    op = qidentity(n)
    for i in range(e.embedding.r):
        op = qmat_mul(op, _poly_eval_matrix(q_polys[i], res[i]))
    if _is_zero_qmat(op):
        raise ZeroProjection("projection polynomials annihilate the whole module")
    w = qmat_vec(op, v0)
    # membership in H^0_{xi_1}: res_i(w) = xi_{i,1} w
    target = decomp.eigentuples[target_block]
    for i in range(e.embedding.r):
        img = qmat_vec(res[i], w)
        if any(img[a] != target[i] * w[a] for a in range(n)):
            raise AssertionError("dl_limit output is not a residue eigenvector")
    # stabilization: for l beyond every tracked coordinate the projection is constant
    lmax = 0
    for f in v:
        for k, _ in f.terms:
            lmax = max(lmax, max((abs(c) for c in e.embedding.coords(k)), default=0))
    proj = dl_projection(e, v, q_polys, lmax, target_block)
    for comp in range(n):
        expected = {zero: w[comp]} if w[comp] != 0 else {}
        got = {k: c for k, c in proj[comp].terms}
        if got != expected:
            raise AssertionError("dl_projection does not stabilize to the limit")
    return w


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
    delta = embedding.rational_coords(
        tuple(a - b for a, b in zip(qvec(xi_prime), qvec(xi)))
    )
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

def _apply_partial(e: LogNablaModule, i: int, v: Sequence[TruncatedSeries]) -> tuple[TruncatedSeries, ...]:
    """(d_i + A^i) applied to a section vector."""
    emb = e.embedding
    n = e.rank
    out = []
    for comp in range(n):
        f = v[comp]
        coeffs = {k: Fraction(emb.coords(k)[i]) * c for k, c in f.terms}
        acc = series(f.monoid, f.weighting, coeffs, f.truncation, f.annulus, validate=False)
        for j in range(n):
            acc = series_add(acc, series_mul(e.matrices[i][comp][j], v[j]))
        out.append(acc)
    return tuple(out)


def log_convergence_check(
    e: LogNablaModule,
    a_prime: Radius,
    eta: Radius,
    depth: int,
    p: int = DEFAULT_PRIME,
) -> bool:
    """Bounded eta-nullity of P_k = (1/k!) prod_i prod_{j<k_i} (d_i - j) on the
    basis sections: no eta-weighted Gauss norm may exceed the |k| = 0 baseline."""
    if e.interval_kind not in ("disk", "point"):
        raise NotDiskModule("log-convergence is defined on disks and points")
    if eta.is_zero or eta.value_exponent() <= 0:
        raise ValueError("eta must lie in (0,1) as a p-power")
    from .weighted_series import gauss_norm

    q_eta = eta.value_exponent()
    n = e.rank
    m, w, t = e.monoid, e.weighting, e.truncation
    basis = []
    for comp in range(n):
        vec = [constant_series(m, w, 1 if j == comp else 0, t) for j in range(n)]
        basis.append(tuple(vec))

    def vec_valuation(vec) -> object:
        v = INF
        for f in vec:
            nr = gauss_norm(f, a_prime, p) if f.terms else None
            if nr is not None and nr.exponent is not INF and nr.exponent < v:
                v = nr.exponent
        return v

    for v in basis:
        base_val = vec_valuation(v)
        if base_val is INF:
            continue
        # enumerate multi-indices k with 1 <= |k| <= depth; the factors
        # (d_i - j) for different directions commute by integrability
        frontier = {tuple([0] * e.embedding.r): v}
        for level in range(1, depth + 1):
            new = {}
            for k, vec in frontier.items():
                for i in range(e.embedding.r):
                    kk = list(k)
                    kk[i] += 1
                    kk = tuple(kk)
                    if kk in new:
                        continue
                    shifted = _apply_partial(e, i, vec)
                    shifted = tuple(
                        series_sub(f, series_scale(Fraction(k[i]), g))
                        for f, g in zip(shifted, vec)
                    )
                    new[kk] = shifted
            frontier = new
            for k, vec in frontier.items():
                fact = Fraction(1)
                for ki in k:
                    for x in range(1, ki + 1):
                        fact *= x
                scaled = tuple(series_scale(Fraction(1) / fact, f) for f in vec)
                val = vec_valuation(scaled)
                if val is INF:
                    continue
                if val + level * q_eta < base_val:
                    return False
    return True
