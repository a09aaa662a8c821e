"""Constant (U_I-type) log nabla-modules and what runs on them: `apply_ui`,
twisting and gauge transport, the generization operators D_l and the
homotopy operator of the Ext isomorphism.  D_l's factors are integer rows
over one denominator (`log_connection.RatMatrix`); Fractions are built only
for the reported Q_i, the D_l outputs and `twist_reduce`.  The homotopy
identity is checked on monomials t^m dlog t_w, in integers over one
denominator per monomial: both operators keep the key and the identity is
linear, so the monomials check every form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .abelian import Elt
from .coefficient_maps import CoefficientMap, _canonical, coefficient_map
from .errors import CertificationFailed, DenominatorVanishes, NonConstantModel, ZeroProjection
from .log_connection import Embedding, LogNablaModule, RatMatrix, map_product, smat_is_constant_all
from .monoid_core import Weighting
from .qlin import QVector, over_lcm, qmat, qvec
from .snf import identity, mat_mul, mat_vec

if TYPE_CHECKING:
    from .weighted_series import TruncatedSeries


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
    phi, dphi = _phi(embedding, xi_twist) if xi_twist is not None else ((0,) * len(constant_model), 1)
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


def _phi(embedding: Embedding, xi: QVector) -> tuple[tuple[int, ...], int]:
    """phi(xi) as integers over the least common denominator of xi."""
    (v,), den = over_lcm([qvec(xi)])
    return embedding.phi.rational(v, den)


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
    phi_xi, den = _phi(embedding, xi)
    y, dy = embedding.phi.inverse.rational([x // den for x in phi_xi])
    if all(c % dy == 0 for c in y):
        shift = tuple(c // dy for c in y)
        return tuple(a - b for a, b in zip(xi, shift)), embedding.monoid.gp.element(shift)
    return xi, embedding.monoid.gp.zero()


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

class HomotopyReport(NamedTuple):
    """Per test monomial, the residual's nonzero (wedge, numerator) pairs over one positive denominator."""

    residuals: tuple[tuple[tuple[tuple[tuple[int, ...], int], ...], int], ...]

    @property
    def all_zero(self) -> bool:
        return all(not pairs for pairs, _ in self.residuals)


def _insertion(terms: list, c: Sequence[int]) -> list:
    """den nabla_F on [(coefficient, wedge)] at one key: dlog t_i ^ each term, weight c_i."""
    return [((-1) ** sum(j < i for j in w) * c[i] * x, tuple(sorted((*w, i))))
            for x, w in terms for i in range(len(c)) if i not in w]


def _contraction(terms: list, l: int) -> list:
    """c_l / den phi on [(coefficient, wedge)] at one key: contraction by dlog t_l."""
    return [((-1) ** w.index(l) * x, tuple(j for j in w if j != l)) for x, w in terms if l in w]


def homotopy_check(
    embedding: Embedding,
    xi: QVector,
    xi_prime: QVector,
    monomials: Sequence[tuple[Elt, tuple[int, ...]]],
) -> HomotopyReport:
    """The residual of nabla_F phi + phi nabla_F - (id - g1 g2), F = C_{xi' - xi},
    on each monomial t^m dlog t_w given as (m, w), w increasing.  At m != 0,
    with c = den (m + phi(xi' - xi)) and l the first nonzero coordinate of m,
    phi is den / c_l times the contraction by dlog t_l, so c_l times the
    residual is integral.  DenominatorVanishes where c_l = 0; at a torsion
    key phi is 0 and the residual is -t^m dlog t_w."""
    delta, den = _phi(embedding, tuple(a - b for a, b in zip(qvec(xi_prime), qvec(xi))))
    residuals = []
    for key, w in monomials:
        coords = embedding.coords(key)
        l = next((i for i, x in enumerate(coords) if x), None)
        if l is None:  # phi is 0, and id - g1 g2 kills only the constants
            residuals.append(((), 1) if embedding.monoid.gp.is_zero(key) else (((w, -1),), 1))
            continue
        c = [den * x + y for x, y in zip(coords, delta)]
        if c[l] == 0:
            raise DenominatorVanishes("m_l + xi'_l - xi_l = 0: NI hypothesis violated")
        one, out = [(1, w)], {}
        for x, v in _insertion(_contraction(one, l), c) + _contraction(_insertion(one, c), l) + [(-c[l], w)]:
            out[v] = out.get(v, 0) + x
        g = math.gcd(c[l], *out.values()) * (1 if c[l] > 0 else -1)
        residuals.append((tuple((v, x // g) for v, x in sorted(out.items()) if x), c[l] // g))
    return HomotopyReport(tuple(residuals))
