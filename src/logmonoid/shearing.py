"""Shearing: the order-by-order gauge of a log nabla-module to its constant model.

`shear` solves (g + m_i id)(B_m) = RHS order by order in the weight
(`coefficient_maps.weight_order`) in each residue's eigenbasis
(`qlin.sylvester_solver`), certifies integrability in all directions as it
goes, and certifies the gauge's operator-norm bound in valuation form; a
failed self-check raises `CertificationFailed`.  B^-1 is computed when a
`ShearResult`'s `gauge_inverse_map` is first read.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional

from .abelian import Elt
from .coefficient_maps import (
    DEFAULT_PRIME, CoefficientMap, Radius, _canonical, _reduced, _rows, coefficient, gauss_valuation, inverse_map,
    weight_order,
)
from .errors import CertificationFailed, NotDiskModule, NotIntegrable
from .log_connection import _NOT_INTEGRABLE, LogNablaModule, RatMatrix, _fractions, _shear_hypotheses, map_product
from .monoid_core import Weighting
from .qlin import (
    QMatrix, commutator_rows, eigenbasis_sylvester, padic_valuation, solve_map, sylvester_solve, sylvester_solver,
)
from .snf import mat_mul

if TYPE_CHECKING:
    from .weighted_series import SeriesMatrix


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
    pinv, dinv, _ = solve_map(p)
    conj = mat_mul(mat_mul(pinv, b), p)
    nil = tuple(tuple(x - eigs[i] * dinv * (i == j) for j, x in enumerate(row)) for i, row in enumerate(conj))
    return eigs, (p, den), (tuple(tuple(x * den for x in row) for row in pinv), dinv), (nil, dinv * d)


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
