"""Weighted monoids, truncated monoid-graded series, Gauss norms, polyannuli.

Coefficients are exact rationals carrying the p-adic valuation for a
configurable prime; radii are powers p^{-q} with q rational (q = None
encodes radius 0), so every norm comparison happens in valuation form.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .abelian import Elt
from .errors import (
    NonInvertibleConstantTerm,
    SaturationIncomplete,
)
from .monoid_core import (
    FineMonoid,
    default_weighting as _default_values,
    membership,
    saturation,
)
from .qlin import INF, over_lcm, padic_valuation, qvec

DEFAULT_PRIME = 5


class _WeightingFields(NamedTuple):
    monoid: FineMonoid
    values: tuple[int, ...]


class Weighting(_WeightingFields):
    """h: M -> N vanishing exactly on the units."""

    __slots__ = ()

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


def default_weighting(m: FineMonoid) -> Weighting:
    """A weighting synthesized from an interior point of the dual cone."""
    return Weighting(m, _default_values(m))


class Radius(NamedTuple):
    """The radius p^{-q}; q = None encodes radius 0.  All four orderings
    are by radius, never the tuple order of q."""

    q: Optional[Fraction]

    @staticmethod
    def p_power(q) -> "Radius":
        return Radius(Fraction(q))

    @staticmethod
    def one() -> "Radius":
        return Radius(Fraction(0))

    @staticmethod
    def zero() -> "Radius":
        return Radius(None)

    @property
    def is_zero(self) -> bool:
        return self.q is None

    def value_exponent(self) -> Fraction:
        if self.q is None:
            raise ValueError("radius 0 has no finite exponent")
        return self.q

    def __le__(self, other: "Radius") -> bool:
        if self.q is None:
            return True
        if other.q is None:
            return False
        return self.q >= other.q

    def __lt__(self, other: "Radius") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "Radius") -> bool:
        return other <= self

    def __gt__(self, other: "Radius") -> bool:
        return other < self

    def mix(self, other: "Radius", c: Fraction) -> "Radius":
        """self^c * other^(1-c) for 0 <= c <= 1."""
        if self.q is None or other.q is None:
            if c == 0:
                return other
            if c == 1:
                return self
            if self.q is None or other.q is None:
                return Radius(None)
        return Radius(c * self.q + (1 - c) * other.q)


# ---------------------------------------------------------------------------
# h+, h-, |h|
# ---------------------------------------------------------------------------

def h_plus(m: FineMonoid, h: Weighting, g: Elt) -> int:
    """min{h(y) : y in M, y - g in M} by weight-ordered search."""
    return m.index.weighted(h.values).h(g)[1]


def h_minus(m: FineMonoid, h: Weighting, g: Elt) -> int:
    hg, hp, _ = m.index.weighted(h.values).h(g)
    return hp - hg


def h_abs(m: FineMonoid, h: Weighting, g: Elt) -> int:
    return m.index.weighted(h.values).h(g)[2]


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class TruncatedSeries(NamedTuple):
    """Finitely supported coefficient map M^gp -> Q, exact up to |h| <= truncation."""

    monoid: FineMonoid
    weighting: Weighting
    terms: tuple[tuple[Elt, Fraction], ...]
    truncation: int
    annulus: bool = False

    def coeff(self, g: Elt) -> Fraction:
        for k, c in self.terms:
            if k == g:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[Elt, Fraction]:
        return dict(self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.coeff(self.monoid.gp.zero())

    def is_zero(self) -> bool:
        return not self.terms


def series(
    monoid: FineMonoid,
    weighting: Weighting,
    coefficients: dict[Elt, Fraction] | Sequence[tuple[Elt, Fraction]],
    truncation: int,
    annulus: bool = False,
    validate: bool = True,
) -> TruncatedSeries:
    items = coefficients.items() if isinstance(coefficients, dict) else coefficients
    h = monoid.index.weighted(weighting.values).h
    kept = []
    for k, c in items:
        c = Fraction(c)
        if c == 0:
            continue
        hk, hp, habs = h(k)
        if habs > truncation:
            continue
        if validate and not annulus and hp > hk:
            raise ValueError("disk series cannot carry terms with h^-(m) > 0")
        kept.append((habs, k, c))
    kept.sort(key=lambda t: t[:2])
    return TruncatedSeries(monoid, weighting, tuple((k, c) for _, k, c in kept), truncation, annulus)


def constant_series(monoid, weighting, c, truncation, annulus=False) -> TruncatedSeries:
    return series(monoid, weighting, {monoid.gp.zero(): Fraction(c)}, truncation, annulus)


def monomial(monoid, weighting, g: Elt, truncation, c=1, annulus=False) -> TruncatedSeries:
    return series(monoid, weighting, {g: Fraction(c)}, truncation, annulus)


def _check_compatible(f: TruncatedSeries, g: TruncatedSeries):
    if f.monoid != g.monoid or f.weighting != g.weighting:
        raise ValueError("series live on different weighted monoids")


def _termwise(op, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f op g term by term, in one pass over g's terms."""
    _check_compatible(f, g)
    out = f.as_dict()
    for k, c in g.terms:
        out[k] = op(out.get(k, 0), c)
    return series(
        f.monoid, f.weighting, out, min(f.truncation, g.truncation),
        f.annulus or g.annulus, validate=False,
    )


def series_add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return _termwise(operator.add, f, g)


def series_scale(c, f: TruncatedSeries) -> TruncatedSeries:
    return series(
        f.monoid, f.weighting, {k: Fraction(c) * v for k, v in f.terms},
        f.truncation, f.annulus, validate=False,
    )


def series_sub(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return _termwise(operator.sub, f, g)


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    _check_compatible(f, g)
    t = min(f.truncation, g.truncation)
    add = f.monoid.gp.add
    h = f.monoid.index.weighted(f.weighting.values).h
    # each factor as integers over one denominator: one Fraction per output term
    (left,), df = over_lcm([[c for _, c in f.terms]])
    (nums,), dg = over_lcm([[c for _, c in g.terms]])
    # h is additive and h <= |h|, so with g's terms in h order every pair
    # after the first with h(k1) + h(k2) > t leaves the truncation too
    right = sorted(((h(k)[0], k, c) for (k, _), c in zip(g.terms, nums)), key=lambda term: term[0])
    out: dict[Elt, int] = {}
    for (k1, _), c1 in zip(f.terms, left):
        room = t - h(k1)[0]
        for h2, k2, c2 in right:
            if h2 > room:
                break
            k = add(k1, k2)
            if h(k)[2] > t:
                continue
            out[k] = out.get(k, 0) + c1 * c2
    den = df * dg
    return series(
        f.monoid, f.weighting, {k: Fraction(c, den) for k, c in out.items() if c}, t,
        f.annulus or g.annulus, validate=False,
    )


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    """Inverse by Neumann series in the positive-weight part.

    Requires the weight-zero part of f to be a single invertible monomial
    c*t^u (u a unit of M); on sharp monoids that means a nonzero constant term.
    """
    m, w, t = f.monoid, f.weighting, f.truncation
    zero_part = [(k, c) for k, c in f.terms if h_abs(m, w, k) == 0]
    if len(zero_part) != 1 or zero_part[0][1] == 0:
        raise NonInvertibleConstantTerm("weight-zero part must be a single nonzero monomial")
    u, c = zero_part[0]
    # normalized = (t^-u / c) * f = 1 + (positive weight terms)
    shifted = series_mul(monomial(m, w, m.gp.neg(u), t, Fraction(1, 1) / c, f.annulus), f)
    one = constant_series(m, w, 1, t, f.annulus)
    g = series_sub(one, shifted)  # g has min weight >= 1
    acc = one
    power = one
    for _ in range(t):
        power = series_mul(power, g)
        if power.is_zero():
            break
        acc = series_add(acc, power)
    return series_mul(monomial(m, w, m.gp.neg(u), t, Fraction(1, 1) / c, f.annulus), acc)


def series_equal(f: TruncatedSeries, g: TruncatedSeries) -> bool:
    """Equality of all tracked coefficients up to the common truncation."""
    t = min(f.truncation, g.truncation)
    keys = {k for k, _ in f.terms} | {k for k, _ in g.terms}
    for k in keys:
        if h_abs(f.monoid, f.weighting, k) > t:
            continue
        if f.coeff(k) != g.coeff(k):
            return False
    return True


# ---------------------------------------------------------------------------
# Gauss norms
# ---------------------------------------------------------------------------

class NormResult(NamedTuple):
    """Norm p^{-exponent}; exponent INF means the zero series."""

    exponent: object  # Fraction or INF
    stale: bool


def gauss_norm(f: TruncatedSeries, a: Radius, p: int = DEFAULT_PRIME) -> NormResult:
    """|f|_a = sup |c_m| a^{h(m)} with h the group extension of the weighting."""
    if a.is_zero:
        raise ValueError("gauss norm needs a positive radius")
    q = a.value_exponent()
    best = INF
    stale = False
    for k, c in f.terms:
        v = padic_valuation(c, p) + q * f.weighting(k)
        if v < best:
            best = v
            stale = h_abs(f.monoid, f.weighting, k) == f.truncation
        elif v == best and h_abs(f.monoid, f.weighting, k) == f.truncation:
            stale = True
    return NormResult(best, stale)


def gauss_norm_interval(
    f: TruncatedSeries, a: Radius, b: Radius, p: int = DEFAULT_PRIME
) -> NormResult:
    """sup |c_m| a^{-h^-(m)} b^{h^+(m)} (the annulus seminorm of the section ring)."""
    if a.is_zero or b.is_zero:
        raise ValueError("interval norm needs positive radii")
    qa, qb = a.value_exponent(), b.value_exponent()
    best = INF
    stale = False
    for k, c in f.terms:
        hp = h_plus(f.monoid, f.weighting, k)
        hm = h_minus(f.monoid, f.weighting, k)
        v = padic_valuation(c, p) - qa * hm + qb * hp
        if v < best:
            best = v
            stale = h_abs(f.monoid, f.weighting, k) == f.truncation
        elif v == best and h_abs(f.monoid, f.weighting, k) == f.truncation:
            stale = True
    return NormResult(best, stale)


# ---------------------------------------------------------------------------
# valuation points and polyannuli
# ---------------------------------------------------------------------------

def _inf_sum(pairs) -> object:
    """Sum of c*v with INF-absorbing arithmetic (c > 0 throughout)."""
    acc = Fraction(0)
    for c, v in pairs:
        if v is INF or v == INF:
            return INF
        acc += Fraction(c) * v
    return acc


class _ValuationPointFields(NamedTuple):
    monoid: FineMonoid
    log_values: tuple[object, ...]  # Fraction or INF


class ValuationPoint(_ValuationPointFields):
    """-log_p |t^g(x)| per generator; INF encodes t^g(x) = 0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        m = self.monoid
        if len(self.log_values) != len(m.generators):
            raise ValueError("one valuation per generator required")
        for rel in m.index.span.relations():
            lhs = _inf_sum((c, v) for c, v in zip(rel, self.log_values) if c > 0)
            rhs = _inf_sum((-c, v) for c, v in zip(rel, self.log_values) if c < 0)
            if (lhs is INF) != (rhs is INF):
                raise ValueError("valuations inconsistent with a monoid relation")
            if lhs is not INF and lhs != rhs:
                raise ValueError("valuations inconsistent with a monoid relation")
        return self


def valuation_point(m: FineMonoid, values: Sequence) -> ValuationPoint:
    vals = tuple(INF if v is INF or v == INF else Fraction(v) for v in values)
    return ValuationPoint(m, vals)


def vertex_point(m: FineMonoid, h: Weighting) -> ValuationPoint:
    vals = [Fraction(0) if v == 0 else INF for v in h.values]
    return ValuationPoint(m, tuple(vals))


def point_in_polyannulus(x: ValuationPoint, h: Weighting, a: Radius, b: Radius) -> bool:
    """a^{h(g)} <= |t^g(x)| <= b^{h(g)} on generators (sufficient by the
    generator remark)."""
    if not a <= b:
        raise ValueError("interval must satisfy a <= b")
    for v, hv in zip(x.log_values, h.values):
        if hv == 0:
            if v is INF or v != 0:
                return False
            continue
        # upper bound |t^g| <= b^h: v >= q_b * h
        if b.is_zero:
            if v is not INF:
                return False
        else:
            if v is not INF and v < b.value_exponent() * hv:
                return False
        # lower bound a^h <= |t^g|: v <= q_a * h (INF fails for a > 0)
        if not a.is_zero:
            if v is INF or v > a.value_exponent() * hv:
                return False
    return True


# ---------------------------------------------------------------------------
# saturation invariance of polyannuli
# ---------------------------------------------------------------------------

def saturation_invariance_check(
    m: FineMonoid,
    a: Radius,
    b: Radius,
    sample_points: Sequence[ValuationPoint],
    weight_bound: int = 6,
) -> bool:
    """A_M[a,b] = A_{M^sat}[a,b] for 0 < a <= b, plus the h+ comparison
    h^{sat,+}(m) <= h^+(m) <= h^{sat,+}(m) + h(s) with the explicit
    correction element s."""
    if a.is_zero:
        raise ValueError("saturation invariance needs 0 < a")
    if not a <= b:
        raise ValueError("interval must satisfy a <= b")
    sat = saturation(m)
    h = Weighting(m, _default_values(m))
    hsat = Weighting(sat, sat.weighting)

    # membership agreement on the sample points
    for x in sample_points:
        in_m = point_in_polyannulus(x, h, a, b)
        if any(v is INF for v in x.log_values):
            in_sat = False  # a > 0 excludes vanishing coordinates on both sides
        else:
            lam = _valuation_functional(m, x)
            vals = tuple(
                sum((lam[i] * g[0][i] for i in range(len(lam))), Fraction(0))
                for g in sat.generators
            )
            in_sat = point_in_polyannulus(ValuationPoint(sat, vals), hsat, a, b)
        if in_m != in_sat:
            return False

    # correction element s = sum (n_i - 1) m'_i over the new saturation generators
    # (m is sharp by the saturation precondition, so the ball lives in m's own coordinates)
    gp = m.gp
    s = gp.zero()
    ball = m.index.weighted(_default_values(m)).upto(weight_bound * weight_bound)
    for g in sat.generators:
        if membership(m, g):
            continue
        n_g = None
        for n in range(2, weight_bound * weight_bound + 1):
            if membership(m, gp.scale(n, g)):
                n_g = n
                break
        if n_g is None:
            raise SaturationIncomplete("no multiple of a saturation generator found in M")
        mprime = None
        for y in ball:
            if membership(m, gp.add(g, y)):
                mprime = y
                break
        if mprime is None:
            raise SaturationIncomplete("no correction element found within the bound")
        s = gp.add(s, gp.scale(n_g - 1, mprime))
    hs = int(h(s))

    # h+ comparison on a grid of group elements
    small = min(weight_bound, 4)
    sat_ball = sat.index.weighted(sat.weighting).upto(small)
    seen = set()
    for x in sat_ball:
        for y in sat_ball:
            g = gp.sub(x, y)
            if g in seen:
                continue
            seen.add(g)
            hp_m = h_plus(m, h, g)
            hp_sat = h_plus(sat, hsat, g)
            if not (hp_sat <= hp_m <= hp_sat + hs):
                return False
    return True


def _valuation_functional(m: FineMonoid, x: ValuationPoint):
    from .qlin import qmat, qsolve

    rows = [[Fraction(v) for v in g[0]] for g in m.generators]
    sol = qsolve(qmat(rows), qvec([Fraction(v) for v in x.log_values]))
    if sol is None:
        raise ValueError("point valuations are not induced by a linear functional")
    return sol
