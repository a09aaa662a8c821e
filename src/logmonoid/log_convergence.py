"""Log-convergence of a log nabla-module on a disk or point: the transfer
hypothesis as a bounded verdict (`log_convergence_check`)."""

from __future__ import annotations

import math

from .coefficient_maps import DEFAULT_PRIME, Radius, gauss_valuation
from .errors import NotDiskModule, NotIntegrable
from .log_connection import LogNablaModule, _nabla, validate_integrability


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
