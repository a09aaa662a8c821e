"""Shared fixtures: the standard test monoids and connection builders."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from logmonoid import cone, documents
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
from logmonoid.abelian import group_quotient
from logmonoid.qlin import qmat, qsolve, qvec
# the connection builders live with the selftest registry, which uses them too
from logmonoid.selftest import build_module, gauge_built_module  # noqa: F401


@pytest.fixture(autouse=True)
def cold_document_caches():
    """Every test parses its documents from cold caches, so counts of the
    Smith forms a parse builds do not depend on which tests ran before."""
    documents.clear_caches()


@pytest.fixture(scope="session")
def n1():
    return mc.free_monoid(1)


@pytest.fixture(scope="session")
def n2():
    return mc.free_monoid(2)


@pytest.fixture(scope="session")
def n3():
    return mc.free_monoid(3)


@pytest.fixture(scope="session")
def nm1():
    """N \\ {1} embedded as <2, 3>, with the ambient converter."""
    return mc.from_embedded([[2], [3]])


@pytest.fixture(scope="session")
def m_even():
    """{(a1, a2) in N^2 : a1 + a2 even} via the presentation e1 + e3 = 2 e2."""
    return mc.from_presentation(3, [((1, 0, 1), (0, 2, 0))])


@pytest.fixture(scope="session")
def torsion_monoid():
    """gp = Z + Z/2 from the relation 2x = 2y."""
    return mc.from_presentation(2, [((2, 0), (0, 2))])


@pytest.fixture(scope="session")
def z_monoid():
    m, _ = mc.from_embedded([[1], [-1]])
    return m


def build_series(monoid, weighting, terms, truncation, annulus=False):
    """terms: {free-tuple or (free, torsion): rational}."""
    coeffs = {}
    for key, c in terms.items():
        if key and isinstance(key[0], tuple):
            elt = monoid.gp.element(key[0], key[1])
        else:
            elt = monoid.element(key)
        coeffs[elt] = Fraction(c)
    return ws.series(monoid, weighting, coeffs, truncation, annulus=annulus)


def quotient_route_weighting(m):
    """The default weighting of m by the quotient route, for any monoid:
    M/M* by `group_quotient`, the LP on the quotient's generator vectors,
    and the functional solved again from the values.  The reference for a
    sharp monoid with torsion-free gp, which skips all three.  Returns
    (values, functional, denominator, numerators)."""
    q, project = group_quotient(m.gp, [m.generators[i] for i in sorted(mc.unit_generator_indices(m))])
    images = [project(g) for g in m.generators]
    zero_set = [i for i, g in enumerate(images) if q.is_zero(g)]
    positive_set = [i for i in range(len(images)) if i not in zero_set]
    lam = cone.support_functional([g[0] for g in images], zero_set, positive_set, q.free_rank)
    den = math.lcm(*(x.denominator for x in lam))
    values = tuple(sum(int(x * den) * y for x, y in zip(lam, g[0])) for g in images)
    functional = qsolve(qmat([[Fraction(x) for x in g[0]] for g in m.generators]), qvec(values))
    denominator = math.lcm(*(x.denominator for x in functional))
    return values, functional, denominator, tuple(int(x * denominator) for x in functional)


def face_quotient_route_semi_saturated(m):
    """Semi-saturatedness by the face-quotient route: a fresh `group_quotient`
    of gp by each face's generators, whose torsion invariants must all be
    empty.  The reference for `mc.is_semi_saturated`, which takes no face
    quotient."""
    return all(not group_quotient(m.gp, f.generators())[0].torsion_invariants for f in mc.faces(m))
