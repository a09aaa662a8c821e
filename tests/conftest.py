"""Shared fixtures: the standard test monoids and connection builders."""

from __future__ import annotations

from fractions import Fraction

import pytest

from logmonoid import documents
from logmonoid import monoid_core as mc
from logmonoid import weighted_series as ws
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
