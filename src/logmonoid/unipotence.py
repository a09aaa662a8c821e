"""Sigma-unipotence of a log nabla-module along a face of its monoid.

`is_sigma_unipotent` compares the sheared exponents, projected to
(M/F)^gp tensor Q, with the images of Sigma, and reports the ranks of the
canonical filtration that the residues' nilpotent parts cut out on each
block (`_block_filtration_ranks`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple, Optional

from .errors import CertificationFailed, SDViolated
from .log_connection import ExponentSet, LogNablaModule, ResidueDecomposition, check_sd
from .monoid_core import Face
from .qlin import QVector, over_lcm, qrank
from .snf import mat_mul


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
