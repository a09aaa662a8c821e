"""Typed errors raised by the algebra kernels, and the constructor hook of
the records whose checks raise ValueError.

Every error that signals a violated mathematical hypothesis derives from
HypothesisError so the CLI can map them to a single exit code; a failed
self-check of a computed result is a CertificationFailed, which has its own.
"""

# Records are NamedTuples.  One that validates its fields subclasses a
# NamedTuple of them and checks in __new__ (a NamedTuple may not define
# __new__ itself).  namedtuple's `_make`, which `_replace` calls, builds
# through tuple.__new__, so such a record sets `_make = checked_make` to
# build through its constructor and its checks.
checked_make = classmethod(lambda cls, fields: cls(*fields))


class LogMonoidError(Exception):
    """Base class for all library errors."""


class ParseError(LogMonoidError):
    """Malformed input document."""


class BudgetExceeded(LogMonoidError):
    """A bounded enumeration ran out of budget before certifying an answer."""


class CertificationFailed(LogMonoidError):
    """A self-check of a computed result failed: the fault is in the program,
    not in the input."""


class HypothesisError(LogMonoidError):
    """A mathematical precondition of an algorithm is violated."""


class NoPositiveFunctional(HypothesisError):
    """The dual cone of a sharp quotient has no interior point (corrupted data)."""


class NotSubmonoid(HypothesisError):
    """A claimed submonoid contains an element outside the parent monoid."""


class NotSurjective(HypothesisError):
    """A monoid homomorphism required to be surjective is not."""


class TorsionTarget(HypothesisError):
    """The target group of a section computation has torsion."""


class NotTorsionFree(HypothesisError):
    """The group M^gp has torsion where a torsion-free group is required."""


class NotInGroupSpan(HypothesisError):
    """An element does not lie in the group generated by the monoid."""


class NotSemiSaturated(HypothesisError):
    """The monoid fails semi-saturatedness where it is required."""


class IrrationalExponent(HypothesisError):
    """A residue matrix has an eigenvalue outside the rationals (unsupported scope)."""


class NonCommutingResidues(HypothesisError):
    """The constant terms of the connection matrices do not commute."""


class NotIntegrable(HypothesisError):
    """The connection fails the integrability identity, so it cannot be sheared."""


class NotSharp(HypothesisError):
    """The monoid has nonzero units where a sharp monoid is required."""


class NotDiskModule(HypothesisError):
    """An operation defined on disk or point modules got an annulus module."""


class NotMonoidSupported(HypothesisError):
    """A connection matrix carries a term outside M where M-supported matrices are required."""


class NonConstantModel(HypothesisError):
    """An operation defined on constant (U_I-type) modules got a non-constant one."""


class NIViolated(HypothesisError):
    """A residue has two eigenvalues that differ by a nonzero integer: the
    connection is not locally (NI-D) in some coordinate, so it cannot be sheared."""


class SDViolated(HypothesisError):
    """Two elements of an exponent set Sigma have facet images that differ by a
    nonzero integer: Sigma fails (S-D), the facet form of (NI-D)."""


class SingularSystem(HypothesisError):
    """The oracle's full linear system is singular."""


class ZeroProjection(HypothesisError):
    """The chosen projection polynomials annihilate every section."""


class DenominatorVanishes(HypothesisError):
    """A denominator of the form j +- (xi - xi') or m_l + xi'_l - xi_l vanishes."""
