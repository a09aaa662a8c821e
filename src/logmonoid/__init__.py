"""logmonoid: exact computations with fine monoids, weighted series on
polyannuli, and log connections at finite truncation."""

from .abelian import AbelianGroup
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    DenominatorVanishes,
    HypothesisError,
    IrrationalExponent,
    LogMonoidError,
    NonCommutingResidues,
    NonInvertibleConstantTerm,
    NoPositiveFunctional,
    NotInGroupSpan,
    NotSemiSaturated,
    NotSubmonoid,
    NotSurjective,
    ParseError,
    SingularSylvester,
    SingularSystem,
    TorsionTarget,
    ZeroProjection,
)
from .log_connection import (
    Embedding,
    ExponentSet,
    LogNablaModule,
    ShearResult,
    UnipotenceReport,
    apply_ui,
    check_sd,
    dl_constant_term,
    dl_limit,
    dl_projection,
    exponents,
    facet_embedding,
    gauge_transform,
    homotopy_check,
    is_sigma_unipotent,
    log_convergence_check,
    residue,
    shear,
    twist_reduce,
    validate_integrability,
)
from .monoid_core import (
    Face,
    FineMonoid,
    MonoidHom,
    SectionData,
    divides,
    faces,
    facets,
    free_monoid,
    from_embedded,
    from_presentation,
    is_semi_saturated,
    is_sharp,
    is_saturated_bounded,
    is_vertical,
    localize,
    membership,
    quotient,
    saturation,
    section,
    sharp_quotient,
    units,
)
from .weighted_series import (
    Radius,
    TruncatedSeries,
    ValuationPoint,
    Weighting,
    default_weighting,
    gauss_norm,
    gauss_norm_interval,
    h_abs,
    h_minus,
    h_plus,
    point_in_polyannulus,
    saturation_invariance_check,
    series,
    series_add,
    series_invert,
    series_mul,
    valuation_point,
)

__version__ = "0.1.0"


def __getattr__(name):
    """Resolve `EnumerationBudget` on first use, so that a process which
    never touches the oracle (every CLI subcommand but selftest) does not
    import it."""
    if name == "EnumerationBudget":
        from .oracle import EnumerationBudget

        return EnumerationBudget
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
