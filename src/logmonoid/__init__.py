"""logmonoid: exact computations with fine monoids, weighted series on
polyannuli, and log connections at finite truncation.

Each public name is imported from its home module on first access (PEP
562), so `import logmonoid` loads no submodule and a process loads only
the modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "AbelianGroup": "abelian",
    "Radius": "coefficient_maps",
    **dict.fromkeys((
        "apply_ui", "dl_constant_term", "dl_limit", "dl_projection", "gauge_transform", "homotopy_check",
        "twist_reduce",
    ), "constant_models"),
    **dict.fromkeys((
        "BudgetExceeded", "CertificationFailed", "DenominatorVanishes", "HypothesisError", "IrrationalExponent",
        "LogMonoidError", "NIViolated", "NonCommutingResidues", "NonConstantModel", "NoPositiveFunctional",
        "NotDiskModule", "NotInGroupSpan", "NotIntegrable", "NotMonoidSupported", "NotSemiSaturated", "NotSharp",
        "NotSubmonoid", "NotSurjective", "NotTorsionFree", "ParseError", "SDViolated", "SingularSystem",
        "TorsionTarget", "ZeroProjection",
    ), "errors"),
    **dict.fromkeys((
        "Embedding", "ExponentSet", "LogNablaModule", "check_sd", "exponents", "facet_embedding", "residue",
        "validate_integrability",
    ), "log_connection"),
    "log_convergence_check": "log_convergence",
    **dict.fromkeys((
        "Face", "FineMonoid", "MonoidHom", "SectionData", "Weighting", "divides", "faces", "facets", "free_monoid",
        "from_embedded", "from_presentation", "is_semi_saturated", "is_sharp", "is_saturated_bounded",
        "membership", "saturation", "section", "units",
    ), "monoid_core"),
    "EnumerationBudget": "oracle",
    **dict.fromkeys(("ShearResult", "shear"), "shearing"),
    **dict.fromkeys(("UnipotenceReport", "is_sigma_unipotent"), "unipotence"),
    **dict.fromkeys((
        "TruncatedSeries", "ValuationPoint", "default_weighting", "gauss_norm", "gauss_norm_interval", "h_abs",
        "h_plus", "point_in_polyannulus", "saturation_invariance_check", "series", "series_mul",
        "valuation_point",
    ), "weighted_series"),
}
__all__ = list(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
