"""Bergman kernels with respect to coefficient functionals, minimal L2
integrals under ideal constraints, and strong-openness effectiveness
quantities on explicitly integrable domains.

The names below load lazily (PEP 562): ``import berglab`` imports no
submodule, and the first lookup of a name imports the submodule that
defines it and binds the name here, so later lookups are plain attribute
reads.  A command-line process thus loads only what its command uses.
"""

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "bergman": (
        "KernelRatioResult",
        "LadderResult",
        "ProjectionResult",
        "TriangularBasis",
        "b_circle",
        "density_sequence",
        "exhaustion_limit",
        "kernel_at_origin",
        "krull_ladder",
        "minimal_l2",
        "riesz_representative",
        "routes_agree",
        "triangular_basis",
    ),
    "domains": (
        "DiagonalDomain",
        "ExhaustionSequence",
        "MomentDomain",
        "ToricWeight",
        "TruncatedWeight",
        "domain_from_json",
        "moment_matrix",
        "sublevel_domain",
        "weighted_integral",
    ),
    "errors": (
        "BerglabError",
        "CrossCheckError",
        "DimensionMismatchError",
        "DivergentIntegralError",
        "ImproperIdealError",
        "NotNestedError",
        "QuadratureError",
        "SingularMatrixError",
        "SupportBoundError",
        "ZeroFunctionalError",
    ),
    "exactnum": ("PiValue", "QQi", "value_float"),
    "ideals": (
        "IdealPresentation",
        "JetIdeal",
        "MonomialIdeal",
        "annihilator",
        "contains",
        "jet_ideal",
        "monomial_jet_ideal",
        "multiplier_ideal",
        "multiplier_ideal_plus",
        "next_jump",
    ),
    "indices": ("degree", "indices_of_degree", "indices_up_to"),
    "jets": ("Functional", "Jet", "jet_multiply", "pair"),
    "sop": (
        "CseLimitResult",
        "EffectivenessReport",
        "MinimizationReport",
        "effectiveness_report",
        "jumping_number",
        "membership_threshold",
        "verify_corollary_min",
        "xi_cse_combinatorial",
        "xi_cse_limit",
    ),
    "suites": ("SuiteResult", "run_suite"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    # an unknown name raises AttributeError, so that ``from berglab import
    # bergman`` goes on to import the submodule
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
