"""Bergman kernels with respect to coefficient functionals, minimal L2
integrals under ideal constraints, and strong-openness effectiveness
quantities on explicitly integrable domains."""

from .bergman import (
    KernelRatioResult,
    LadderResult,
    ProjectionResult,
    TriangularBasis,
    b_circle,
    density_sequence,
    exhaustion_limit,
    extremal_functional,
    kernel_at_origin,
    krull_ladder,
    minimal_l2,
    riesz_representative,
    routes_agree,
    triangular_basis,
)
from .domains import (
    DiagonalDomain,
    ExhaustionSequence,
    MomentDomain,
    ToricWeight,
    TruncatedWeight,
    domain_from_json,
    moment_matrix,
    monomial_norm,
    sublevel_domain,
    truncate_weight,
    weighted_integral,
)
from .errors import (
    BerglabError,
    DimensionMismatchError,
    DivergentIntegralError,
    ImproperIdealError,
    NotNestedError,
    QuadratureError,
    SingularMatrixError,
    SupportBoundError,
    UnboundedFunctionalError,
    ZeroFunctionalError,
)
from .exactnum import PiValue, QQi, value_float
from .ideals import (
    IdealPresentation,
    JetIdeal,
    MonomialIdeal,
    annihilator,
    contains,
    jet_ideal,
    jumping_numbers,
    monomial_jet_ideal,
    multiplier_ideal,
    multiplier_ideal_plus,
    next_jump,
)
from .indices import compare, degree, indices_of_degree, indices_up_to, sort_indices
from .jets import Functional, Jet, jet_multiply, pair
from .sop import (
    CseLimitResult,
    EffectivenessReport,
    MinimizationReport,
    effectiveness_report,
    jumping_number,
    membership_threshold,
    verify_corollary_min,
    xi_cse_combinatorial,
    xi_cse_limit,
)
from .suites import SuiteResult, run_suite

__version__ = "0.1.0"
