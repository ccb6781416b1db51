"""Invariant metrics with prescribed Ricci curvature on compact homogeneous spaces.

Given a space described by isotropy dimensions, Killing coefficients and
structure constants, plus a prescribed invariant tensor T, the toolkit
decides whether the variational criterion guarantees an invariant metric g
with Ric g = cT for some c > 0, and numerically produces and verifies such a
metric when it does.
"""

from .curvature import (
    RicciCoefficients,
    hat_scalar_curvature,
    metric_trace_of_T,
    ricci_coefficients,
    scalar_curvature,
    scalar_gradient,
)
from .sigma_apical import (
    ExistenceVerdict,
    NoProperSubalgebraError,
    SigmaContext,
    SigmaResult,
    SigmaSource,
    VerdictStatus,
    existence_check,
    find_T_apical,
    sigma,
    sigma_irreducible,
    wallach_existence_check,
)
from .solver import (
    OptimizationReport,
    RestartOutcomes,
    SolverError,
    SolverOptions,
    VerificationResult,
    escape_curve_S,
    maximize_S_on_MT,
    maximize_hatS_on_slice,
    verify_prescribed_ricci,
)
from .space_model import (
    HomogeneousSpaceSpec,
    SpecError,
    StructureConstantTable,
    SubalgebraIndexSet,
    builtin_names,
    builtin_space,
    load_space_spec,
    space_spec_to_document,
    trace_Q_restricted,
    wallach_space,
)
from .subalgebras import (
    SubalgebraLattice,
    intermediate_subalgebras,
    is_bracket_closed,
    maximal_within,
)

__version__ = "0.1.0"

__all__ = [
    "HomogeneousSpaceSpec",
    "SubalgebraIndexSet",
    "StructureConstantTable",
    "SpecError",
    "load_space_spec",
    "space_spec_to_document",
    "builtin_space",
    "builtin_names",
    "wallach_space",
    "trace_Q_restricted",
    "scalar_curvature",
    "hat_scalar_curvature",
    "metric_trace_of_T",
    "scalar_gradient",
    "ricci_coefficients",
    "RicciCoefficients",
    "SubalgebraLattice",
    "is_bracket_closed",
    "intermediate_subalgebras",
    "maximal_within",
    "SigmaSource",
    "SigmaResult",
    "VerdictStatus",
    "ExistenceVerdict",
    "SigmaContext",
    "NoProperSubalgebraError",
    "sigma_irreducible",
    "sigma",
    "find_T_apical",
    "existence_check",
    "wallach_existence_check",
    "SolverError",
    "SolverOptions",
    "OptimizationReport",
    "RestartOutcomes",
    "VerificationResult",
    "maximize_hatS_on_slice",
    "maximize_S_on_MT",
    "verify_prescribed_ricci",
    "escape_curve_S",
    "__version__",
]
