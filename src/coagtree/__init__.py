"""Coagulation with merger histories: simulation, mean-field solving, and the
limit historical measure."""

from .kernels import Kernel, builtin, check_assumptions, gelation_time
from .limit import (
    LimitFunctionalResult,
    functional,
    pushforward_check,
)
from .lln import (
    ConvergenceReport,
    ExperimentPlan,
    jump_density_test,
    run_lln,
    survival_test,
    tightness_diagnostic,
)
from .simulate import (
    EmpiricalHistoricalMeasure,
    EventLog,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    empirical_measure,
    evaluate_functional,
    rng_for,
    simulate,
)
from .smoluchowski import MassSpectrum, SolutionPath, solve
from .trees import (
    LEAF,
    TreeShape,
    parse,
    serialize,
    shape_node,
    shapes_up_to,
    symmetry_exponent,
)

__version__ = "0.1.0"
