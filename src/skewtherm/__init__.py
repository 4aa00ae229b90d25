"""Transfer-operator thermodynamics for skew products with intermittent fibers."""

from .base import BasePoint, circle_distance
from .errors import (
    CapacityExhaustedError,
    ConeEscapeError,
    ConeViolationError,
    ConfigError,
    DegenerateFitError,
    EmptyGoodSetError,
    HypothesisViolatedError,
    NoConvergenceError,
    NonpositiveDenominatorError,
    NonpositiveFunctionError,
    SkewthermError,
)
from .fibers import (
    HypothesisConstants,
    MpFamily,
    branch_boundary,
    estimate_constants,
    fiber_forward,
    fiber_inverse_branches,
    preimage_tree,
)
from .config import ExperimentConfig
from .cones import (
    ConeParams,
    ContractionReport,
    hilbert_distance,
    holder_seminorm,
    image_diameter,
    in_cone,
)
from .gridfn import GridFn, GridFn2D
from .measures import (
    RpfSolution,
    conditional_integrate,
    eigen_equation_residual,
    fiber_integrate,
    fiber_measure,
    intertwine_residual,
    measure_continuity_probe,
    rpf_base_solve,
    rpf_full_solve,
)
from .operators import (
    apply_base_operator,
    apply_fiber_operator,
    apply_full_operator,
)
from .phi import (
    HolderEstimate,
    PhiTable,
    compute_phi,
    estimate_holder,
    fit_convergence_rate,
    phi_evaluator,
)
from .potential import TrigPotential, birkhoff_sum, check_condition_P
from .words import Word, bad_mass_ratio, count_I, good_branch_contraction, is_good

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
