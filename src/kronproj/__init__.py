"""Dynamic Kronecker-product projection maintenance with sketched queries,
plus differential-privacy reductions that harden sketch-based estimators
against adaptive adversaries."""

from .errors import (
    DimensionError,
    GridDomainError,
    IllConditionedError,
    InvariantError,
    KronprojError,
    NotPSDError,
    NotSymmetricError,
    ParameterError,
    RankDeficiencyError,
)
from .kronlinalg import (
    EigenWeight,
    kron_apply,
    kron_diag,
    solve_spd,
    sym_eigen,
    vec,
    woodbury_update,
)
from .sketch import CEReport, Sketch, SketchBatch, SketchFamily, ce_estimate, generate
from .projmaint import (
    ConstraintBatch,
    MaintainedProjection,
    soft_threshold,
)
from .oracle import exact_norm, exact_projection, exact_set_query
from .dpcore import (
    PrivacyBudget,
    SignedGeometricGrid,
    advanced_composition,
    amplification,
    median_rank_error,
    private_median,
    round_to_grid,
    simple_composition,
)
from .adaptive import (
    AdaptiveWrapper,
    ExactNormEstimator,
    SketchedNormEstimator,
    make_norm_wrapper,
    make_setquery_wrapper,
    norm_step,
    norm_transcript_budget,
    norm_wrapper_params,
    setquery_step,
    setquery_transcript_budget,
    setquery_wrapper_params,
    sketched_norm_estimator,
)
from .harness import (
    DriftConfig,
    RunReport,
    complexity_model,
    gen_drift_sequence,
    run_adaptive_experiment,
    run_maintenance_experiment,
)

__version__ = "0.1.0"
