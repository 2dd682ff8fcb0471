"""Frequentist local false discovery rates.

Estimation of the average density of many test statistics, pointwise and
compound null-frequency scores, multiple-testing procedures with boundary
error control, and a seeded Monte Carlo harness for verifying the theory
at desk scale.
"""

from .core import (
    AssumptionError,
    BetaDensity,
    CapacityError,
    DegeneracyError,
    Density,
    DomainError,
    EstimationError,
    ExpFamilyPoly,
    FitError,
    GaussianLocation,
    GroundTruth,
    LossSpec,
    MixtureDensity,
    PiecewiseConstant,
    Scale,
    StatVector,
    Uniform01,
)
from .density import (
    ExpFamilyFit,
    MixtureFit,
    MonotoneDensityFit,
    density_loglik,
    grenander_fit,
    lindsey_fit,
    npmle_mixture_fit,
)
from .lfdr import (
    LfdrCurve,
    Pi0Estimate,
    lfdr_ratio,
    oracle_lfdr,
    score_hypotheses,
    selection_window_pi0,
    storey_pi0,
)
from .procedures import (
    RejectionResult,
    bh_threshold,
    lfdr_threshold_rule,
    perturb_grid_pvalues,
    q_values,
    support_line,
)
from .compound import (
    ClfdrGap,
    ClfdrResult,
    clfdr_exact,
    clfdr_vs_lfdr_gap,
)
from .simulate import (
    Bfdr,
    CalibrationCurve,
    DiscreteUniformNulls,
    Fdr,
    GaussianMeans,
    MfdrInterval,
    MonteCarloReport,
    PfdrInterval,
    Power,
    ProcedureConfig,
    SuperUniformCE,
    TwoGroupsBeta,
    calibration_experiment,
    generate,
    mc_error_rates,
    merge_reports,
    replicate_rng,
)

__version__ = "0.1.0"
