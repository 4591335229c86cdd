"""Relative-error estimation for multiplicative regression models."""

from .criteria import ASYMMETRIC, MAX, PRODUCT, SUM, GreCriterion, gre_loss
from .data import Dataset
from .distributions import ErrorLaw, Sampler, population_constants
from .errors import (
    ConvergenceError,
    NumericOverflowError,
    RelerrError,
    ResamplingError,
    SingularDesignError,
)
from .evaluate import PredictionMetrics, bodyfat_pipeline, predict, prediction_metrics
from .inference import (
    CovarianceEstimate,
    TestResult,
    gre_anova_test,
    lpre_anova_test,
    random_weight_covariance,
    sandwich_covariance,
    wald_p_values,
)
from .simulate import (
    MetricsRow,
    SimulationConfig,
    generate_dataset,
    run_estimation_study,
    run_power_study,
)
from .solver import (
    FitResult,
    LinearHypothesis,
    check_design,
    fit_constrained_lpre,
    fit_gre,
    fit_lad_log,
    fit_lpre,
    fit_ls_log,
)

__version__ = "0.1.0"
