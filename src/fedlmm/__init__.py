"""One-shot federated linear mixed models with differential privacy.

Sites share only quadratic summaries; the coordinator reconstructs the
pooled random-intercept likelihood losslessly, fits it, and attaches
cluster-robust variances.  An optional Gaussian mechanism privatizes the
summaries, and a reconstruction-attack auditor quantifies what the
unperturbed summaries would leak.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    FedLMMError,
    SingularDesignError,
    SolverTimeoutError,
    ValidationError,
)
from .summaries import (
    FederatedSummarySet,
    SiteData,
    SiteSummary,
    StandardizationRecord,
    compute_summary,
    load_summary,
    merge_summaries,
    save_summary,
    standardize,
)
from .estimator import (
    FitResult,
    Theta,
    evaluate_fit,
    fit_ml,
    fit_reml,
    loglik_ml,
    loglik_reml,
    profile_beta,
)
from .variance import RobustVariance, apply_correction, cr0, wald_ci
from .privacy import PrivacyBudget, calibrate, privatize, sensitivity_binary_gram
from .attack import (
    AttackResult,
    FeasibilityInstance,
    attack_pipeline,
    enumerate_reconstructions,
    hamming_sorted,
    reconstruct,
)
from .simulation import (
    MetricRow,
    Scenario,
    generate,
    privacy_cost_slope,
    run_estimation_study,
    run_reconstruction_study,
    se_calibration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
