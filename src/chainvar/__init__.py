"""MCMC output analysis toolkit.

Estimates the long-run covariance matrix of a vector of Markov chain
sample means with initial-sequence truncation rules, derives effective
sample size and confidence regions from it, and ships seeded samplers
plus a replication harness for benchmarking the estimators.
"""

from .autocov import LagPairSequence, MomentOverflowError, autocov
from .chain import Chain, ChainFormatError, NonFiniteValueError, load_chain, save_chain
from .diagnostics import (
    Region,
    chisq_quantile,
    cube_region,
    ellipsoid_region,
    ess,
    min_univariate_ess,
    normal_quantile,
    sample_cov,
    univariate_ess_components,
)
from .estimators import (
    MvEstimate,
    NoPositiveDefinitePartialSum,
    UvEstimate,
    mis,
    misadj,
    mk,
    uis,
    uis_components,
)
from .experiments import (
    ExperimentConfig,
    MethodStats,
    ReplicationReport,
    emit_tables,
    run_replications,
)
from .samplers import (
    Ar1Params,
    Ar1Truth,
    LogisticData,
    RandomEffectsHyper,
    RwmRun,
    ar1_simulate,
    ar1_truth,
    generate_logit_data,
    gibbs_random_effects,
    hadamard,
    load_logit_data,
    log_posterior,
    log_posterior_grad,
    random_walk_metropolis,
    replication_stream,
    rwm_logistic,
    simulate_dataset,
    truth_stream,
)
from .symmat import (
    NotPositiveDefiniteError,
    Spectrum,
    eigen_sym,
    is_pd,
    logdet_pd,
    positive_part,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "Chain", "ChainFormatError", "NonFiniteValueError", "load_chain", "save_chain",
    "Spectrum", "eigen_sym", "is_pd", "logdet_pd", "positive_part", "symmetrize",
    "NotPositiveDefiniteError",
    "autocov", "LagPairSequence", "MomentOverflowError",
    "uis", "uis_components", "mis", "misadj", "mk", "MvEstimate", "UvEstimate",
    "NoPositiveDefinitePartialSum",
    "chisq_quantile", "normal_quantile", "sample_cov", "ess",
    "min_univariate_ess", "univariate_ess_components",
    "Region", "ellipsoid_region", "cube_region",
    "hadamard", "Ar1Params", "Ar1Truth", "ar1_truth", "ar1_simulate",
    "LogisticData", "generate_logit_data", "load_logit_data",
    "log_posterior", "log_posterior_grad", "random_walk_metropolis",
    "rwm_logistic", "RwmRun",
    "RandomEffectsHyper", "gibbs_random_effects", "simulate_dataset",
    "replication_stream", "truth_stream",
    "ExperimentConfig", "MethodStats", "ReplicationReport",
    "run_replications", "emit_tables",
    "__version__",
]
