"""Seeded samplers for the benchmark fixtures, plus AR(1) ground truth.

``build(model, params)`` is the one way to get a simulator by model name.
"""

from ._rng import SeedLike, as_generator, replication_stream, truth_stream
from .ar1 import Ar1Params, Ar1Truth, ar1_blocks, ar1_simulate, ar1_truth
from .hadamard import SUPPORTED_ORDERS, hadamard
from .logistic import (
    SYNTHETIC_TRUE_BETA,
    LogisticData,
    RwmRun,
    generate_logit_data,
    load_logit_data,
    log_posterior,
    log_posterior_grad,
    log_prior,
    random_walk_metropolis,
    random_walk_metropolis_blocks,
    rwm_logistic,
)
from .random_effects import (
    RandomEffectsHyper,
    RandomEffectsState,
    coordinate_names,
    gibbs_blocks,
    gibbs_random_effects,
    simulate_dataset,
)
from .registry import MODELS, build

__all__ = [
    "SeedLike",
    "as_generator",
    "replication_stream",
    "truth_stream",
    "Ar1Params",
    "Ar1Truth",
    "ar1_blocks",
    "ar1_simulate",
    "ar1_truth",
    "SUPPORTED_ORDERS",
    "hadamard",
    "SYNTHETIC_TRUE_BETA",
    "LogisticData",
    "RwmRun",
    "generate_logit_data",
    "load_logit_data",
    "log_posterior",
    "log_posterior_grad",
    "log_prior",
    "random_walk_metropolis",
    "random_walk_metropolis_blocks",
    "rwm_logistic",
    "RandomEffectsHyper",
    "RandomEffectsState",
    "coordinate_names",
    "gibbs_blocks",
    "gibbs_random_effects",
    "simulate_dataset",
    "MODELS",
    "build",
]
