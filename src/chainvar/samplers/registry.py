"""The built-in models by name: one place that turns a model name and its
JSON-style parameters into a seeded simulator."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..chain import Chain
from ._rng import SeedLike
from .ar1 import Ar1Params, ar1_simulate, ar1_truth
from .logistic import load_logit_data, rwm_logistic
from .random_effects import RandomEffectsHyper, gibbs_random_effects, simulate_dataset

MODELS = ("ar1", "logistic", "ranef")

# simulate(n, seed) -> (chain, sampler statistics worth reporting by name)
Simulator = Callable[[int, SeedLike], tuple[Chain, dict]]


def _require(params: dict, key: str, kind: str):
    if key not in params:
        raise ValueError(f"ar1 parameters of kind {kind!r} need the key {key!r}")
    return params[key]


def _ar1_params(params: dict) -> Ar1Params:
    kind = params.get("kind", "explicit")
    if kind == "hadamard":
        return Ar1Params.hadamard_fixture(int(_require(params, "p", kind)))
    if kind == "scalar":
        return Ar1Params.scalar(float(_require(params, "a", kind)),
                                float(params.get("v", 1.0)),
                                float(params.get("theta", 1.0)))
    if kind == "explicit":
        return Ar1Params(*(np.asarray(_require(params, key, kind), dtype=np.float64)
                           for key in ("A", "V", "theta")))
    raise ValueError(f"unknown ar1 parameter kind {kind!r}")


def build(model: str, params: dict) -> tuple[Simulator, np.ndarray | None]:
    """Returns (simulate, analytic stationary mean or None) for a model.

    ``params`` follows the per-model schema in the README.  Identical
    (model, params, n, seed) give bit-identical chains on every caller.
    """
    if model == "ar1":
        ar1 = _ar1_params(params)
        return (lambda n, seed: (ar1_simulate(ar1, n, seed), {})), ar1_truth(ar1).mu
    if model == "logistic":
        data = load_logit_data(params.get("data_path"))
        step_sd = float(params.get("step_sd", 0.3))

        def simulate(n: int, seed: SeedLike) -> tuple[Chain, dict]:
            run = rwm_logistic(data, step_sd, n, seed)
            return run.chain, {"acceptance rate": run.acceptance_rate}

        return simulate, None
    if model == "ranef":
        hyper = RandomEffectsHyper(**params.get("hyper", {}))
        if "y" in params:
            y = np.asarray(params["y"], dtype=np.float64)
        else:
            y = simulate_dataset(int(params.get("K", 2)), int(params.get("data_seed", 0)))
        return (lambda n, seed: (gibbs_random_effects(y, hyper, n, seed), {})), None
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
