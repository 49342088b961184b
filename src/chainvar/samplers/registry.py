"""The built-in models by name: one place that turns a model name and its
JSON-style parameters into a seeded simulator."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..chain import Chain
from ._rng import SeedLike
from .ar1 import Ar1Params, ar1_simulate, ar1_truth
from .logistic import LogisticData, load_logit_data, rwm_logistic
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


def _ar1_run(params: Ar1Params, n: int, seed: SeedLike) -> tuple[Chain, dict]:
    return ar1_simulate(params, n, seed), {}


def _rwm_run(data: LogisticData, step_sd: float, n: int, seed: SeedLike) -> tuple[Chain, dict]:
    run = rwm_logistic(data, step_sd, n, seed)
    return run.chain, {"acceptance rate": run.acceptance_rate}


def _gibbs_run(y: np.ndarray, hyper: RandomEffectsHyper, n: int,
               seed: SeedLike) -> tuple[Chain, dict]:
    return gibbs_random_effects(y, hyper, n, seed), {}


def build(model: str, params: dict) -> tuple[Simulator, np.ndarray | None]:
    """Returns (simulate, analytic stationary mean or None) for a model.

    ``params`` follows the per-model schema in the README.  Identical
    (model, params, n, seed) give bit-identical chains on every caller.
    ``simulate`` is a module-level function with its model bound by
    ``functools.partial``, so it pickles and a process pool can run it.
    """
    if model == "ar1":
        ar1 = _ar1_params(params)
        return partial(_ar1_run, ar1), ar1_truth(ar1).mu
    if model == "logistic":
        data = load_logit_data(params.get("data_path"))
        return partial(_rwm_run, data, float(params.get("step_sd", 0.3))), None
    if model == "ranef":
        hyper = RandomEffectsHyper(**params.get("hyper", {}))
        if "y" in params:
            y = np.asarray(params["y"], dtype=np.float64)
        else:
            y = simulate_dataset(int(params.get("K", 2)), int(params.get("data_seed", 0)))
        return partial(_gibbs_run, y, hyper), None
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
