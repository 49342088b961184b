"""The built-in models by name: one place that turns a model name and its
JSON-style parameters into a seeded simulator."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ..chain import Chain
from ._rng import SeedLike
from .ar1 import Ar1Params, ar1_blocks, ar1_simulate, ar1_truth
from .logistic import (LogisticData, load_logit_data, log_posterior,
                       random_walk_metropolis_blocks, rwm_logistic)
from .random_effects import (RandomEffectsHyper, gibbs_blocks, gibbs_random_effects,
                             simulate_dataset)

MODELS = ("ar1", "logistic", "ranef")


@dataclass(frozen=True)
class Simulator:
    """One model's seeded sampler, in the two shapes its callers need.

    ``simulator(n, seed)`` returns the chain and the sampler statistics
    worth reporting by name.  ``simulator.blocks(n, seed, rows)`` yields
    the rows of the same chain, bit for bit, as consecutive arrays of
    ``rows`` rows of ``p`` columns (the last may be shorter), each the
    caller's until the next one is asked for; it holds one block, not the
    chain.
    """

    run: Callable[[int, SeedLike], tuple[Chain, dict]]
    blocks: Callable[[int, SeedLike, int], Iterator[np.ndarray]]
    p: int

    def __call__(self, n: int, seed: SeedLike) -> tuple[Chain, dict]:
        return self.run(n, seed)


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


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


def _rwm_blocks(data: LogisticData, step_sd: float, n: int, seed: SeedLike,
                rows: int) -> Iterator[np.ndarray]:
    for block, _ in random_walk_metropolis_blocks(partial(log_posterior, data=data),
                                                  np.zeros(data.n_coef), step_sd, n, seed, rows):
        yield block


def _gibbs_run(y: np.ndarray, hyper: RandomEffectsHyper, n: int,
               seed: SeedLike) -> tuple[Chain, dict]:
    return gibbs_random_effects(y, hyper, n, seed), {}


def _gibbs_blocks(y: np.ndarray, hyper: RandomEffectsHyper, n: int, seed: SeedLike,
                  rows: int) -> Iterator[np.ndarray]:
    return gibbs_blocks(y, hyper, n, seed, rows)


def build(model: str, params: dict) -> tuple[Simulator, np.ndarray | None]:
    """Returns (simulate, analytic stationary mean or None) for a model.

    ``params`` follows the per-model schema in the README.  Identical
    (model, params, n, seed) give bit-identical chains on every caller.
    ``simulate`` is a :class:`Simulator` over module-level functions with
    their model bound by ``functools.partial``, so it pickles and a
    process pool can run it.
    """
    params = _json_object(params, f"{model} parameters")
    if model == "ar1":
        ar1 = _ar1_params(params)
        return (Simulator(partial(_ar1_run, ar1), partial(ar1_blocks, ar1), ar1.p),
                ar1_truth(ar1).mu)
    if model == "logistic":
        data = load_logit_data(params.get("data_path"))
        step_sd = float(params.get("step_sd", 0.3))
        return (Simulator(partial(_rwm_run, data, step_sd), partial(_rwm_blocks, data, step_sd),
                          data.n_coef), None)
    if model == "ranef":
        hyper = _json_object(params.get("hyper", {}), "ranef 'hyper'")
        known = [f.name for f in fields(RandomEffectsHyper)]
        unknown = [key for key in hyper if key not in known]
        if unknown:
            raise ValueError(f"unknown ranef hyper key {unknown[0]!r}; expected from {known}")
        hyper = RandomEffectsHyper(**hyper)
        if "y" in params:
            y = np.asarray(params["y"], dtype=np.float64)
        else:
            y = simulate_dataset(int(params.get("K", 2)), int(params.get("data_seed", 0)))
        return (Simulator(partial(_gibbs_run, y, hyper), partial(_gibbs_blocks, y, hyper),
                          3 * y.size + 2), None)
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
