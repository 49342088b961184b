"""The built-in models by name: one place that turns a model name and its
JSON-style parameters into a seeded simulator."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import partial
from numbers import Integral, Real

import numpy as np

from ..chain import Chain
from ._rng import SeedLike
from .ar1 import Ar1Params, ar1_blocks, ar1_truth
from .logistic import load_logit_data, rwm_logistic_blocks
from .random_effects import RandomEffectsHyper, gibbs_blocks, simulate_dataset

MODELS = ("ar1", "logistic", "ranef")


@dataclass(frozen=True)
class Simulator:
    """One model's seeded sampler: a block generator and its width.

    ``simulator.blocks(n, seed, rows)`` yields the rows of the chain as
    consecutive arrays of ``rows`` rows of ``p`` columns (the last may be
    shorter), each the caller's until the next one is asked for and each
    with the sampler statistics so far, worth reporting by name; it holds
    one block, not the chain.  ``simulator(n, seed)`` is its one block of
    n rows, as a chain and the statistics.
    """

    blocks: Callable[[int, SeedLike, int], Iterator[tuple[np.ndarray, dict]]]
    p: int

    def __call__(self, n: int, seed: SeedLike) -> tuple[Chain, dict]:
        block, stats = next(self.blocks(n, seed, n))
        return Chain._adopt(block), stats


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, known, what: str) -> None:
    """Raise a ValueError naming the first key of ``mapping`` not in ``known``."""
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}; expected from {list(known)}")


# a JSON array, or a tuple from Python
_LIST = (list, tuple)
_KIND_NAMES = {Integral: "an integer", Real: "a number", _LIST: "a list"}


def _typed(value, kind, name: str):
    """``value``, which must be an instance of ``kind``: :class:`Integral`,
    :class:`Real` or ``_LIST``; ``true`` and ``false`` are no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def _param(params: dict, model: str, key: str, kind: type, default, minimum=None):
    """``params[key]``, or ``default`` if it is absent, of the type ``kind``
    and at least ``minimum`` if one is given."""
    value = _typed(params.get(key, default), kind, f"{model} parameter {key!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{model} parameter {key!r} must be >= {minimum}, got {value}")
    return value


def _require(params: dict, key: str, kind: str):
    if key not in params:
        raise ValueError(f"ar1 parameters of kind {kind!r} need the key {key!r}")
    return params[key]


def _ar1_params(params: dict) -> Ar1Params:
    kind = params.get("kind", "explicit")
    if kind == "hadamard":
        _check_keys(params, ("kind", "p"), "ar1 hadamard parameter")
        p = _typed(_require(params, "p", kind), Integral, "ar1 parameter 'p'")
        return Ar1Params.hadamard_fixture(int(p))
    if kind == "scalar":
        _check_keys(params, ("kind", "a", "v", "theta"), "ar1 scalar parameter")
        _require(params, "a", kind)  # v and theta default to 1
        return Ar1Params.scalar(*(float(_param(params, "ar1", key, Real, 1.0))
                                  for key in ("a", "v", "theta")))
    if kind == "explicit":
        _check_keys(params, ("kind", "A", "V", "theta"), "ar1 explicit parameter")
        return Ar1Params(*(np.asarray(_require(params, key, kind), dtype=np.float64)
                           for key in ("A", "V", "theta")))
    raise ValueError(f"unknown ar1 parameter kind {kind!r}")


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
        return Simulator(partial(ar1_blocks, ar1), ar1.p), ar1_truth(ar1).mu
    if model == "logistic":
        _check_keys(params, ("step_sd", "data_path"), "logistic parameter")
        step_sd = float(_param(params, model, "step_sd", Real, 0.3))
        data = load_logit_data(params.get("data_path"))
        return Simulator(partial(rwm_logistic_blocks, data, step_sd), data.n_coef), None
    if model == "ranef":
        _check_keys(params, ("K", "data_seed", "hyper", "y"), "ranef parameter")
        hyper = _json_object(params.get("hyper", {}), "ranef 'hyper'")
        _check_keys(hyper, [f.name for f in fields(RandomEffectsHyper)], "ranef hyper")
        hyper = RandomEffectsHyper(**hyper)
        if "y" in params:
            y = np.asarray(params["y"], dtype=np.float64)
        else:
            y = simulate_dataset(int(_param(params, model, "K", Integral, 2, minimum=1)),
                                 int(_param(params, model, "data_seed", Integral, 0, minimum=0)))
        return Simulator(partial(gibbs_blocks, y, hyper), 3 * y.size + 2), None
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
