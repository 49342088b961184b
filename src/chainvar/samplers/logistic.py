"""Bayesian logistic regression target and its random walk Metropolis sampler.

The model is Bernoulli responses with logit link, a 100-by-5 design
matrix (intercept plus four covariates), and a N(0, 4 I) prior on the
five coefficients.  The canonical data set this layout mirrors is not
redistributable, so the packaged CSV is a synthetic stand-in generated by
:func:`generate_logit_data` with a fixed seed and a documented true
coefficient vector.
"""

from __future__ import annotations

import copy
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from ..chain import Chain
from ._rng import SeedLike, as_generator, row_blocks

# Coefficients used to generate the packaged synthetic data (intercept first).
SYNTHETIC_TRUE_BETA = np.array([0.5, 1.0, -0.5, 0.75, -1.0])
SYNTHETIC_SEED = 20260809
_DATA_RESOURCE = "logit_synthetic.csv"

PRIOR_VARIANCE = 4.0

# normals per draw while the generator skips the increments
_SKIP_DRAWS = 1 << 16


@dataclass(frozen=True)
class LogisticData:
    """Design matrix (n_obs x 5, intercept first) and binary responses."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"inconsistent shapes: X {X.shape}, y {y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("responses must be 0/1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_coef(self) -> int:
        return self.X.shape[1]


def generate_logit_data(n_obs: int = 100, seed: int = SYNTHETIC_SEED,
                        beta=SYNTHETIC_TRUE_BETA) -> LogisticData:
    """Synthetic stand-in data: standard normal covariates, known coefficients."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=np.float64)
    covariates = rng.standard_normal((n_obs, beta.shape[0] - 1))
    X = np.column_stack([np.ones(n_obs), covariates])
    probs = 1.0 / (1.0 + np.exp(-X @ beta))
    y = (rng.uniform(size=n_obs) < probs).astype(np.float64)
    return LogisticData(X, y)


def _data_from_csv_text(text: str) -> LogisticData:
    arr = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    y = arr[:, 0]
    X = np.column_stack([np.ones(arr.shape[0]), arr[:, 1:]])
    return LogisticData(X, y)


def load_logit_data(path=None) -> LogisticData:
    """Load the packaged synthetic data, or a CSV with the same y,x1..x4 layout."""
    if path is None:
        text = (files("chainvar") / "data" / _DATA_RESOURCE).read_text()
    else:
        with open(path, "r") as fh:
            text = fh.read()
    return _data_from_csv_text(text)


def log_prior(beta: np.ndarray) -> float:
    """Log density (up to a constant) of the N(0, 4 I) coefficient prior."""
    beta = np.asarray(beta, dtype=np.float64)
    return float(-beta @ beta / (2.0 * PRIOR_VARIANCE))


def log_posterior(beta, data: LogisticData) -> float:
    """Unnormalized log posterior of the coefficients.

    ``sum_i [y_i x_i'b - softplus(x_i'b)] - |b|^2/8`` with an
    overflow-safe softplus, so linear predictors of magnitude several
    hundred evaluate without warning.
    """
    beta = np.asarray(beta, dtype=np.float64)
    logits = data.X @ beta
    loglik = float(data.y @ logits - np.logaddexp(0.0, logits).sum())
    return loglik + log_prior(beta)


def log_posterior_grad(beta, data: LogisticData) -> np.ndarray:
    """Gradient of :func:`log_posterior`."""
    beta = np.asarray(beta, dtype=np.float64)
    logits = data.X @ beta
    fitted = 1.0 / (1.0 + np.exp(-logits))
    return data.X.T @ (data.y - fitted) - beta / PRIOR_VARIANCE


@dataclass(frozen=True)
class RwmRun:
    """A random walk Metropolis run: the recorded chain and its acceptance rate."""

    chain: Chain
    acceptance_rate: float


def random_walk_metropolis_blocks(logpdf, initial, step_sd: float, n: int, seed: SeedLike,
                                  rows: int) -> Iterator[tuple[np.ndarray, dict]]:
    """Symmetric random walk Metropolis with isotropic normal increments,
    as consecutive blocks of ``rows`` rows (the last block may be shorter).

    Records the state after each of the n iterations, and yields each
    block with ``{"acceptance rate": ...}`` over the rows so far (see
    :func:`row_blocks`).  The stream is that of drawing all n increment
    rows, then all n acceptance uniforms: the increments come from a copy
    of the generator, and the generator itself skips them before it draws
    the uniforms, a block at a time.  So the blocks, concatenated, are the
    chain of :func:`random_walk_metropolis` bit for bit, whatever ``rows``
    is, and a ``Generator`` passed as ``seed`` ends in the same state.
    """
    if not (math.isfinite(step_sd) and step_sd > 0.0):
        raise ValueError(f"step_sd must be finite and > 0, got {step_sd}")
    # ahead of the skip, whose buffer is sized by n
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = as_generator(seed)
    increments_rng = copy.deepcopy(rng)
    x = np.array(initial, dtype=np.float64).reshape(-1)
    p = x.shape[0]
    # standard_normal draws exactly the bits that normal(0, step_sd) draws
    skip = np.empty(min(n * p, _SKIP_DRAWS))
    for left in range(n * p, 0, -skip.size):
        rng.standard_normal(out=skip[:min(left, skip.size)])
    del skip
    logp = float(logpdf(x))
    accepted = done = 0

    def fill(out: np.ndarray) -> dict:
        nonlocal x, logp, accepted, done
        m = out.shape[0]
        increments = increments_rng.normal(0.0, step_sd, size=(m, p))
        log_uniforms = np.log(rng.uniform(size=m))
        # the Metropolis loop runs on locals, which are faster to read
        target, state, logp_state, accepts = logpdf, x, logp, accepted
        for i in range(m):
            proposal = state + increments[i]
            logp_prop = float(target(proposal))
            if log_uniforms[i] <= logp_prop - logp_state:
                state = proposal
                logp_state = logp_prop
                accepts += 1
            out[i] = state
        x, logp, accepted = state, logp_state, accepts
        done += m
        return {"acceptance rate": accepted / done}

    yield from row_blocks(n, rows, p, fill)


def random_walk_metropolis(logpdf, initial, step_sd: float, n: int,
                           seed: SeedLike) -> RwmRun:
    """Symmetric random walk Metropolis with isotropic normal increments:
    the chain of :func:`random_walk_metropolis_blocks` as one block.

    Records the state after each of the n iterations.  Deterministic
    given the seed: proposal increments and acceptance uniforms are drawn
    in a fixed order.
    """
    block, stats = next(random_walk_metropolis_blocks(logpdf, initial, step_sd, n, seed, n))
    return RwmRun(Chain._adopt(block), stats["acceptance rate"])


def rwm_logistic_blocks(data: LogisticData, step_sd: float, n: int, seed: SeedLike,
                        rows: int) -> Iterator[tuple[np.ndarray, dict]]:
    """Random walk Metropolis on the logistic posterior, started at zero,
    as blocks of :func:`random_walk_metropolis_blocks`."""
    # built where it runs, so it need not pickle; a keyword partial calls slower
    return random_walk_metropolis_blocks(lambda beta: log_posterior(beta, data),
                                         np.zeros(data.n_coef), step_sd, n, seed, rows)


def rwm_logistic(data: LogisticData, step_sd: float, n: int, seed: SeedLike) -> RwmRun:
    """Random walk Metropolis on the logistic posterior, started at zero:
    the chain of :func:`rwm_logistic_blocks` as one block."""
    block, stats = next(rwm_logistic_blocks(data, step_sd, n, seed, n))
    return RwmRun(Chain._adopt(block), stats["acceptance rate"])
