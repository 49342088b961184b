"""Bayesian logistic regression target and its random walk Metropolis sampler.

The model is Bernoulli responses with logit link, a 100-by-5 design
matrix (intercept plus four covariates), and a N(0, 4 I) prior on the
five coefficients.  The canonical data set this layout mirrors is not
redistributable, so the packaged CSV is a synthetic stand-in generated by
:func:`generate_logit_data` with a fixed seed and a documented true
coefficient vector.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from ..chain import Chain
from ._rng import SeedLike, as_generator

# Coefficients used to generate the packaged synthetic data (intercept first).
SYNTHETIC_TRUE_BETA = np.array([0.5, 1.0, -0.5, 0.75, -1.0])
SYNTHETIC_SEED = 20260809
_DATA_RESOURCE = "logit_synthetic.csv"

PRIOR_VARIANCE = 4.0


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


def random_walk_metropolis(logpdf, initial, step_sd: float, n: int,
                           seed: SeedLike) -> RwmRun:
    """Symmetric random walk Metropolis with isotropic normal increments.

    Records the state after each of the n iterations.  Deterministic
    given the seed: proposal increments and acceptance uniforms are drawn
    up front in a fixed order.
    """
    if step_sd <= 0.0:
        raise ValueError(f"step_sd must be > 0, got {step_sd}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = as_generator(seed)
    x = np.array(initial, dtype=np.float64).reshape(-1)
    increments = rng.normal(0.0, step_sd, size=(n, x.shape[0]))
    log_uniforms = np.log(rng.uniform(size=n))
    out = np.empty((n, x.shape[0]))
    logp = float(logpdf(x))
    accepted = 0
    for i in range(n):
        proposal = x + increments[i]
        logp_prop = float(logpdf(proposal))
        if log_uniforms[i] <= logp_prop - logp:
            x = proposal
            logp = logp_prop
            accepted += 1
        out[i] = x
    return RwmRun(Chain._adopt(out), accepted / n)


def rwm_logistic(data: LogisticData, step_sd: float, n: int, seed: SeedLike) -> RwmRun:
    """Random walk Metropolis on the logistic posterior, started at zero."""
    return random_walk_metropolis(
        lambda b: log_posterior(b, data),
        np.zeros(data.n_coef),
        step_sd,
        n,
        seed,
    )
