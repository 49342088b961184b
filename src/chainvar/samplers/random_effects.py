"""Random scan Gibbs sampler for a Bayesian one-way random effects model.

Observations ``y_i ~ N(theta_i, 1/gam_i)`` for i = 1..K, group means
``theta_i ~ N(mu, 1/(lam_theta * lam_i))``, a normal prior on ``mu`` and
gamma priors (shape-rate throughout) on every precision.  The posterior
lives on the 3K+2 coordinates ``(theta_1..theta_K, mu, lam_theta,
lam_1..lam_K, gam_1..gam_K)``, which is the recorded layout.

Each iteration picks one of the four blocks -- lam_theta, (lam_i),
(gam_i), or the joint location block (theta, mu) -- uniformly at random
and redraws it from its full conditional: conjugate gammas for the
precision blocks and a joint multivariate normal for the locations.

The location precision is arrow-shaped (diagonal over theta, bordered by
mu), so its Cholesky factor with mu ordered last is a diagonal plus one
dense bottom row.  The location draw uses that factor in closed form and
costs O(K) with no dense linear algebra; an iteration's cost is a few
small vector operations whichever block it picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chain import Chain
from ._rng import SeedLike, as_generator


@dataclass(frozen=True)
class RandomEffectsHyper:
    """Hyperparameters; gamma distributions are shape-rate (mean a/b)."""

    a1: float = 0.1
    a2: float = 0.1
    a3: float = 1.5
    b1: float = 0.1
    b2: float = 0.1
    b3: float = 1.5
    m0: float = 0.0
    v0: float = 0.001

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "b1", "b2", "b3", "v0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"hyperparameter {name} must be > 0")


@dataclass
class RandomEffectsState:
    theta: np.ndarray
    mu: float
    lam_theta: float
    lam: np.ndarray
    gam: np.ndarray

    def as_row(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.mu, self.lam_theta], self.lam, self.gam])


def coordinate_names(K: int) -> list[str]:
    """Column labels matching the recorded layout (p = 3K + 2)."""
    return (
        [f"theta_{i + 1}" for i in range(K)]
        + ["mu", "lam_theta"]
        + [f"lam_{i + 1}" for i in range(K)]
        + [f"gam_{i + 1}" for i in range(K)]
    )


def draw_shrinkage_precision(state: RandomEffectsState, hyper: RandomEffectsHyper,
                             rng: np.random.Generator) -> float:
    """lam_theta | rest ~ Gamma(a1 + K/2, b1 + sum(lam_i (theta_i - mu)^2)/2)."""
    K = state.theta.shape[0]
    rate = hyper.b1 + 0.5 * float(state.lam @ (state.theta - state.mu) ** 2)
    return float(rng.gamma(hyper.a1 + 0.5 * K, 1.0 / rate))


def _gamma_draws(shape: float, rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Bit-identical to rng.gamma(shape, 1.0 / rates), which draws each
    # element as scale * standard_gamma(shape) in order, and leaves the
    # generator in the same state; skipping the per-element scale
    # broadcast makes it several times faster at small K.
    return rng.standard_gamma(shape, size=rates.shape) * (1.0 / rates)


def draw_component_precisions(state: RandomEffectsState, hyper: RandomEffectsHyper,
                              rng: np.random.Generator) -> np.ndarray:
    """lam_i | rest ~ Gamma(a2 + 1/2, b2 + lam_theta (theta_i - mu)^2 / 2)."""
    rates = hyper.b2 + 0.5 * state.lam_theta * (state.theta - state.mu) ** 2
    return _gamma_draws(hyper.a2 + 0.5, rates, rng)


def draw_observation_precisions(state: RandomEffectsState, hyper: RandomEffectsHyper,
                                y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """gam_i | rest ~ Gamma(a3 + 1/2, b3 + (y_i - theta_i)^2 / 2)."""
    rates = hyper.b3 + 0.5 * (y - state.theta) ** 2
    return _gamma_draws(hyper.a3 + 0.5, rates, rng)


def draw_locations(state: RandomEffectsState, hyper: RandomEffectsHyper,
                   y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw of (theta_1..theta_K, mu) from the joint normal conditional.

    Draws from N(P^{-1} b, P^{-1}) in O(K).  The precision P is
    arrow-shaped: diagonal ``gam_i + lam_theta lam_i`` over theta, border
    ``-lam_theta lam_i`` coupling each theta_i to mu, and corner
    ``v0 + lam_theta sum(lam)``; the linear term is
    ``b = (gam_1 y_1, ..., gam_K y_K, v0 m0)``.  With ``c = lam_theta lam`` and
    ``D = gam + c``, the Cholesky factor L of P (mu last) has diagonal
    ``sqrt(D)`` over theta, bottom row ``-c / sqrt(D)`` and corner
    ``sqrt(S)``, where the Schur complement of the theta block is
    ``S = v0 + sum(c gam / D)``; written this way (rather than
    ``v0 + sum(c) - sum(c^2 / D)``) it has no cancellation and is always
    positive.  The mean solves P m = b through the same complement,
    ``m_mu = (v0 m0 + sum(c b / D)) / S``, and the draw is
    ``m + L^{-T} z`` for ``z = standard_normal(K + 1)``: back substitution
    gives ``mu = m_mu + z_K / sqrt(S)`` and then
    ``theta = (b_theta + c mu) / D + z_theta / sqrt(D)``, which is theta's
    conditional given the drawn mu.
    """
    c = state.lam_theta * state.lam
    d = state.gam + c
    w = c / d
    b = state.gam * y
    schur = hyper.v0 + float(w @ state.gam)
    z = rng.standard_normal(d.shape[0] + 1)
    mu = (hyper.v0 * hyper.m0 + float(w @ b)) / schur + float(z[-1]) / math.sqrt(schur)
    out = np.empty(d.shape[0] + 1)
    out[:-1] = (b + c * mu) / d + z[:-1] / np.sqrt(d)
    out[-1] = mu
    return out


def simulate_dataset(K: int, seed: SeedLike = 0) -> np.ndarray:
    """A reproducible synthetic data vector: y_i = theta_i + noise, both standard normal."""
    rng = as_generator(seed)
    return rng.standard_normal(K) + rng.standard_normal(K)


def gibbs_random_effects(y, hyper: RandomEffectsHyper | None = None, n: int = 1,
                         seed: SeedLike = 0) -> Chain:
    """Run the random scan Gibbs sampler for n iterations.

    Starts from ``theta = y``, ``mu = mean(y)`` and unit precisions, and
    records all 3K+2 coordinates after every iteration.  Deterministic
    given the seed; every recorded precision is strictly positive.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    K = y.shape[0]
    if K < 1:
        raise ValueError("need K >= 1 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    hyper = hyper or RandomEffectsHyper()
    rng = as_generator(seed)
    state = RandomEffectsState(
        theta=y.copy(),
        mu=float(y.mean()),
        lam_theta=1.0,
        lam=np.ones(K),
        gam=np.ones(K),
    )
    # each iteration rewrites only the redrawn block's slice of this row
    row = state.as_row()
    out = np.empty((n, 3 * K + 2))
    for i in range(n):
        block = int(rng.integers(4))
        if block == 0:
            state.lam_theta = draw_shrinkage_precision(state, hyper, rng)
            row[K + 1] = state.lam_theta
        elif block == 1:
            state.lam = draw_component_precisions(state, hyper, rng)
            row[K + 2:2 * K + 2] = state.lam
        elif block == 2:
            state.gam = draw_observation_precisions(state, hyper, y, rng)
            row[2 * K + 2:] = state.gam
        else:
            xi = draw_locations(state, hyper, y, rng)
            row[:K + 1] = xi
            state.theta = xi[:K]
            state.mu = float(xi[K])
        out[i] = row
    return Chain._adopt(out)
