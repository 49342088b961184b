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
from collections.abc import Iterator
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from ..chain import Chain
from ._rng import SeedLike, as_generator, row_blocks


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"hyperparameter {f.name} must be a number, "
                                 f"got {type(value).__name__}")
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


def coordinate_names(K: int) -> list[str]:
    """Column labels matching the recorded layout (p = 3K + 2)."""
    return (
        [f"theta_{i + 1}" for i in range(K)]
        + ["mu", "lam_theta"]
        + [f"lam_{i + 1}" for i in range(K)]
        + [f"gam_{i + 1}" for i in range(K)]
    )


class GibbsSweep:
    """The four full conditionals of one chain, each redrawn in place.

    The state lives in ``row``, in the recorded layout; ``theta``, ``lam``
    and ``gam`` are views into it, and ``mu`` and ``lam_theta`` mirror
    their entries as floats.  Each ``draw_*`` method redraws one block
    from its full conditional given the rest and writes it into ``row``.

    A quantity derived from other blocks is cached and recomputed, by the
    same expression, only when a block it depends on was redrawn since:
    ``(theta - mu)^2``, shared by the two ``lam`` blocks, after a location
    draw; the inverse rates of the ``gam`` block after a location draw;
    and the location block's factor after any precision draw.  The cached
    values are the ones a fresh computation gives, so the draws do not
    depend on which block ran before.
    """

    def __init__(self, y: np.ndarray, hyper: RandomEffectsHyper,
                 state: RandomEffectsState, rng: np.random.Generator) -> None:
        K = y.shape[0]
        self.y, self.hyper, self._K = y, hyper, K
        self.row = np.concatenate([state.theta, [state.mu, state.lam_theta],
                                   state.lam, state.gam])
        self.theta = self.row[:K]
        self.lam = self.row[K + 2:2 * K + 2]
        self.gam = self.row[2 * K + 2:]
        self.mu = float(state.mu)
        self.lam_theta = float(state.lam_theta)
        self._std_gamma = rng.standard_gamma
        self._std_normal = rng.standard_normal
        self._shrinkage_shape = hyper.a1 + 0.5 * K
        self._component_shape = hyper.a2 + 0.5
        self._observation_shape = hyper.a3 + 0.5
        self._squares = np.empty(K)
        self._scales = np.empty(K)
        self._observation_scales = np.empty(K)
        self._c, self._d, self._w, self._b, self._sqrt_d = (np.empty(K) for _ in range(5))
        self._z = np.empty(K + 1)
        self._z_theta = self._z[:K]
        self._mean_mu = self._sqrt_schur = 0.0
        self._squares_stale = self._observation_stale = self._factor_stale = True

    def _deviations(self) -> np.ndarray:
        """``(theta - mu)^2``, recomputed after a location draw."""
        sq = self._squares
        if self._squares_stale:
            np.subtract(self.theta, self.mu, out=sq)
            np.square(sq, out=sq)
            self._squares_stale = False
        return sq

    def draw_shrinkage_precision(self) -> None:
        """lam_theta | rest ~ Gamma(a1 + K/2, b1 + sum(lam_i (theta_i - mu)^2)/2)."""
        rate = self.hyper.b1 + 0.5 * float(self.lam.dot(self._deviations()))
        # rng.gamma(shape, scale) is scale * standard_gamma(shape), bit for bit
        self.lam_theta = float(self._std_gamma(self._shrinkage_shape)) * (1.0 / rate)
        self.row[self._K + 1] = self.lam_theta
        self._factor_stale = True

    def draw_component_precisions(self) -> None:
        """lam_i | rest ~ Gamma(a2 + 1/2, b2 + lam_theta (theta_i - mu)^2 / 2)."""
        scales = self._scales
        np.multiply(0.5 * self.lam_theta, self._deviations(), out=scales)
        np.add(self.hyper.b2, scales, out=scales)
        np.divide(1.0, scales, out=scales)
        # bit-identical to rng.gamma(shape, scales), which draws each element
        # as scale * standard_gamma(shape) in order
        self._std_gamma(self._component_shape, out=self.lam)
        np.multiply(self.lam, scales, out=self.lam)
        self._factor_stale = True

    def draw_observation_precisions(self) -> None:
        """gam_i | rest ~ Gamma(a3 + 1/2, b3 + (y_i - theta_i)^2 / 2)."""
        scales = self._observation_scales
        if self._observation_stale:
            np.subtract(self.y, self.theta, out=scales)
            np.square(scales, out=scales)
            np.multiply(0.5, scales, out=scales)
            np.add(self.hyper.b3, scales, out=scales)
            np.divide(1.0, scales, out=scales)
            self._observation_stale = False
        self._std_gamma(self._observation_shape, out=self.gam)
        np.multiply(self.gam, scales, out=self.gam)
        self._factor_stale = True

    def _factor(self) -> None:
        c, d, w, b = self._c, self._d, self._w, self._b
        hyper = self.hyper
        np.multiply(self.lam_theta, self.lam, out=c)
        np.add(self.gam, c, out=d)
        np.divide(c, d, out=w)
        np.multiply(self.gam, self.y, out=b)
        schur = hyper.v0 + float(w.dot(self.gam))
        self._mean_mu = (hyper.v0 * hyper.m0 + float(w.dot(b))) / schur
        self._sqrt_schur = math.sqrt(schur)
        np.sqrt(d, out=self._sqrt_d)
        self._factor_stale = False

    def draw_locations(self) -> None:
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
        conditional given the drawn mu.  Everything but z and what depends
        on it is the factor, cached until a precision block is redrawn.
        """
        if self._factor_stale:
            self._factor()
        z, z_theta, theta = self._z, self._z_theta, self.theta
        self._std_normal(out=z)
        mu = self._mean_mu + float(z[self._K]) / self._sqrt_schur
        np.multiply(self._c, mu, out=theta)
        np.add(self._b, theta, out=theta)
        np.divide(theta, self._d, out=theta)
        np.divide(z_theta, self._sqrt_d, out=z_theta)
        np.add(theta, z_theta, out=theta)
        self.mu = mu
        self.row[self._K] = mu
        self._squares_stale = self._observation_stale = True


def simulate_dataset(K: int, seed: SeedLike = 0) -> np.ndarray:
    """A reproducible synthetic data vector: y_i = theta_i + noise, both standard normal."""
    rng = as_generator(seed)
    return rng.standard_normal(K) + rng.standard_normal(K)


def gibbs_blocks(y, hyper: RandomEffectsHyper | None, n: int, seed: SeedLike,
                 rows: int) -> Iterator[tuple[np.ndarray, dict]]:
    """Run the random scan Gibbs sampler for n iterations, as consecutive
    blocks of ``rows`` rows (the last block may be shorter), each with no
    sampler statistics (see :func:`row_blocks`).

    Starts from ``theta = y``, ``mu = mean(y)`` and unit precisions, and
    records all 3K+2 coordinates after every iteration.  The sweep and
    the generator carry the chain from one block to the next, so the
    blocks, concatenated, are the chain of :func:`gibbs_random_effects`
    bit for bit, whatever ``rows`` is.

    The block choice reads the bit generator through its ctypes
    interface, which does not take the generator's lock: a ``Generator``
    passed as ``seed`` must not be used by another thread during the run.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    K = y.shape[0]
    if K < 1:
        raise ValueError("need K >= 1 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    hyper = hyper or RandomEffectsHyper()
    rng = as_generator(seed)
    start = RandomEffectsState(theta=y.copy(), mu=float(y.mean()), lam_theta=1.0,
                               lam=np.ones(K), gam=np.ones(K))
    sweep = GibbsSweep(y, hyper, start, rng)
    draws = (sweep.draw_shrinkage_precision, sweep.draw_component_precisions,
             sweep.draw_observation_precisions, sweep.draw_locations)
    # rng.integers(4) is Lemire's bounded draw on one next_uint32, whose
    # rejection threshold (2**32 - 4) % 4 is 0: it returns the top two bits
    # of that word and never draws again.  Reading the word through the
    # same function pointer shares the generator's half-word cache, so the
    # stream and the generator's final state are those of rng.integers(4).
    bits = rng.bit_generator.ctypes
    next_uint32, bitgen = bits.next_uint32, bits.state
    row = sweep.row

    def fill(out: np.ndarray) -> dict:
        for i in range(out.shape[0]):
            draws[next_uint32(bitgen) >> 30]()
            out[i] = row
        return {}

    yield from row_blocks(n, rows, 3 * K + 2, fill)


def gibbs_random_effects(y, hyper: RandomEffectsHyper | None = None, n: int = 1,
                         seed: SeedLike = 0) -> Chain:
    """Run the random scan Gibbs sampler for n iterations: the chain of
    :func:`gibbs_blocks` as one block.  Deterministic given the seed;
    every recorded precision is strictly positive.

    A ``Generator`` passed as ``seed`` must not be used by another thread
    during the run (see :func:`gibbs_blocks`).
    """
    return Chain._adopt(next(gibbs_blocks(y, hyper, n, seed, n))[0])
