"""Seed handling and the block loop shared by all samplers.

Every sampler accepts an integer seed, a ``numpy.random.SeedSequence``, or
a ready ``numpy.random.Generator``; integers and seed sequences are fed to
``numpy.random.default_rng`` (PCG64).  Replication r of an experiment uses
the stream ``SeedSequence(master_seed, spawn_key=(0, r))`` and the
long-run pseudo-truth run uses ``spawn_key=(1,)``, so the two families can
never collide.  Identical seeds give bit-identical chains.

Every sampler is one block generator over :func:`row_blocks`: it supplies
the step that fills the next rows, and the loop checks the sizes, holds
the one buffer and yields each block with the statistics so far.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from numbers import Integral
from typing import Union

import numpy as np

# numpy.random's types by name: numpy loads numpy.random (and with it
# secrets, hmac and _hashlib) on first use, so a process that draws nothing
# never loads it
SeedLike = Union[int, "np.random.SeedSequence", "np.random.Generator"]


def as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Integral) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def replication_stream(master_seed: int, index: int) -> np.random.SeedSequence:
    """Independent stream for replication ``index`` of a harness run."""
    if index < 0:
        raise ValueError(f"replication index must be >= 0, got {index}")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(0, index))


def truth_stream(master_seed: int) -> np.random.SeedSequence:
    """Reserved stream for the long-run pseudo-truth simulation."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(1,))


def row_blocks(n: int, rows: int, p: int,
               fill: Callable[[np.ndarray], dict]) -> Iterator[tuple[np.ndarray, dict]]:
    """The n rows of a chain as consecutive blocks of ``rows`` rows of p
    columns (the last may be shorter), each yielded with ``fill(block)``.

    ``fill`` writes the chain's next ``len(block)`` rows into the block
    and returns the sampler statistics so far.  Every block is a view of
    one buffer of ``min(rows, n)`` rows: a block is the caller's until the
    next one is asked for.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if rows < 1:
        raise ValueError(f"need rows >= 1, got {rows}")
    buffer = np.empty((min(rows, n), p))
    for first in range(0, n, rows):
        out = buffer[:min(rows, n - first)]
        yield out, fill(out)
