"""Counter-based random number streams.

Philox is counter-based and splittable: the pair (seed, stream) addresses an
independent stream, so a per-path stream reproduces bit-identically however
the paths are grouped into blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                                                     stream & 0xFFFFFFFFFFFFFFFF]))


def wiener_increments(n_steps: int, dt: float, dimension: int,
                      seed: int, stream: int = 0) -> np.ndarray:
    """iid Gaussian increments with mean 0 and variance dt per component.

    Identical (seed, stream) gives bit-identical output.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if n_steps < 0 or dimension < 1:
        raise ParameterError("n_steps must be >= 0 and dimension >= 1")
    gen = make_stream(seed, stream)
    return gen.normal(0.0, np.sqrt(dt), size=(n_steps, dimension))
