"""Monte Carlo Feynman-Kac representation of the Schrodinger semigroup
exp(-t S) for S = -(1/2) Lap + V on a flat chart (scalar potential only).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, SimulationError
from ..stochastic import make_stream
from .wavefunctions import PotentialField

# paths per block; block b draws from make_stream(seed, b), so this size is
# part of the stream key and fixes the sampled values
BLOCK_SIZE = 4096


def feynman_kac_semigroup(V: PotentialField, phi, t: float, x, N: int, seed: int,
                          dt: float = 1e-3) -> tuple[float, float]:
    """Estimate (exp(-tS) phi)(x) = E[exp(-int V(x+W_s) ds) phi(x+W_t)].

    The time integral uses the trapezoid rule along each Brownian path;
    paths are drawn in blocks of BLOCK_SIZE with one counter stream per
    block, so the result depends only on the seed.  Returns (estimate,
    standard error).
    """
    if t <= 0 or dt <= 0:
        raise ParameterError("t and dt must be positive")
    if N < 2:
        raise ParameterError("N must be >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.shape[0]
    n_steps = max(1, int(round(t / dt)))
    step = t / n_steps
    sq = np.sqrt(step)

    sums, sqsums = [], []
    for lo in range(0, N, BLOCK_SIZE):
        B = min(BLOCK_SIZE, N - lo)
        gen = make_stream(seed, lo // BLOCK_SIZE)
        pos = np.broadcast_to(x, (B, dim)).copy()
        v_prev = V(pos)
        integral = np.zeros(B)
        for _ in range(n_steps):
            pos = pos + gen.normal(0.0, sq, (B, dim))
            v_next = V(pos)
            integral += 0.5 * step * (v_prev + v_next)
            v_prev = v_next
        if not np.all(np.isfinite(integral)):
            raise SimulationError("Feynman-Kac exponent became non-finite; "
                                  "is the potential bounded below on the region?")
        weights = np.exp(-integral) * np.asarray(phi(pos), dtype=float)
        if not np.all(np.isfinite(weights)):
            raise SimulationError("Feynman-Kac weight became non-finite")
        sums.append(np.sum(weights))
        sqsums.append(np.sum(weights**2))
    mean = float(np.sum(sums)) / N
    var = max(float(np.sum(sqsums)) / N - mean**2, 0.0) * N / (N - 1)
    return mean, float(np.sqrt(var / N))
