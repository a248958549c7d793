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


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]
           ) -> tuple[int, float, float]:
    """Pooled (count, mean, sum of squared deviations) of two samples
    (Chan, Golub & LeVeque 1983): unlike E[w^2] - mean^2 it keeps the
    spread when the mean dwarfs it."""
    (na, ma, m2a), (nb, mb, m2b) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * nb / n, m2a + m2b + delta**2 * na * nb / n


def _values(f, name: str, pos: np.ndarray) -> np.ndarray:
    """f(pos) as one float per point of pos, else ParameterError naming f."""
    out = np.asarray(f(pos), dtype=float)
    if out.shape != pos.shape[:1]:
        raise ParameterError(f"{name} returned shape {out.shape} for points of shape "
                             f"{pos.shape}; expected {pos.shape[:1]}")
    return out


def feynman_kac_semigroup(V: PotentialField, phi, t: float, x, N: int, seed: int,
                          dt: float = 1e-3) -> tuple[float, float]:
    """Estimate (exp(-tS) phi)(x) = E[exp(-int V(x+W_s) ds) phi(x+W_t)].

    V and phi map points of shape (B, dim) to values of shape (B,); another
    shape is a ParameterError.  The time integral uses the trapezoid rule
    along each Brownian path; paths are drawn in blocks of BLOCK_SIZE with
    one counter stream per block, so the result depends only on the seed.
    Returns (estimate, standard error); the variance pools per-block
    deviations from the block means.
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

    sums, spread = [], None
    for lo in range(0, N, BLOCK_SIZE):
        B = min(BLOCK_SIZE, N - lo)
        gen = make_stream(seed, lo // BLOCK_SIZE)
        pos = np.broadcast_to(x, (B, dim)).copy()
        v_prev = _values(V, "V", pos)
        integral = np.zeros(B)
        for _ in range(n_steps):
            pos = pos + gen.normal(0.0, sq, (B, dim))
            v_next = _values(V, "V", pos)
            integral += 0.5 * step * (v_prev + v_next)
            v_prev = v_next
        if not np.all(np.isfinite(integral)):
            raise SimulationError("Feynman-Kac exponent became non-finite; "
                                  "is the potential bounded below on the region?")
        weights = np.exp(-integral) * _values(phi, "phi", pos)
        if not np.all(np.isfinite(weights)):
            raise SimulationError("Feynman-Kac weight became non-finite")
        sums.append(np.sum(weights))
        block_mean = float(sums[-1]) / B
        part = (B, block_mean, float(np.sum((weights - block_mean) ** 2)))
        spread = part if spread is None else _merge(spread, part)
    mean = float(np.sum(sums)) / N
    var = spread[2] / (N - 1)
    return mean, float(np.sqrt(var / N))
