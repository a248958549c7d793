"""Monte Carlo Feynman-Kac representation of the Schrodinger semigroup
exp(-t S) for S = -(1/2) Lap + V on a flat chart (scalar potential only).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, SimulationError, call_checked
from ..stochastic import integrator, make_stream
from .wavefunctions import PotentialField

# paths per block; block b draws from make_stream(seed, b), so this size is
# part of the stream key and fixes the sampled values
BLOCK_SIZE = 4096
# time steps whose increments one normal() call draws; consecutive calls
# continue the block's stream, so this length changes no bit.  A longer run
# gives the GIL-free fill more to do per call and each worker more memory
# to hold: 16 steps of a 1-d block are 512 KiB
STEP_RUN = 16


def _block_weights(V, phi, x: np.ndarray, t: float, n_steps: int, seed: int,
                   block: int, B: int) -> np.ndarray:
    """The B weights exp(-int V ds) phi(x + W_t) of one block of paths."""
    step = t / n_steps
    gen = make_stream(seed, block)
    pos = np.broadcast_to(x, (B, x.shape[0])).copy()
    v_prev = call_checked(V, "V", (B,), pos)
    integral = np.zeros(B)
    for k in range(0, n_steps, STEP_RUN):
        run = gen.normal(0.0, np.sqrt(step), (min(STEP_RUN, n_steps - k), *pos.shape))
        for dW in run:
            pos = pos + dW
            v_next = call_checked(V, "V", (B,), pos)
            integral += 0.5 * step * (v_prev + v_next)
            v_prev = v_next
    if not np.all(np.isfinite(integral)):
        raise SimulationError("Feynman-Kac exponent became non-finite; "
                              "is the potential bounded below on the region?")
    weights = np.exp(-integral) * call_checked(phi, "phi", (B,), pos)
    if not np.all(np.isfinite(weights)):
        raise SimulationError("Feynman-Kac weight became non-finite")
    return weights


def feynman_kac_semigroup(V: PotentialField, phi, t: float, x, N: int, seed: int,
                          dt: float = 1e-3) -> tuple[float, float]:
    """Estimate (exp(-tS) phi)(x) = E[exp(-int V(x+W_s) ds) phi(x+W_t)].

    V and phi map points of shape (B, dim) to values of shape (B,); another
    shape is a ParameterError.  The time integral uses the trapezoid rule
    along each Brownian path; paths are drawn in blocks of BLOCK_SIZE with
    one counter stream per block, so the result depends only on the seed.
    The blocks run on the block pool, stochastic.integrator.map_blocks,
    with one thread per CPU the process may use, so V and phi are called
    concurrently on different blocks and must not mutate shared state; the
    weights are reduced in block order, so the result does not depend on
    the worker count, and the first failing block in that order raises its
    error.  Returns (estimate, standard error).  The variance
    sums squares about a fixed shift, the first weight drawn, in one pass
    over the blocks, which keeps the spread when the mean dwarfs it.
    """
    if t <= 0 or dt <= 0:
        raise ParameterError("t and dt must be positive")
    if N < 2:
        raise ParameterError("N must be >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_steps = max(1, int(round(t / dt)))

    def weights(lo: int) -> np.ndarray:
        return _block_weights(V, phi, x, t, n_steps, seed, lo // BLOCK_SIZE,
                              min(BLOCK_SIZE, N - lo))

    sums, s2 = [], 0.0
    for w in integrator.map_blocks(weights, range(0, N, BLOCK_SIZE),
                                   integrator.worker_count()):
        if not sums:
            shift = float(w[0])
        sums.append(np.sum(w))
        s2 += float(np.sum((w - shift) ** 2))
    mean = float(np.sum(sums)) / N
    var = max(s2 - N * (mean - shift) ** 2, 0.0) / (N - 1)
    return mean, float(np.sqrt(var / N))
