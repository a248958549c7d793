"""Ito (Euler-Maruyama) and Stratonovich (Heun) integration on flat charts,
plus the semimartingale decomposition of a single path.

Drift and diffusion callables are vectorized over paths: drift(t, x) takes
x of shape (B, dim) and returns (B, dim); a Stratonovich diffusion field
returns (B, dim, m) for m driving noises, m read off one call at a start.
Another shape raises SimulationError for a drift and ParameterError for a
diffusion field, naming the function and both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ParameterError, call_checked, check_positive
from .ensemble import PathEnsemble
from .integrator import Integrator, initial_points


@dataclass(frozen=True)
class ItoProcessSpec:
    """dx = drift(t, x) dt + diffusion_const dW."""

    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion_const: float
    dimension: int

    def __post_init__(self):
        check_positive("diffusion_const", self.diffusion_const, zero=True)
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")


def simulate_ito(spec: ItoProcessSpec, x0, T: float, dt: float, N: int,
                 seed: int) -> PathEnsemble:
    """Euler-Maruyama paths of an Ito diffusion with constant scalar noise."""
    dim = spec.dimension
    core = Integrator("euler-maruyama", T, dt, seed, n_noise=dim)
    eps = spec.diffusion_const

    def euler(k, dW, x):
        b = core.drift(spec.drift, k, x)
        return (core.accept(x + b * dt + eps * dW),)

    times, (paths,) = core.run(euler, initial_points(x0, N, dim))
    return PathEnsemble(times, paths, seed=seed, chart_name=f"euclidean:{dim}",
                        meta={"epsilon": eps, "integrator": "euler-maruyama"})


def simulate_stratonovich(drift, diffusion_field, x0, T: float, dt: float,
                          N: int, seed: int, dimension: int | None = None) -> PathEnsemble:
    """Heun (midpoint-corrected) integration of dx = f dt + G o dW."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = dimension or x0.shape[-1]
    starts = initial_points(x0, N, dim)
    # one call at a start learns m; each step's calls are checked against (B, dim, m)
    m = (np.shape(diffusion_field(0.0, starts[:1])) or (1,))[-1]
    core = Integrator("stratonovich-heun", T, dt, seed, n_noise=m)

    def heun(k, dW, x):
        t0, t1 = core.times[k], core.times[k + 1]
        f0 = core.drift(drift, k, x)
        G0 = call_checked(diffusion_field, "diffusion_field", x.shape + (m,), t0, x)
        noise0 = np.einsum("bim,bm->bi", G0, dW)
        xp = x + f0 * dt + noise0
        f1 = core.drift(drift, k + 1, xp)
        G1 = call_checked(diffusion_field, "diffusion_field", x.shape + (m,), t1, xp)
        noise1 = np.einsum("bim,bm->bi", G1, dW)
        return (core.accept(x + 0.5 * (f0 + f1) * dt + 0.5 * (noise0 + noise1)),)

    times, (paths,) = core.run(heun, starts)
    return PathEnsemble(times, paths, seed=seed, chart_name=f"euclidean:{dim}",
                        meta={"integrator": "stratonovich-heun"})


@dataclass
class SemimartingaleDecomposition:
    """path = bounded_variation_part + martingale_part, exactly."""

    bounded_variation_part: np.ndarray
    martingale_part: np.ndarray
    residual: float


def decompose_semimartingale(path: np.ndarray, window: int) -> SemimartingaleDecomposition:
    """Split one path into a drift-like part plus the remainder.

    The bounded-variation part accumulates the windowed local mean of the
    increments (a centered moving average, truncated at the ends); the
    martingale part is defined as the exact remainder, so reconstruction
    is exact by construction.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim == 1:
        path = path[:, None]
    if window < 2:
        raise ParameterError("window must be >= 2")
    if window > path.shape[0] - 1:
        raise ParameterError("window larger than the path")
    inc = np.diff(path, axis=0)
    k = len(inc)
    half = window // 2
    csum = np.vstack([np.zeros((1, path.shape[1])), np.cumsum(inc, axis=0)])
    lo = np.maximum(np.arange(k) - half, 0)
    hi = np.minimum(np.arange(k) + (window - half), k)
    local_mean = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    bv = np.vstack([path[:1], path[:1] + np.cumsum(local_mean, axis=0)])
    mart = path - bv
    residual = float(np.max(np.abs(bv + mart - path)))
    return SemimartingaleDecomposition(bv, mart, residual)
