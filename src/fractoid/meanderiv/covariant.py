"""Covariant mean derivatives of a vector field along a path ensemble.

The Monte Carlo route transports the field value at the displaced time back
to the conditioning point before differencing; the analytic route evaluates

    forward:  dX/dt + grad_drift X + (eps^2/2) lap X
    backward: dX/dt + grad_drift X - (eps^2/2) lap X

at the bin centers, using the ensemble's own estimated drift, so the two
pipelines can be cross-checked bin by bin.  On flat charts the transport is
the identity and the Laplacian is componentwise; curved charts use the
chart connection and the rough (Laplace-Beltrami) vector Laplacian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..geometry import MetricChart, christoffel_batch, laplacian_fd, vector_jacobian_fd
from ..geometry.calculus import FD_STEP_FIRST, FD_STEP_SECOND
from ..stochastic import PathEnsemble
from ..stochastic.manifold import transport_steps
from .estimators import (
    BinnedVectorField,
    EstimatorConfig,
    _binned_average,
    estimate_backward,
    estimate_forward,
)

@dataclass
class CovariantMeanDerivative:
    direction: str
    monte_carlo: BinnedVectorField
    analytic: np.ndarray          # bin shape + (dim,), NaN off-mask
    drift: BinnedVectorField      # estimated drift feeding the analytic form


def _eval_field(X, t, pts) -> np.ndarray:
    return np.asarray(X(t, pts), dtype=float)


def _field_time_derivative(X, t, x, dt=FD_STEP_FIRST):
    xp = _eval_field(X, t + dt, x[None])[0]
    xm = _eval_field(X, t - dt, x[None])[0]
    return (xp - xm) / (2.0 * dt)


def _at(X, t):
    """X(t, .) as a function of one point."""
    return lambda p: _eval_field(X, t, p[None])[0]


def _covariant_jacobian(chart, X, t, p):
    """V[k, b] = (nabla_b X)^k = d_b X^k + Gamma^k_{cb} X^c at a point."""
    jac = vector_jacobian_fd(_at(X, t), p)
    gam = christoffel_batch(chart, p)
    return jac + np.einsum("kcb,c->kb", gam, _eval_field(X, t, p[None])[0])


def _rough_laplacian_point(chart: MetricChart, X, t: float, x: np.ndarray) -> np.ndarray:
    """g^{ab}(d_a V_b - Gamma^e_{ab} V_e + Gamma^k_{ae} V^e_b) for V = nabla X."""
    n = chart.dimension
    ginv = chart.metric_inverse_at(x)
    gam = christoffel_batch(chart, x)
    V0 = _covariant_jacobian(chart, X, t, x)
    # dV[k, b, a] = d_a V[k, b]
    dV = vector_jacobian_fd(lambda p: _covariant_jacobian(chart, X, t, p), x, FD_STEP_SECOND)
    out = np.zeros(n)
    for a in range(n):
        for b in range(n):
            out += ginv[a, b] * (dV[:, b, a] - V0 @ gam[:, a, b] + gam[:, a, :] @ V0[:, b])
    return out


def covariant_mean_derivative(chart: MetricChart, ensemble: PathEnsemble, X,
                              config: EstimatorConfig,
                              direction: str = "forward",
                              epsilon: float | None = None) -> CovariantMeanDerivative:
    """Transported difference-quotient estimator plus the analytic form.

    X(t, x) must be vectorized over points (x of shape (B, n)).  epsilon
    defaults to the ensemble's recorded diffusion constant.
    """
    if direction not in ("forward", "backward"):
        raise ParameterError(f"direction must be forward or backward, got '{direction}'")
    if epsilon is None:
        epsilon = float(ensemble.meta.get("epsilon", 1.0))
    lag = config.lag
    dtau = lag * ensemble.dt
    paths = ensemble.paths
    times = ensemble.times
    n, dim = ensemble.n_paths, ensemble.dimension
    flat = chart.is_flat

    if direction == "forward":
        cond = paths[:, :-lag, :]
        far = paths[:, lag:, :]
        t_cond = times[:-lag]
        t_far = times[lag:]
    else:
        cond = paths[:, lag:, :]
        far = paths[:, :-lag, :]
        t_cond = times[lag:]
        t_far = times[:-lag]
    k_use = cond.shape[1]

    vec = np.empty((n, k_use, dim))
    for j in range(k_use):
        vec[:, j, :] = _eval_field(X, float(t_far[j]), far[:, j, :])

    if not flat:
        # step-by-step transport of the far-end vectors to the conditioning time
        v = vec.reshape(-1, dim)
        if direction == "forward":
            seq = range(lag, 0, -1)     # from step k+lag down to k
            frm = lambda s: paths[:, s:s + k_use, :]
            to = lambda s: paths[:, s - 1:s - 1 + k_use, :]
        else:
            seq = range(lag)            # from step k-lag up to k
            frm = lambda s: paths[:, s:s + k_use, :]
            to = lambda s: paths[:, s + 1:s + 1 + k_use, :]
        for s in seq:
            v = transport_steps(chart, frm(s).reshape(-1, dim),
                                to(s).reshape(-1, dim), v)
        vec = v.reshape(n, k_use, dim)

    here = np.empty((n, k_use, dim))
    for j in range(k_use):
        here[:, j, :] = _eval_field(X, float(t_cond[j]), cond[:, j, :])

    quot = (vec - here) / dtau if direction == "forward" else (here - vec) / dtau

    t_flat = np.broadcast_to(t_cond, (n, k_use)).reshape(-1)
    count, mean, se, cond_mean = _binned_average(config, t_flat, cond.reshape(-1, dim),
                                                 quot.reshape(-1, dim))
    mc = BinnedVectorField(config=config, values=mean, se=se, count=count,
                           cond_mean=cond_mean)

    drift = (estimate_forward if direction == "forward" else estimate_backward)(
        ensemble, config)

    analytic = np.full(config.shape + (dim,), np.nan)
    sign = 1.0 if direction == "forward" else -1.0
    centers = np.stack(np.meshgrid(*config.x_centers, indexing="ij"), axis=-1)
    dropped = 0
    for idx in np.ndindex(*config.shape):
        if not (mc.mask[idx] and drift.mask[idx]):
            continue
        # evaluate at the conditional mean (the bin is the conditioning event)
        x = np.array(mc.cond_mean[idx], dtype=float)
        if not np.all(np.isfinite(x)):
            x = np.array(centers[idx[1:]], dtype=float)
        if not np.all(chart.is_valid(x)):
            dropped += 1
            continue
        t = float(config.t_centers[idx[0]])
        beta = drift.values[idx]
        adv = vector_jacobian_fd(_at(X, t), x) @ beta
        if flat:
            lap = laplacian_fd(_at(X, t), x)
        else:
            gam = christoffel_batch(chart, x)
            adv = adv + np.einsum("kij,i,j->k", gam, _eval_field(X, t, x[None])[0], beta)
            lap = _rough_laplacian_point(chart, X, t, x)
        analytic[idx] = (_field_time_derivative(X, t, x) + adv
                         + sign * 0.5 * epsilon**2 * lap)
    if dropped:
        warnings.warn(f"{dropped} bins dropped from the analytic form "
                      "(centers outside the valid region)", stacklevel=2)
    return CovariantMeanDerivative(direction=direction, monte_carlo=mc,
                                   analytic=analytic, drift=drift)
