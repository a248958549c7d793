"""Covariant mean derivatives of a vector field along a path ensemble.

The Monte Carlo route transports the field value at the displaced time back
to the conditioning point before differencing.  Its quotients are formed
per row chunk of paths inside the function the bin average calls, one time
step at a time, so neither the field values nor the transport's Christoffel
symbols are held for more than one chunk of paths.  The analytic route
evaluates

    forward:  dX/dt + grad_drift X + (eps^2/2) lap X
    backward: dX/dt + grad_drift X - (eps^2/2) lap X

at the bin centers, using the ensemble's own estimated drift, so the two
pipelines can be cross-checked bin by bin.  It evaluates every populated
bin of a time bin in one batch of points.  On flat charts the transport is
the identity and the Laplacian is componentwise; curved charts use the
chart connection and the rough (Laplace-Beltrami) vector Laplacian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import call_checked
from ..geometry import (
    MetricChart,
    central_difference,
    christoffel_batch,
    laplacian_fd,
    vector_jacobian_fd,
)
from ..geometry.calculus import FD_STEP_FIRST, FD_STEP_SECOND
from ..stochastic import PathEnsemble
from ..stochastic.manifold import transport_steps
from .estimators import BinnedField, EstimatorConfig, LaggedSamples

@dataclass
class CovariantMeanDerivative:
    direction: str
    monte_carlo: BinnedField
    analytic: np.ndarray          # bin shape + (dim,), NaN off-mask
    drift: BinnedField            # estimated drift feeding the analytic form


def _covariant_jacobian(chart, X, t, p):
    """V[..., k, b] = (nabla_b X)^k = d_b X^k + Gamma^k_{cb} X^c at points (..., n)."""
    jac = vector_jacobian_fd(lambda q: X(t, q), p)
    gam = christoffel_batch(chart, p)
    return jac + np.einsum("...kcb,...c->...kb", gam, X(t, p))


def _rough_laplacian(chart: MetricChart, X, t: float, x: np.ndarray) -> np.ndarray:
    """g^{aa}(d_a V_a - Gamma^e_{aa} V_e + Gamma^k_{ae} V^e_a) for V = nabla X,
    at points (..., n)."""
    ginv = chart.inverse_diag(x)
    gam = christoffel_batch(chart, x)
    V0 = _covariant_jacobian(chart, X, t, x)
    # dV[..., k, b, a] = d_a V[..., k, b]
    dV = vector_jacobian_fd(lambda p: _covariant_jacobian(chart, X, t, p), x, FD_STEP_SECOND)
    out = np.zeros(x.shape)
    for a in range(chart.dimension):
        out += ginv[..., a, None] * (dV[..., :, a, a]
                                     - (V0 @ gam[..., :, a, a, None])[..., 0]
                                     + (gam[..., :, a, :] @ V0[..., :, a, None])[..., 0])
    return out


def covariant_mean_derivative(chart: MetricChart, ensemble: PathEnsemble, X,
                              config: EstimatorConfig,
                              direction: str = "forward",
                              epsilon: float | None = None) -> CovariantMeanDerivative:
    """Transported difference-quotient estimator plus the analytic form.

    X(t, x) maps points (B, n) to (B, n), else ParameterError: each call is
    one time step of one row chunk of paths (:meth:`LaggedSamples.average`).
    epsilon defaults to the ensemble's recorded diffusion constant.
    """
    if epsilon is None:
        epsilon = float(ensemble.meta.get("epsilon", 1.0))
    samples = LaggedSamples(ensemble, config)
    flat = chart.is_flat
    steps = range(ensemble.n_steps + 1)
    ends = [steps[end] for end in samples.ends(direction)]   # (conditioning, far)

    def field_at(paths, k):
        return call_checked(X, "X", paths[:, k].shape, float(ensemble.times[k]), paths[:, k])

    def quotient(paths, near, far):
        """X at step far of a chunk's paths (B, K+1, dim), transported one
        step at a time to step near, differenced with X at step near."""
        vec = field_at(paths, far)
        hop = 1 if near > far else -1
        for k in (() if flat else range(far, near, hop)):
            vec = transport_steps(chart, paths[:, k], paths[:, k + hop], vec)
        here = field_at(paths, near)
        return (vec - here if direction == "forward" else here - vec) / samples.dtau

    def quotients(rows, paths):
        # one time step per call, so the transport holds B segments, not B K
        return np.stack([quotient(paths, *ks) for ks in zip(*ends)], axis=1)

    mc = samples.average(direction, quotients)
    drift = samples.mean_derivative(direction)

    analytic = np.full(config.shape + (ensemble.dimension,), np.nan)
    sign = 1.0 if direction == "forward" else -1.0
    points = config.evaluation_points(mc.cond_mean)
    use = mc.mask & drift.mask
    inside = chart.is_valid(points[use])
    dropped = int(np.count_nonzero(~inside))
    use[use] = inside
    for i, t in enumerate(config.t_centers.tolist()):
        if not np.any(use[i]):
            continue
        x, beta = points[i][use[i]], drift.values[i][use[i]]
        field = lambda p: X(t, p)
        adv = (vector_jacobian_fd(field, x) @ beta[..., None])[..., 0]
        if flat:
            lap = laplacian_fd(field, x)
        else:
            gam = christoffel_batch(chart, x)
            adv = adv + np.einsum("...kij,...i,...j->...k", gam, field(x), beta)
            lap = _rough_laplacian(chart, X, t, x)
        # the time difference keeps an absolute step
        dX_dt = central_difference(lambda s: X(s[0], x),
                                   np.array([t]), 0, FD_STEP_FIRST)
        analytic[i][use[i]] = dX_dt + adv + sign * 0.5 * epsilon**2 * lap
    if dropped:
        warnings.warn(f"{dropped} bins dropped from the analytic form (their "
                      "evaluation points, the conditional means, are outside "
                      "the valid region)", stacklevel=2)
    return CovariantMeanDerivative(direction=direction, monte_carlo=mc,
                                   analytic=analytic, drift=drift)
