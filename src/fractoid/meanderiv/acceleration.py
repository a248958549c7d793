"""Stochastic mean acceleration from binned velocity fields.

Two routes are provided and must agree on flat charts:

* :func:`mean_acceleration` evaluates the single composed formula
  a = d_t w1 + (w1.grad) w1 - (w2.grad) w2 - (eps^2/2) lap w2
  with all derivatives as central differences on the bin grid;
* :func:`acceleration_decomposed` evaluates the two-operator split
  a = D_s w1 - D_L w2 with the chart's covariant advection and the rough
  (Laplace-Beltrami) vector Laplacian on curved charts.

A grid with a single time bin asserts stationarity: the time-derivative
term is taken to be zero there; otherwise the time bin centers must be
uniform (:func:`fractoid.stochastic.ensemble.uniform_step`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..geometry import MetricChart, christoffel_batch, ricci_operator
from ..stochastic.ensemble import uniform_step
from .estimators import EstimatorConfig, MeanDerivativeField


@dataclass
class AccelerationField:
    config: EstimatorConfig
    values: np.ndarray          # shape + (dim,)
    mask: np.ndarray            # bins where every needed derivative existed
    method: str                 # "composition" | "decomposition"


def _bin_diff(values: np.ndarray, good: np.ndarray, axis: int, step: float | None = None,
              coords: np.ndarray | None = None, second: bool = False):
    """Masked central difference along a bin axis: the first difference over
    a uniform step, or, with coords given (one abscissa per bin along this
    axis, e.g. the conditional means), the three-point nonuniform first (or,
    with second=True, second) difference.  Bins need both neighbors
    populated to be valid.
    """
    der = np.full_like(values, np.nan)
    valid = np.zeros(good.shape, dtype=bool)
    if values.shape[axis] < 3:
        return der, valid
    lead = (slice(None),) * axis                # the stencil's index tuples
    mid, up, down = (lead + (s,) for s in (slice(1, -1), slice(2, None), slice(None, -2)))
    if coords is None:
        der[mid] = (values[up] - values[down]) / (2.0 * step)
    else:
        hp = (coords[up] - coords[mid])[..., None]
        hm = (coords[mid] - coords[down])[..., None]
        if second:
            num = 2.0 * (hm * values[up] + hp * values[down] - (hp + hm) * values[mid])
        else:
            num = hm**2 * values[up] - hp**2 * values[down] + (hp**2 - hm**2) * values[mid]
        der[mid] = num / (hp * hm * (hp + hm))
    valid[mid] = good[mid] & good[up] & good[down]
    return der, valid


def _grad_fields(values: np.ndarray, good: np.ndarray, config: EstimatorConfig,
                 points: np.ndarray, second: bool = False):
    """Spatial derivatives d_a w^c (or, with second=True, d_a d_a w^c) per
    bin on the per-bin abscissas points (shape + (dim,)); returns
    (derivative list, joint validity)."""
    grads = []
    valid = good.copy()
    for a in range(config.dimension):
        der, ok = _bin_diff(values, good, axis=1 + a, coords=points[..., a],
                            second=second)
        grads.append(der)
        valid &= ok
    return grads, valid


def _laplacian(values, good, config, points):
    """Flat Laplacian per bin, invalid terms summed as zero; with validity."""
    der2, valid = _grad_fields(values, good, config, points, second=True)
    return sum(np.where(np.isnan(d), 0.0, d) for d in der2), valid


def _advection(w: np.ndarray, grads: list[np.ndarray]) -> np.ndarray:
    """(w . grad) w per bin from precomputed gradients."""
    out = np.zeros_like(w)
    for a, der in enumerate(grads):
        out += w[..., a:a + 1] * der
    return out


def _time_derivative(values: np.ndarray, good: np.ndarray, config: EstimatorConfig):
    if config.n_time_bins == 1:
        # Single time bin: stationary grid, the time term is zero.
        return np.zeros_like(values), good.copy()
    return _bin_diff(values, good, axis=0,
                     step=uniform_step(config.t_centers, "time bin centers"))


def mean_acceleration(field: MeanDerivativeField, epsilon: float) -> AccelerationField:
    """Composed acceleration on the bin grid (flat-chart formula).

    Spatial derivatives are central differences on the conditional-mean
    abscissas (nonuniform 3-point stencils), which removes the shrinkage
    bias of differencing bin-mean values at geometric centers.
    """
    cfg = field.config
    good = field.mask
    w1, w2 = field.current, field.osmotic
    points = cfg.evaluation_points(field.cond_mean)
    dt_w1, ok_t = _time_derivative(w1, good, cfg)
    g1, ok1 = _grad_fields(w1, good, cfg, points)
    g2, ok2 = _grad_fields(w2, good, cfg, points)
    lap_w2, ok_lap = _laplacian(w2, good, cfg, points)
    values = dt_w1 + _advection(w1, g1) - _advection(w2, g2) - 0.5 * epsilon**2 * lap_w2
    mask = good & ok_t & ok1 & ok2 & ok_lap
    dropped = int(np.count_nonzero(good & ~mask))
    if dropped:
        warnings.warn(f"{dropped} populated bins lack neighbors for central "
                      "differences and were excluded", stacklevel=2)
    values[~mask] = np.nan
    return AccelerationField(config=cfg, values=values, mask=mask, method="composition")


def _covariant_grad(values, good, config, gamma, points):
    """First covariant derivative V[..., a, c] = d_a w^c + Gamma^c_{ab} w^b."""
    grads, valid = _grad_fields(values, good, config, points)
    V = np.stack(grads, axis=-2)                   # (..., a, c)
    if gamma is not None:
        V = V + np.einsum("...cab,...b->...ac", gamma, np.nan_to_num(values))
    return V, valid


def acceleration_decomposed(field: MeanDerivativeField, chart: MetricChart,
                            epsilon: float) -> AccelerationField:
    """D_s w1 - D_L w2 with covariant advection and the rough Laplacian."""
    cfg = field.config
    if chart.dimension != cfg.dimension:
        raise ParameterError("chart dimension does not match the bin grid")
    good = field.mask
    w1, w2 = field.current, field.osmotic
    centers = cfg.center_mesh
    region = chart.is_valid(centers)
    flat = chart.is_flat

    gamma = ginv = None
    if not flat:
        pts = centers.reshape(-1, cfg.dimension)
        inside = region.ravel()
        gamma = np.full(pts.shape[:1] + (cfg.dimension,) * 3, np.nan)
        ginv = np.full(pts.shape, np.nan)          # the diagonal of g^{-1}
        if np.any(inside):
            gamma[inside] = christoffel_batch(chart, pts[inside])
            ginv[inside] = 1.0 / chart.diag(pts[inside])
        gamma = np.broadcast_to(gamma.reshape(cfg.shape[1:] + (cfg.dimension,) * 3),
                                cfg.shape + (cfg.dimension,) * 3)
        ginv = ginv.reshape(centers.shape)        # broadcast over time by einsum

    points = cfg.evaluation_points(field.cond_mean)
    dt_w1, ok_t = _time_derivative(w1, good, cfg)
    V1, ok1 = _covariant_grad(w1, good, cfg, gamma, points)
    V2, ok2 = _covariant_grad(w2, good, cfg, gamma, points)
    adv1 = np.einsum("...a,...ac->...c", np.nan_to_num(w1), V1)
    adv2 = np.einsum("...a,...ac->...c", np.nan_to_num(w2), V2)

    if flat:
        lap_w2, ok_lap = _laplacian(w2, good, cfg, points)
    else:
        # Rough Laplacian: g^{ab} (d_a V_b^c - Gamma^e_{ab} V_e^c + Gamma^c_{ae} V_b^e)
        ok_lap = ok2.copy()
        dV = []
        for a in range(cfg.dimension):
            der, okd = _bin_diff(V2, ok2, axis=1 + a, step=cfg.x_steps[a])
            dV.append(der)
            ok_lap &= okd
        dV = np.stack(dV, axis=-3)                  # (..., a, b, c)
        corr1 = np.einsum("...eab,...ec->...abc", gamma, np.nan_to_num(V2))
        corr2 = np.einsum("...cae,...be->...abc", gamma, np.nan_to_num(V2))
        lap_w2 = np.einsum("...a,...aac->...c",
                           ginv, np.nan_to_num(dV) - corr1 + corr2)

    values = dt_w1 + adv1 - adv2 - 0.5 * epsilon**2 * lap_w2
    mask = good & ok_t & ok1 & ok2 & ok_lap
    if not flat:
        mask &= region
    dropped = int(np.count_nonzero(good & ~mask))
    if dropped:
        warnings.warn(f"{dropped} populated bins excluded from the decomposed "
                      "acceleration (missing neighbors or invalid centers)",
                      stacklevel=2)
    values[~mask] = np.nan
    return AccelerationField(config=cfg, values=values, mask=mask, method="decomposition")


def ricci_correction(chart: MetricChart, field: MeanDerivativeField,
                     hbar_over_m: float) -> np.ndarray:
    """(hbar/2m) Ric o w2 per populated bin (Ricci as a (1,1)-tensor)."""
    cfg = field.config
    centers = np.broadcast_to(cfg.center_mesh, cfg.shape + (cfg.dimension,))
    out = np.full(cfg.shape + (cfg.dimension,), np.nan)
    use = field.mask.copy()
    use[use] = chart.is_valid(centers[use])
    ric = ricci_operator(chart, centers[use])
    out[use] = ((0.5 * hbar_over_m * ric) @ field.osmotic[use][..., None])[..., 0]
    return out
