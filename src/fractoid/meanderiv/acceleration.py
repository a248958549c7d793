"""Stochastic mean acceleration from binned velocity fields.

Two routes are provided and must agree on flat charts:

* :func:`mean_acceleration` evaluates the single composed formula
  a = d_t w1 + (w1.grad) w1 - (w2.grad) w2 - (eps^2/2) lap w2
  with all derivatives as central differences on the bin grid;
* :func:`acceleration_decomposed` evaluates the two-operator split
  a = D_s w1 - D_L w2 with the chart's covariant advection and the rough
  (Laplace-Beltrami) vector Laplacian on curved charts.

A grid with a single time bin asserts stationarity: the time-derivative
term is taken to be zero there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..geometry import MetricChart, christoffel_batch, ricci_operator
from ..geometry.charts import diag_matrix
from .estimators import EstimatorConfig, MeanDerivativeField


@dataclass
class AccelerationField:
    config: EstimatorConfig
    values: np.ndarray          # shape + (dim,)
    mask: np.ndarray            # bins where every needed derivative existed
    method: str                 # "composition" | "decomposition"


def _time_step(config: EstimatorConfig) -> float:
    tc = config.t_centers
    if len(tc) < 2:
        return 0.0
    steps = np.diff(tc)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
        raise ParameterError("time derivative needs uniformly spaced time bins")
    return float(steps[0])


def _axis_slices(values: np.ndarray, axis: int):
    sl = [slice(None)] * values.ndim

    def ax(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    return ax(slice(1, -1)), ax(slice(2, None)), ax(slice(None, -2))


def _central_diff(values: np.ndarray, good: np.ndarray, axis: int, step: float,
                  coords: np.ndarray | None = None):
    """Masked central difference along a bin axis.

    With coords given (one abscissa per bin along this axis, e.g. the
    conditional means), the three-point nonuniform formula is used; bins
    need both neighbors populated to be valid.
    """
    der = np.full_like(values, np.nan)
    valid = np.zeros(good.shape, dtype=bool)
    if values.shape[axis] < 3:
        return der, valid
    mid, up, down = _axis_slices(values, axis)
    gmid, gup, gdown = _axis_slices(good, axis)
    gm = good[gmid] & good[gup] & good[gdown]
    if coords is None:
        der[mid] = (values[up] - values[down]) / (2.0 * step)
    else:
        cmid, cup, cdown = _axis_slices(coords, axis)
        hp = (coords[cup] - coords[cmid])[..., None]
        hm = (coords[cmid] - coords[cdown])[..., None]
        der[mid] = (hm**2 * values[up] - hp**2 * values[down]
                    + (hp**2 - hm**2) * values[mid]) / (hp * hm * (hp + hm))
    valid[gmid] = gm
    return der, valid


def _second_diff(values: np.ndarray, good: np.ndarray, axis: int, step: float,
                 coords: np.ndarray | None = None):
    der = np.full_like(values, np.nan)
    valid = np.zeros(good.shape, dtype=bool)
    if values.shape[axis] < 3:
        return der, valid
    mid, up, down = _axis_slices(values, axis)
    gmid, gup, gdown = _axis_slices(good, axis)
    gm = good[gmid] & good[gup] & good[gdown]
    if coords is None:
        der[mid] = (values[up] - 2.0 * values[mid] + values[down]) / step**2
    else:
        cmid, cup, cdown = _axis_slices(coords, axis)
        hp = (coords[cup] - coords[cmid])[..., None]
        hm = (coords[cmid] - coords[cdown])[..., None]
        der[mid] = 2.0 * (hm * values[up] + hp * values[down]
                          - (hp + hm) * values[mid]) / (hp * hm * (hp + hm))
    valid[gmid] = gm
    return der, valid


def _grad_fields(values: np.ndarray, good: np.ndarray, config: EstimatorConfig,
                 points: np.ndarray):
    """Spatial gradient d_a w^c per bin on the per-bin abscissas points
    (shape + (dim,)); returns (grads list, joint validity)."""
    steps = config.x_steps
    grads = []
    valid = good.copy()
    for a in range(config.dimension):
        der, ok = _central_diff(values, good, axis=1 + a, step=steps[a],
                                coords=points[..., a])
        grads.append(der)
        valid &= ok
    return grads, valid


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
    return _central_diff(values, good, axis=0, step=_time_step(config))


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
    lap_w2 = np.zeros_like(w2)
    ok_lap = good.copy()
    for a in range(cfg.dimension):
        der2, okd = _second_diff(w2, good, axis=1 + a, step=cfg.x_steps[a],
                                 coords=points[..., a])
        lap_w2 += np.where(np.isnan(der2), 0.0, der2)
        ok_lap &= okd
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
    region = np.broadcast_to(chart.is_valid(centers), cfg.shape[1:])
    flat = chart.is_flat

    gamma = None
    ginv = None
    if not flat:
        pts = centers.reshape(-1, cfg.dimension)
        inside = np.asarray(chart.is_valid(pts), dtype=bool)
        gamma = np.full(pts.shape[:1] + (cfg.dimension,) * 3, np.nan)
        ginv = np.full(pts.shape[:1] + (cfg.dimension,) * 2, np.nan)
        if np.any(inside):
            gamma[inside] = christoffel_batch(chart, pts[inside])
            ginv[inside] = diag_matrix(1.0 / chart.diag(pts[inside]))
        gamma = np.broadcast_to(gamma.reshape(cfg.shape[1:] + (cfg.dimension,) * 3),
                                cfg.shape + (cfg.dimension,) * 3)
        ginv = np.broadcast_to(ginv.reshape(cfg.shape[1:] + (cfg.dimension,) * 2),
                               cfg.shape + (cfg.dimension,) * 2)

    points = cfg.evaluation_points(field.cond_mean)
    dt_w1, ok_t = _time_derivative(w1, good, cfg)
    V1, ok1 = _covariant_grad(w1, good, cfg, gamma, points)
    V2, ok2 = _covariant_grad(w2, good, cfg, gamma, points)
    adv1 = np.einsum("...a,...ac->...c", np.nan_to_num(w1), V1)
    adv2 = np.einsum("...a,...ac->...c", np.nan_to_num(w2), V2)

    if flat:
        lap_w2 = np.zeros_like(w2)
        ok_lap = good.copy()
        for a in range(cfg.dimension):
            der2, okd = _second_diff(w2, good, axis=1 + a, step=cfg.x_steps[a],
                                     coords=points[..., a])
            lap_w2 += np.where(np.isnan(der2), 0.0, der2)
            ok_lap &= okd
    else:
        # Rough Laplacian: g^{ab} (d_a V_b^c - Gamma^e_{ab} V_e^c + Gamma^c_{ae} V_b^e)
        ok_lap = ok2.copy()
        dV = []
        for a in range(cfg.dimension):
            der, okd = _central_diff(V2, ok2, axis=1 + a, step=cfg.x_steps[a])
            dV.append(der)
            ok_lap &= okd
        dV = np.stack(dV, axis=-3)                  # (..., a, b, c)
        corr1 = np.einsum("...eab,...ec->...abc", gamma, np.nan_to_num(V2))
        corr2 = np.einsum("...cae,...be->...abc", gamma, np.nan_to_num(V2))
        lap_w2 = np.einsum("...ab,...abc->...c",
                           ginv, np.nan_to_num(dV) - corr1 + corr2)

    values = dt_w1 + adv1 - adv2 - 0.5 * epsilon**2 * lap_w2
    mask = good & ok_t & ok1 & ok2 & ok_lap
    if not flat:
        mask &= np.broadcast_to(region, cfg.shape)
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
    centers = cfg.center_mesh
    out = np.full(cfg.shape + (cfg.dimension,), np.nan)
    ric_cache: dict[tuple, np.ndarray] = {}
    it = np.ndindex(*cfg.shape)
    for idx in it:
        if not field.mask[idx]:
            continue
        xkey = idx[1:]
        if xkey not in ric_cache:
            x = centers[xkey]
            if not np.all(chart.is_valid(x)):
                ric_cache[xkey] = None
            else:
                ric_cache[xkey] = ricci_operator(chart, x)
        ric = ric_cache[xkey]
        if ric is None:
            continue
        out[idx] = 0.5 * hbar_over_m * ric @ field.osmotic[idx]
    return out
