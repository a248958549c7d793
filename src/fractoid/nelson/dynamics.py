"""Newton-Nelson residuals and the quadratic-variation law on ensembles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import call_checked
from ..geometry import MetricChart
from ..geometry.charts import diag_matrix
from ..meanderiv import (
    EstimatorConfig,
    estimate_velocity_fields,
    mean_acceleration,
    quadratic_variation_matrix,
    ricci_correction,
)
from ..stochastic import PathEnsemble

RELATIVE_FLOOR = 1e-8
# quadratic-variation pass rules: flat diagonals, curved Frobenius mismatch
QV_DIAGONAL_RTOL = 0.02
QV_CURVED_RTOL = 0.05


@dataclass
class NewtonNelsonResult:
    """Per-bin acceleration vs force/mass comparison with pooled statistics."""

    config: EstimatorConfig
    bin_centers: np.ndarray        # (n_bins, dim), populated bins only
    bin_counts: np.ndarray
    acceleration: np.ndarray       # (n_bins, dim)
    target: np.ndarray             # force/mass (+ Ricci term) at the centers
    residual: np.ndarray           # per-bin norm ||a - target||
    relative_residual: np.ndarray
    median: float
    p90: float
    n_bins: int


def newton_nelson_residual(ensemble: PathEnsemble, force, mass: float,
                           chart: MetricChart, include_ricci: bool,
                           config: EstimatorConfig,
                           epsilon: float | None = None) -> NewtonNelsonResult:
    """Compare the estimated mean acceleration with force/mass per bin.

    force(x) maps points (n, dim) to (n, dim).  With include_ricci the
    curvature term (hbar/2m) Ric o w2 is added to the target, hbar = eps^2 m.
    """
    if epsilon is None:
        epsilon = float(ensemble.meta.get("epsilon", 1.0))
    field = estimate_velocity_fields(ensemble, config)
    accel = mean_acceleration(field, epsilon)
    mask = accel.mask
    if include_ricci and not chart.is_flat:
        ric_term = ricci_correction(chart, field, hbar_over_m=epsilon**2)
    else:
        ric_term = np.zeros_like(field.osmotic)

    pts = config.evaluation_points(field.cond_mean)[mask]
    targ = call_checked(force, "force", pts.shape, pts) / mass + np.nan_to_num(ric_term[mask])
    acc = accel.values[mask]
    resid = np.linalg.norm(acc - targ, axis=-1)
    scale = np.maximum(np.linalg.norm(targ, axis=-1), RELATIVE_FLOOR)
    rel = resid / scale
    return NewtonNelsonResult(
        config=config,
        bin_centers=pts,
        bin_counts=field.count[mask],
        acceleration=acc,
        target=targ,
        residual=resid,
        relative_residual=rel,
        median=float(np.median(rel)) if len(rel) else float("nan"),
        p90=float(np.percentile(rel, 90)) if len(rel) else float("nan"),
        n_bins=int(mask.sum()),
    )


@dataclass
class QuadraticVariationLaw:
    passed: bool
    reason: str
    values: np.ndarray             # bin shape + (dim, dim)
    target: np.ndarray             # expected matrix per bin
    se: np.ndarray
    count: np.ndarray


def quadratic_variation_law(ensemble: PathEnsemble, config: EstimatorConfig,
                            chart: MetricChart | None = None,
                            hbar_over_m: float = 1.0) -> QuadraticVariationLaw:
    """Per-bin increment covariance against (hbar/m) I, or eps^2 g^{-1} on
    curved charts.

    Flat pass rule: diagonals within QV_DIAGONAL_RTOL of hbar/m and
    off-diagonals within 3 standard errors of 0.  Curved pass rule: the
    Frobenius mismatch per bin is below QV_CURVED_RTOL of the target norm.
    """
    eps = float(ensemble.meta.get("epsilon", np.sqrt(hbar_over_m)))
    qv = quadratic_variation_matrix(ensemble, config)
    mask = qv.mask
    dim = ensemble.dimension
    if eps == 0.0:
        target = np.zeros_like(qv.values)
        return QuadraticVariationLaw(False, "deterministic ensemble (epsilon = 0)",
                                     qv.values, target, qv.se, qv.count)

    if chart is None or chart.is_flat:
        target = np.broadcast_to(hbar_over_m * np.eye(dim), qv.values.shape).copy()
        diag = np.arange(dim)
        vals = qv.values[mask]
        ses = qv.se[mask]
        diag_ok = np.all(np.abs(vals[:, diag, diag] - hbar_over_m)
                         <= QV_DIAGONAL_RTOL * hbar_over_m)
        off = ~np.eye(dim, dtype=bool)
        off_ok = np.all(np.abs(vals[:, off]) <= 3.0 * ses[:, off]) if dim > 1 else True
        passed = bool(diag_ok and off_ok)
        reason = "ok" if passed else (
            "diagonals outside tolerance" if not diag_ok else "off-diagonals beyond 3 sigma")
        return QuadraticVariationLaw(passed, reason, qv.values, target, qv.se, qv.count)

    centers = np.broadcast_to(config.center_mesh, config.shape + (dim,))
    use = mask.copy()
    use[use] = np.asarray(chart.is_valid(centers[use]), dtype=bool)
    target = np.full(qv.values.shape, np.nan)
    target[use] = eps**2 * diag_matrix(chart.inverse_diag(centers[use]))
    # matmuls of the raveled bins reduce as np.linalg.norm's dot does: same bits
    d = (qv.values[use] - target[use]).reshape(-1, 1, dim * dim)
    g = target[use].reshape(-1, 1, dim * dim)
    ok = not np.any(np.sqrt(d @ d.swapaxes(1, 2)) > QV_CURVED_RTOL * np.sqrt(g @ g.swapaxes(1, 2)))
    reason = "ok" if ok else "covariance does not match eps^2 g^{-1}"
    return QuadraticVariationLaw(bool(ok), reason, qv.values, target, qv.se, qv.count)
