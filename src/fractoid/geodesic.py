"""Variational machinery: energy functionals, geodesic integration,
Euler-Lagrange residuals, first variation, and the stochastic-geodesic
criterion.

The curve energy is int g(xdot, xdot) dt (no 1/2), evaluated by trapezoid
quadrature with second-order finite-difference velocities.  The stochastic
criterion combines an analytic residual

    grad_w w + d_t w + (lap w + Ric o w) / 2

(the directionless first term is read as self-advection, the unique choice
consistent with the classical transport term and with the closed-form
solution w = x/(1+t)) with a Monte Carlo residual: the forward covariant
mean derivative of w along the ensemble.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, call_checked, check_positive
from .geometry import (
    MetricChart,
    central_difference,
    christoffel_batch,
    diag_derivative,
    laplacian_fd,
    ricci_operator,
    richardson_derivative,
)
from .meanderiv import EstimatorConfig, covariant_mean_derivative
from .meanderiv.estimators import LaggedSamples
from .stochastic import PathEnsemble
from .stochastic.ensemble import uniform_step
from .stochastic.integrator import row_chunks, step_count

VARIATION_STEP = 1e-5
RESIDUAL_FD_STEP = 1e-3
POTENTIAL_FD_STEP = 1e-6           # absolute step of the Euler-Lagrange potential gradient


@dataclass
class PathCurve:
    """A single discretized curve on a chart, on a uniform time grid by the
    grid rule of :mod:`fractoid.stochastic.ensemble`.

    velocity_data, when present (e.g. from the geodesic integrator), is
    used verbatim; otherwise velocities are finite differences of the
    points.
    """

    times: np.ndarray
    points: np.ndarray                # (K+1, dim)
    chart_name: str = "euclidean:1"
    velocity_data: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.times.shape != (self.points.shape[0],):
            raise ParameterError("curve needs times (K+1,) and points (K+1, dim)")
        if len(self.times) < (2 if self.velocity_data is not None else 3):
            raise ParameterError(f"a curve needs at least 3 nodes, 2 with velocity_data, "
                                 f"got {len(self.times)}")
        uniform_step(self.times, "times of the curve")
        if self.velocity_data is not None:
            self.velocity_data = np.asarray(self.velocity_data, dtype=float)
            if self.velocity_data.shape != self.points.shape:
                raise ParameterError("velocity_data must match the points shape")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def velocities(self) -> np.ndarray:
        """Integrator velocities if stored; otherwise central differences
        inside and 3-point one-sided stencils at the endpoints."""
        if self.velocity_data is not None:
            return self.velocity_data
        x = self.points
        dt = self.dt
        v = np.empty_like(x)
        v[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
        v[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
        v[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
        return v

    def reversed(self) -> "PathCurve":
        return PathCurve(self.times, self.points[::-1], self.chart_name)


@dataclass(frozen=True)
class LagrangianSpec:
    """L = (m/2) g(xdot, xdot) - E_u(x)."""

    potential: object | None            # callable x -> scalar (vectorized) or None
    mass: float = 1.0

    def __post_init__(self):
        check_positive("mass", self.mass)


def energy_functional(chart: MetricChart, curve: PathCurve) -> float:
    """Trapezoid quadrature of int g_ij(x) xdot^i xdot^j dt."""
    pts = chart.require_valid(curve.points)
    v = curve.velocities()
    speed2 = np.einsum("ki,ki,ki->k", v, chart.diag(pts), v)
    return float(np.trapezoid(speed2, curve.times))


def classical_geodesic(chart: MetricChart, x0, v0, T: float, dt: float) -> PathCurve:
    """RK4 integration of xddot^k + Gamma^k_{ij} xdot^i xdot^j = 0.

    If the trajectory leaves the valid region the curve is truncated at the
    last valid node with a warning, or a DomainError at the first step.
    """
    x0 = chart.require_valid(np.asarray(x0, dtype=float))
    v0 = np.asarray(v0, dtype=float)
    K = step_count(T, dt)

    def acc(x, v):
        gamma = christoffel_batch(chart, x)
        return -np.einsum("kij,i,j->k", gamma, v, v)

    xs = [x0.copy()]
    vs = [v0.copy()]
    x, v = x0.copy(), v0.copy()
    for k in range(K):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acc(x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not np.all(chart.is_valid(x)):
            left = f"geodesic left the valid region of '{chart.name}' at step {k + 1}"
            if k == 0:
                raise DomainError(f"{left}: no curve but its start point remains")
            warnings.warn(f"{left}; curve truncated", stacklevel=2)
            break
        xs.append(x.copy())
        vs.append(v.copy())
    pts = np.array(xs)
    times = np.arange(len(pts)) * dt
    return PathCurve(times=times, points=pts, chart_name=chart.name,
                     velocity_data=np.array(vs))


def euler_lagrange_residual(chart: MetricChart, curve: PathCurve,
                            lagrangian: LagrangianSpec) -> np.ndarray:
    """Discrete residual of d/dt (dL/dxdot) - dL/dx at interior nodes.

    Only pure central stencils are used (velocities at nodes 1..K-1, their
    time derivative at nodes 2..K-2), which keeps the residual uniformly
    second order; the returned array covers nodes 2..K-2.
    """
    if curve.points.shape[0] < 5:
        raise ParameterError("need at least K >= 4 intervals")
    pts = curve.points
    dt = curve.dt
    m = lagrangian.mass
    v = (pts[2:] - pts[:-2]) / (2.0 * dt)            # nodes 1..K-1
    p = m * (chart.diag(pts[1:-1]) * v)              # dL/dxdot at 1..K-1
    dpdt = (p[2:] - p[:-2]) / (2.0 * dt)             # nodes 2..K-2
    inner = pts[2:-2]
    v_in = v[1:-1]
    dg = diag_derivative(chart, inner)               # (s, k, i) = d_k g_ii
    dLdx = 0.5 * m * np.einsum("ski,si,si->sk", dg, v_in, v_in)
    if lagrangian.potential is not None:
        grad = np.stack([central_difference(lagrangian.potential, inner, a, POTENTIAL_FD_STEP)
                         for a in range(inner.shape[1])], axis=-1)
        dLdx = dLdx - grad
    return dpdt - dLdx


def first_variation(chart: MetricChart, curve: PathCurve,
                    perturbation: np.ndarray) -> float:
    """dE/d eps at eps = 0 by a central difference of the energy, with the
    absolute step VARIATION_STEP.

    The perturbation must vanish at both endpoints (fixed-endpoint
    variation); a violation raises ParameterError.
    """
    eta = np.asarray(perturbation, dtype=float)
    if eta.shape != curve.points.shape:
        raise ParameterError("perturbation must match the curve shape")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(eta))))
    if np.linalg.norm(eta[0]) > tol or np.linalg.norm(eta[-1]) > tol:
        raise ParameterError("perturbation must vanish at both endpoints")

    def energy(eps):
        return energy_functional(chart, PathCurve(curve.times, curve.points + eps[0] * eta,
                                                  curve.chart_name))

    return float(central_difference(energy, np.zeros(1), 0, VARIATION_STEP))


def stochastic_energy(ensemble: PathEnsemble, chart: MetricChart,
                      config: EstimatorConfig) -> tuple[float, float]:
    """Monte Carlo E int ||D w(t, x_t)||^2 dt via the forward estimator.

    The integrand uses the per-bin forward mean derivative of the ensemble
    itself, with the estimator variance subtracted so the plug-in square is
    unbiased, read through each block's bin index and summed per path in
    the row chunks of each block.  Returns (estimate, standard error).
    """
    samples = LaggedSamples(ensemble, config)
    fwd = samples.mean_derivative("forward")
    near, _ = samples.ends("forward")
    n, dim = ensemble.n_paths, ensemble.dimension
    # per-bin lookups with a row for the overflow bin, which has no value
    vals_of, ses_of = (np.concatenate([a.reshape(-1, dim), np.full((1, dim), np.nan)])
                       for a in (fwd.values, fwd.se))
    known_of = np.isfinite(vals_of).all(axis=1)
    vals_of, se2_of = np.nan_to_num(vals_of), np.nan_to_num(ses_of) ** 2
    per_path, finite = np.empty(n), 0
    for rows, paths, index in samples.blocks():
        out = per_path[rows]
        for chunk in row_chunks(len(paths), samples.n_increments):
            bins = index[chunk, near]
            gdiag = chart.diag(paths[chunk, near])
            vals = vals_of[bins]
            norm2 = np.einsum("...i,...i,...i->...", vals, gdiag, vals)
            # E||Dhat||^2 exceeds ||D||^2 by the estimator variance; subtract it.
            corr = np.sum(gdiag * se2_of[bins], axis=-1)
            integrand = np.where(known_of[bins], norm2 - corr, np.nan)
            out[chunk] = np.nansum(integrand, axis=1) * ensemble.dt
            finite += int(np.count_nonzero(np.isfinite(integrand)))
    frac = finite / (n * samples.n_increments)
    if frac < 1.0:
        per_path = per_path / max(frac, 1e-12)   # renormalize for excluded bins
    est = float(np.mean(per_path))
    se_paths = float(np.std(per_path, ddof=1) / np.sqrt(n))
    # The bin estimates are shared across paths, so their noise does not
    # show up in the path-to-path spread; add it explicitly.
    mask = fwd.mask
    weights = fwd.count / max(int(np.sum(fwd.count[mask])), 1)
    duration = ensemble.times[-1] - ensemble.times[0]
    grad = 2.0 * np.abs(np.nan_to_num(fwd.values[mask]))
    var_bins = np.sum((weights[mask, None] * grad * fwd.se[mask]) ** 2) * duration**2
    return est, float(np.sqrt(se_paths**2 + var_bins))


@dataclass
class GeodesicCriterion:
    analytic_residual: float           # max norm over probe points
    monte_carlo: object                # CovariantMeanDerivative (forward, X = w)
    max_z: float                       # max |mc| / se over populated bins


def stochastic_geodesic_criterion(chart: MetricChart, w, ensemble: PathEnsemble,
                                  config: EstimatorConfig) -> GeodesicCriterion:
    """Evaluate both residuals of the critical-path condition.

    (i)  analytic: || grad_w w + d_t w + (lap w + Ric o w)/2 || on a 5^n
         grid of probe points spanning the ensemble's 15-85 percentiles, at
         three times; derivatives by Richardson-extrapolated central
         differences; a NaN residual is left out, and a warning counts them;
    (ii) Monte Carlo: the forward covariant mean derivative of w along the
         ensemble, which should vanish within statistical error.
    w(t, x) maps points (..., n) to (..., n), else ParameterError.
    """
    dim = chart.dimension
    lo, hi = np.nanpercentile(ensemble.paths, [15, 85], axis=(0, 1))
    axes = [np.linspace(lo[a], hi[a], 5) for a in range(dim)]
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    probe_times = np.linspace(ensemble.times[1], ensemble.times[-2], 3)

    x = probes[chart.is_valid(probes)]
    h = RESIDUAL_FD_STEP * np.maximum(1.0, np.abs(x))
    worst, n_nan = 0.0, 0
    for t in probe_times:
        w_t = lambda p: w(t, p)
        wx = call_checked(w, "w", x.shape, t, x)
        jac = np.stack([richardson_derivative(w_t, x, a, h[:, a]) for a in range(dim)],
                       axis=-1)
        adv = (jac @ wx[..., None])[..., 0]
        dt_w = richardson_derivative(lambda tt: w(tt[0], x),
                                     np.array([t]), 0, RESIDUAL_FD_STEP * max(1.0, abs(t)))
        lap = laplacian_fd(w_t, x, RESIDUAL_FD_STEP)
        ric = np.zeros_like(wx)
        if not chart.is_flat:
            adv = adv + np.einsum("...kij,...i,...j->...k", christoffel_batch(chart, x), wx, wx)
            ric = (ricci_operator(chart, x) @ wx[..., None])[..., 0]
        r = adv + dt_w + 0.5 * (lap + ric)
        # the largest r . r so far: a matmul reduces as np.linalg.norm's dot
        # does, so each probe's norm keeps its bits; fmax skips a NaN probe
        rr = (r[:, None, :] @ r[:, :, None]).ravel()
        n_nan += int(np.count_nonzero(np.isnan(rr)))
        worst = np.fmax.reduce(rr, initial=worst)
    if n_nan:
        warnings.warn(f"{n_nan} of {len(x) * len(probe_times)} probe residuals are NaN "
                      "and left out of the analytic residual", stacklevel=2)

    mc = covariant_mean_derivative(chart, ensemble, w, config, direction="forward")
    mask = mc.monte_carlo.mask
    vals = np.abs(mc.monte_carlo.values[mask])
    ses = mc.monte_carlo.se[mask]
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(ses > 0, vals / ses, np.where(vals > 0, np.inf, 0.0))
    return GeodesicCriterion(analytic_residual=float(np.sqrt(worst)), monte_carlo=mc,
                             max_z=float(np.max(z)) if z.size else 0.0)
