"""Diffusions on curved charts, stochastic parallel transport, and the
orthonormal-frame-bundle construction of manifold Brownian motion.

The chart SDE integrated by :func:`simulate_manifold_diffusion` is

    dx^k = [w^k - (eps^2/2) g^{ij} Gamma^k_{ij}] dt + eps (g^{-1/2})^k_m dW^m

whose generator is (eps^2/2) Lap_g + w . grad.  The frame-bundle simulator
drives the base point with the frame columns and parallel-transports the
frame along its own path; both constructions agree in law.

All transport goes through one batched kernel, :func:`transport_matrices`,
the implicit-midpoint step (I + A/2)^{-1} (I - A/2) with A = Gamma(mid) dx,
whose 2-d inverse is the closed-form adjugate over the determinant.
:func:`parallel_transport` and :func:`transport_steps` apply its matrices to
vectors; :func:`transport_matrix_isometric` replaces them, in the
orthonormal gauge, by their polar factor: closed form in 2-d, Newton polar
iterations for n >= 3.  A gauge matrix with det <= 0 has a reflection, not
a rotation, as its nearest orthogonal matrix and raises InstabilityError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InstabilityError, ParameterError, call_checked, check_positive
from ..geometry import (
    MetricChart,
    christoffel_batch,
    diag_derivative,
)
from ..geometry.calculus import _laplace_beltrami_grad
from ..geometry.charts import diag_matrix
from .ensemble import PathEnsemble
from .integrator import Integrator, initial_points

FRAME_TOL = 1e-6
FRAME_DRIFT_LIMIT = 1e-3
RENORM_INTERVAL = 100
POLAR_ITERATIONS = 10
POLAR_STEP_TOL = 1e-8


@dataclass
class FrameState:
    """A base point with a g-orthonormal frame (columns are tangent vectors)."""

    base_point: np.ndarray
    frame: np.ndarray


@dataclass
class FrameBundleEnsemble:
    """Horizontal-lift sample paths: base points plus transported frames."""

    times: np.ndarray
    base_paths: np.ndarray            # (N, K+1, n)
    frames: np.ndarray                # (N, K+1, n, n)
    seed: int
    chart_name: str

    def max_orthonormality_defect(self, chart: MetricChart) -> float:
        return frame_defect(chart, self.base_paths, self.frames)


def frame_defect(chart: MetricChart, x, e) -> float:
    """max |e^T g e - eta| over frames e (..., n, n) at base points x (..., n)."""
    g = chart.diag(np.asarray(x, dtype=float))
    gram = np.einsum("...ji,...j,...jl->...il", e, g, e)
    return float(np.max(np.abs(gram - chart.signature_matrix())))


def _frame_diag(chart: MetricChart, x) -> np.ndarray:
    """|g_ii|^{-1/2}, the diagonal of the orthonormal frame at x."""
    return 1.0 / np.sqrt(np.abs(chart.diag(np.asarray(x, dtype=float))))


def orthonormal_frame(chart: MetricChart, x) -> np.ndarray:
    """diag(|g_ii|^{-1/2}): columns form a g-orthonormal frame, which
    reproduces the signature matrix exactly."""
    return diag_matrix(_frame_diag(chart, x))


def _step_fields(chart: MetricChart, x: np.ndarray, epsilon: float):
    """Geometric drift -(eps^2/2) g^{ij} Gamma^k_{ij} and the diagonal
    eps |g_ii|^{-1/2} of the scaled frame for one integrator step."""
    gd = chart.diag(x)
    dgd = diag_derivative(chart, x)                     # (..., k, i) = d_k g_ii
    idx = np.arange(gd.shape[-1])
    ginv_d = 1.0 / gd
    own = dgd[..., idx, idx]                            # d_k g_kk
    trace = np.einsum("...i,...ki->...k", ginv_d, dgd)
    contraction = 0.5 * ginv_d * (2.0 * ginv_d * own - trace)
    drift = -0.5 * epsilon**2 * contraction
    return drift, epsilon / np.sqrt(np.abs(gd))


def simulate_manifold_diffusion(chart: MetricChart, w, x0, T: float, dt: float,
                                N: int, seed: int, epsilon: float = 1.0) -> PathEnsemble:
    """Euler steps of the chart diffusion with reject-and-resample boundaries.

    w is a drift field (t, x) -> (B, n), or None for zero drift, and epsilon
    a finite number >= 0, else ParameterError.  Steps that would leave the
    valid region are redrawn from the same per-path stream, up to
    MAX_BOUNDARY_RETRIES, then a BoundaryError reports the location.

    On Lorentzian charts coordinate time is the evolution parameter: the
    leading (negative-signature) coordinates advance deterministically by dt
    and only the spatial block diffuses, so increments satisfy the
    diffusive-scaling diagnostics.
    """
    check_positive("epsilon", epsilon, zero=True)
    n = chart.dimension
    n_time = chart.signature[0]
    core = Integrator("manifold-euler", T, dt, seed, n_noise=n, chart=chart)

    def chart_euler(k, dW, x):
        drift, frame = _step_fields(chart, x, epsilon)
        if w is not None:
            drift = drift + core.drift(w, k, x)
        if n_time:
            # coordinate time advances deterministically on Lorentz charts
            drift[..., :n_time] = 1.0
            frame[..., :n_time] = 0.0
        base = x + drift * dt
        return (core.accept(base + frame * dW, lambda p, z: base[p] + frame[p] * z),)

    times, (paths,) = core.run(chart_euler, initial_points(x0, N, n, chart))
    return PathEnsemble(times, paths, seed=seed, chart_name=chart.name,
                        meta={"epsilon": epsilon, "integrator": "manifold-euler"})


def _matrix2(m00, m01, m10, m11) -> np.ndarray:
    """(..., 2, 2) matrices from their four (...) entry arrays."""
    out = np.empty(np.shape(m00) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def transport_matrices(chart: MetricChart, x_from: np.ndarray,
                       x_to: np.ndarray) -> np.ndarray:
    """Batched midpoint-rule step matrices T = (I + A/2)^{-1} (I - A/2),
    A^k_i = Gamma^k_{ij}(mid) dx^j, that carry vectors from x_from to x_to.

    This is the implicit midpoint rule for dv^k = -Gamma^k_{ij} v^i dx^j,
    the Stratonovich-consistent discretization, which keeps g(v, v) constant
    to second order per step.  On 2-d charts the inverse is the adjugate
    over the determinant, in closed form: with H = A/2,
    T = I - 2 [H + det(H) I] / det(I + H), so the small correction is formed
    before it is added to I.  Other dimensions use one batched solve.
    """
    x_from = np.asarray(x_from, dtype=float)
    x_to = np.asarray(x_to, dtype=float)
    gammas = christoffel_batch(chart, 0.5 * (x_from + x_to))
    half = 0.5 * np.einsum("...kij,...j->...ki", gammas, x_to - x_from)
    eye = np.eye(chart.dimension)
    if chart.dimension != 2:
        return np.linalg.solve(eye + half, eye - half)
    a, b, c, d = half[..., 0, 0], half[..., 0, 1], half[..., 1, 0], half[..., 1, 1]
    det_half = a * d - b * c
    scale = -2.0 / (1.0 + (a + d) + det_half)
    return _matrix2(1.0 + scale * (a + det_half), scale * b, scale * c,
                    1.0 + scale * (d + det_half))


def parallel_transport(chart: MetricChart, path: np.ndarray, v0) -> np.ndarray:
    """Transport v0 along a discretized path; returns v at every grid time.

    Every step matrix comes from one :func:`transport_matrices` call; only
    the products with the running vector are sequential.
    """
    path = chart.require_valid(np.asarray(path, dtype=float))
    v = np.asarray(v0, dtype=float)
    out = np.empty_like(path)
    out[0] = v
    for s, step in enumerate(transport_matrices(chart, path[:-1], path[1:]), 1):
        v = step @ v
        out[s] = v
    return out


def transport_steps(chart: MetricChart, x_from: np.ndarray, x_to: np.ndarray,
                    vectors: np.ndarray) -> np.ndarray:
    """One midpoint-rule transport step for a batch of (segment, vector) pairs."""
    return np.einsum("...ki,...i->...k", transport_matrices(chart, x_from, x_to),
                     vectors)


def _polar_factor(M: np.ndarray) -> np.ndarray:
    """The rotation nearest each (B, n, n) matrix of positive determinant.

    2x2: [[p, -q], [q, p]] / hypot(p, q) with p = a + d, q = c - b, in closed
    form.  n >= 3: Newton's iteration X <- (X + X^{-T}) / 2, which converges
    quadratically from the near-orthogonal matrices one step produces
    (Higham, SIAM J. Sci. Stat. Comput. 7, 1986): an update of size u
    leaves an error near u^2 / 2, so an update below POLAR_STEP_TOL ends it
    at rounding level.
    """
    if M.shape[-1] == 2:
        p = M[..., 0, 0] + M[..., 1, 1]
        q = M[..., 1, 0] - M[..., 0, 1]
        r = np.hypot(p, q)
        p, q = p / r, q / r
        return _matrix2(p, -q, q, p)
    X = M
    for _ in range(POLAR_ITERATIONS):
        X, prev = 0.5 * (X + np.swapaxes(np.linalg.inv(X), -1, -2)), X
        step = np.max(np.abs(X - prev), initial=0.0)
        if step <= POLAR_STEP_TOL:
            return X
    raise InstabilityError(
        f"transport polar iteration did not converge in {POLAR_ITERATIONS} "
        f"steps (last update {step:.2e}); reduce dt")


def transport_matrix_isometric(chart: MetricChart, x_from: np.ndarray,
                               x_to: np.ndarray, check=None) -> np.ndarray:
    """Batched transport matrices that preserve g-norms exactly.

    The :func:`transport_matrices` step is conjugated into the orthonormal
    gauge and replaced by its polar factor, the nearest rotation, so
    P^T g(x_to) P = g(x_from) holds to machine precision while the
    transport itself stays second order.  Riemannian signatures only (the
    rotation projection is Euclidean).

    The gauge is the diagonal frame s = |g_ii|^{-1/2}, so conjugating by it
    scales rows and columns.  check, if given, sees the (B, n, n) gauge
    matrices before the projection.  A gauge matrix with det <= 0 (or a
    non-finite one) has no nearest rotation, only a reflection, and raises
    InstabilityError: the step was too large for its curvature.
    """
    s_from = _frame_diag(chart, x_from)
    s_to = _frame_diag(chart, x_to)
    M = (1.0 / s_to)[..., :, None] * (transport_matrices(chart, x_from, x_to)
                                      * s_from[..., None, :])
    if check is not None:
        check(M)
    det = (M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
           if chart.dimension == 2 else np.linalg.det(M))
    if not np.all(det > 0.0):
        raise InstabilityError(
            f"a transport step reverses orientation (det {np.min(det):.2e} in the "
            "orthonormal gauge); reduce dt")
    return (s_to[..., :, None] * _polar_factor(M)) * (1.0 / s_from)[..., None, :]


def gram_schmidt(chart: MetricChart, x: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """g-orthonormalize frame columns at base points x (batched).

    Signed projections handle Lorentzian signatures; column order follows
    the chart signature (negative-norm directions first).
    """
    g = chart.diag(np.asarray(x, dtype=float))
    n = chart.dimension
    cols = [frame[..., :, j].copy() for j in range(n)]
    for j in range(n):
        for i in range(j):
            gi = g * cols[i]
            denom = np.einsum("...i,...i->...", cols[i], gi)
            num = np.einsum("...i,...i->...", cols[j], gi)
            cols[j] = cols[j] - (num / denom)[..., None] * cols[i]
        norm2 = np.einsum("...i,...i->...", cols[j] * g, cols[j])
        cols[j] = cols[j] / np.sqrt(np.abs(norm2))[..., None]
    return np.stack(cols, axis=-1)


def frame_bundle_simulate(chart: MetricChart, x0, frame0: FrameState, T: float,
                          dt: float, N: int, seed: int,
                          report_every: int = RENORM_INTERVAL) -> FrameBundleEnsemble:
    """Horizontal lift: base point driven by frame columns times Wiener
    increments, frame parallel-transported along its own base path.

    frame0.frame must be g-orthonormal at every start x0, else
    ParameterError.  Frames are re-orthonormalized (Gram-Schmidt against g)
    every ``report_every`` integration steps, which is also the reporting
    grid, so every reported frame meets the orthonormality contract.  If the
    defect exceeds FRAME_DRIFT_LIMIT before a renormalization the run aborts
    with a suggestion to reduce dt.
    """
    n = chart.dimension
    starts = initial_points(x0, N, n, chart)
    frames0 = np.broadcast_to(frame0.frame, (len(starts), n, n))
    defect = frame_defect(chart, starts, frames0)
    if not defect <= FRAME_TOL:  # a NaN defect fails too
        raise ParameterError(f"frame0 is not g-orthonormal at x0 (defect {defect:.2e})")
    core = Integrator("frame-bundle-heun", T, dt, seed, n_noise=n, chart=chart)

    def transport(x_from, x_to):
        return transport_matrix_isometric(
            chart, x_from, x_to, check=lambda M: core.check_finite(M, "transport"))

    def frame_heun(k, dW, x, e):
        # Heun step for dx = e o dW: predict, transport, correct.
        dx0 = np.einsum("bij,bj->bi", e, dW)

        def redraw(p, z):
            dx0[p] = e[p] @ z
            return x[p] + dx0[p]

        pred = core.accept(x + dx0, redraw)
        e_pred = transport(x, pred) @ e
        x_new = x + 0.5 * (dx0 + np.einsum("bij,bj->bi", e_pred, dW))
        invalid = ~chart.is_valid(x_new)
        x_new[invalid] = pred[invalid]  # fall back to the predictor point
        return x_new, transport(x, x_new) @ e

    def renormalize(x, e):
        drift_now = frame_defect(chart, x, e)
        if drift_now > FRAME_DRIFT_LIMIT:
            raise InstabilityError(
                f"frame orthonormality drifted to {drift_now:.2e} before "
                f"renormalization; reduce dt (currently {dt})")
        return x, gram_schmidt(chart, x, e)

    times, (base, frames) = core.run(frame_heun, starts, frames0,
                                     report_every=report_every, at_report=renormalize)
    return FrameBundleEnsemble(times, base, frames, seed=seed, chart_name=chart.name)


def generator_apply(chart: MetricChart, w, z, x) -> float:
    """(L_w z)(x) = (1/2) Lap_g z(x) + (w . grad z)(x) at a point x (n,);
    z(x) has shape () and w(x), unless w is None, shape (n,)."""
    x = np.asarray(x, dtype=float)
    lap, grad = _laplace_beltrami_grad(chart, z, x, "z")
    val = 0.5 * lap
    if w is not None:
        val += float(np.dot(call_checked(w, "w", x.shape, x), grad))
    return val
