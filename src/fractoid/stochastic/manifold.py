"""Diffusions on curved charts, stochastic parallel transport, and the
orthonormal-frame-bundle construction of manifold Brownian motion.

The chart SDE integrated by :func:`simulate_manifold_diffusion` is

    dx^k = [w^k - (eps^2/2) g^{ij} Gamma^k_{ij}] dt + eps (g^{-1/2})^k_m dW^m

whose generator is (eps^2/2) Lap_g + w . grad.  The frame-bundle simulator
drives the base point with the frame columns and parallel-transports the
frame along its own path; both constructions agree in law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InstabilityError, ParameterError
from ..geometry import (
    MetricChart,
    christoffel_batch,
    diag_derivative,
    gradient_fd,
    laplace_beltrami,
)
from ..geometry.charts import diag_matrix
from .ensemble import PathEnsemble
from .integrator import Integrator, initial_points

FRAME_TOL = 1e-6
FRAME_DRIFT_LIMIT = 1e-3
RENORM_INTERVAL = 100


@dataclass
class FrameState:
    """A base point with a g-orthonormal frame (columns are tangent vectors)."""

    base_point: np.ndarray
    frame: np.ndarray

    def orthonormality_defect(self, chart: MetricChart) -> float:
        return frame_defect(chart, self.base_point, self.frame)


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
    """Geometric drift -(eps^2/2) g^{ij} Gamma^k_{ij} and the scaled frame
    eps g^{-1/2} for one integrator step, elementwise on the diagonal."""
    gd = chart.diag(x)
    dgd = diag_derivative(chart, x)                     # (..., k, i) = d_k g_ii
    idx = np.arange(gd.shape[-1])
    ginv_d = 1.0 / gd
    own = dgd[..., idx, idx]                            # d_k g_kk
    trace = np.einsum("...i,...ki->...k", ginv_d, dgd)
    contraction = 0.5 * ginv_d * (2.0 * ginv_d * own - trace)
    drift = -0.5 * epsilon**2 * contraction
    return drift, diag_matrix(epsilon / np.sqrt(np.abs(gd)))


def simulate_manifold_diffusion(chart: MetricChart, w, x0, T: float, dt: float,
                                N: int, seed: int, epsilon: float = 1.0) -> PathEnsemble:
    """Euler steps of the chart diffusion with reject-and-resample boundaries.

    w is a drift field (t, x) -> (B, n), or None for zero drift.  Steps that
    would leave the valid region are redrawn from the same per-path stream,
    up to MAX_BOUNDARY_RETRIES, then a BoundaryError reports the location.

    On Lorentzian charts coordinate time is the evolution parameter: the
    leading (negative-signature) coordinates advance deterministically by dt
    and only the spatial block diffuses, so increments satisfy the
    diffusive-scaling diagnostics.
    """
    n = chart.dimension
    n_time = chart.signature[0]
    core = Integrator("manifold-euler", T, dt, seed, n_noise=n, chart=chart)

    def chart_euler(k, dW, x):
        drift, frame = _step_fields(chart, x, epsilon)
        if w is not None:
            drift = drift + core.drift(w, k, x)
        if n_time:
            # coordinate time advances deterministically on Lorentz charts
            drift = drift.copy()
            drift[..., :n_time] = 1.0
            frame = frame.copy()
            frame[..., :n_time, :] = 0.0
        base = x + drift * dt
        return (core.accept(base + np.einsum("bij,bj->bi", frame, dW),
                            lambda p, z: base[p] + frame[p] @ z),)

    times, (paths,) = core.run(chart_euler, initial_points(x0, N, n, chart))
    return PathEnsemble(times, paths, seed=seed, chart_name=chart.name,
                        meta={"epsilon": epsilon, "integrator": "manifold-euler"})


def parallel_transport(chart: MetricChart, path: np.ndarray, v0) -> np.ndarray:
    """Transport v0 along a discretized path; returns v at every grid time.

    Uses the implicit midpoint rule for dv^k = -Gamma^k_{ij} v^i dx^j, the
    Stratonovich-consistent discretization, which keeps g(v, v) constant to
    second order per step.
    """
    path = chart.require_valid(np.asarray(path, dtype=float))
    v = np.asarray(v0, dtype=float).copy()
    out = np.empty_like(path)
    out[0] = v
    if path.shape[0] == 1:
        return out
    mids = 0.5 * (path[1:] + path[:-1])
    dxs = np.diff(path, axis=0)
    gammas = christoffel_batch(chart, mids)
    A = np.einsum("skij,sj->ski", gammas, dxs)
    eye = np.eye(chart.dimension)
    for s in range(len(dxs)):
        v = np.linalg.solve(eye + 0.5 * A[s], (eye - 0.5 * A[s]) @ v)
        out[s + 1] = v
    return out


def transport_steps(chart: MetricChart, x_from: np.ndarray, x_to: np.ndarray,
                    vectors: np.ndarray) -> np.ndarray:
    """One midpoint-rule transport step for a batch of (segment, vector) pairs."""
    mids = 0.5 * (x_from + x_to)
    gammas = christoffel_batch(chart, mids)
    A = np.einsum("...kij,...j->...ki", gammas, x_to - x_from)
    eye = np.eye(chart.dimension)
    rhs = np.einsum("...ki,...i->...k", eye - 0.5 * A, vectors)
    return np.linalg.solve(eye + 0.5 * A, rhs[..., None])[..., 0]


def transport_matrix_isometric(chart: MetricChart, x_from: np.ndarray,
                               x_to: np.ndarray, check=None) -> np.ndarray:
    """Batched transport matrices that preserve g-norms exactly.

    The midpoint map is conjugated into the orthonormal gauge and polar-
    projected onto the nearest rotation, so P^T g(x_to) P = g(x_from) holds
    to machine precision while the transport itself stays second order.
    Riemannian signatures only (the rotation projection is Euclidean).

    The gauge is the diagonal frame s = |g_ii|^{-1/2}, so conjugating by it
    scales rows and columns.  Its inverse multiplies by the reciprocals
    1/s, which reproduces LAPACK's diagonal solves bit for bit.  check, if
    given, sees the (B, n, n) gauge matrices before the projection.
    """
    mids = 0.5 * (x_from + x_to)
    gammas = christoffel_batch(chart, mids)
    A = np.einsum("...kij,...j->...ki", gammas, x_to - x_from)
    eye = np.eye(chart.dimension)
    T = np.linalg.solve(eye + 0.5 * A, eye - 0.5 * A)
    s_from = _frame_diag(chart, x_from)
    s_to = _frame_diag(chart, x_to)
    M = (1.0 / s_to)[..., :, None] * (T * s_from[..., None, :])
    if check is not None:
        check(M)
    u, _, vt = np.linalg.svd(M)
    return (s_to[..., :, None] * (u @ vt)) * (1.0 / s_from)[..., None, :]


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

    Frames are re-orthonormalized (Gram-Schmidt against g) every
    ``report_every`` integration steps, which is also the reporting grid, so
    every reported frame meets the orthonormality contract.  If the defect
    exceeds FRAME_DRIFT_LIMIT before a renormalization the run aborts with a
    suggestion to reduce dt.
    """
    n = chart.dimension
    starts = initial_points(x0, N, n, chart)
    defect = frame0.orthonormality_defect(chart)
    if not defect <= FRAME_TOL:  # a NaN defect fails too
        raise ParameterError(f"frame0 is not g-orthonormal (defect {defect:.2e})")
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
        invalid = ~np.asarray(chart.is_valid(x_new), dtype=bool)
        x_new[invalid] = pred[invalid]  # fall back to the predictor point
        return x_new, transport(x, x_new) @ e

    def renormalize(x, e):
        drift_now = frame_defect(chart, x, e)
        if drift_now > FRAME_DRIFT_LIMIT:
            raise InstabilityError(
                f"frame orthonormality drifted to {drift_now:.2e} before "
                f"renormalization; reduce dt (currently {dt})")
        return x, gram_schmidt(chart, x, e)

    frames0 = np.broadcast_to(frame0.frame, (len(starts), n, n))
    times, (base, frames) = core.run(frame_heun, starts, frames0,
                                     report_every=report_every, at_report=renormalize)
    return FrameBundleEnsemble(times, base, frames, seed=seed, chart_name=chart.name)


def generator_apply(chart: MetricChart, w, z, x) -> float:
    """(L_w z)(x) = (1/2) Lap_g z(x) + (w . grad z)(x)."""
    x = chart.require_valid(np.asarray(x, dtype=float))
    val = 0.5 * laplace_beltrami(chart, z, x)
    if w is not None:
        val += float(np.dot(np.asarray(w(x), dtype=float), gradient_fd(z, x)))
    return val
