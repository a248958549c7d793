"""Christoffel symbols, curvature, Laplace-Beltrami, torsion, Leibniz rule.

This is the package's one finite-difference toolkit.  Every difference
quotient in the package goes through two batched primitives:
:func:`central_difference`, (f(x + h e_j) - f(x - h e_j)) / 2h, and
:func:`second_difference`, (f(x + h e_j) - 2 f(x) + f(x - h e_j)) / h^2.
Both take points of shape (..., n) and one step, or one step per point.

Two step policies feed them.  The spatial operators here take the
relative step h = scale * max(1, |x_j|), with scale 1e-5 for first
derivatives and 1e-4 for second derivatives.  Four callers keep an
absolute step: the time difference of the covariant analytic route
(1e-5), the potential gradient of the Euler-Lagrange residual (1e-6), the
first variation of the curve energy (1e-5, along the perturbation) and
the Clifford-connection check (1e-5, along its direction vector).
Ricci uses Richardson-extrapolated differences of the connection so that
its symmetry survives roundoff.  :func:`ricci`, :func:`ricci_operator`,
:func:`laplacian_fd`, :func:`vector_jacobian_fd` and
:func:`christoffel_batch` take batches of points (..., n), so a caller
evaluates a whole grid of points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import SingularMetricError, call_checked
from .charts import MetricChart

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4
LEVI_CIVITA_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Levi-Civita Gamma^k_{ij} at a point; gamma[k, i, j], symmetric in (i, j)."""

    gamma: np.ndarray

    def __post_init__(self):
        skew = np.max(np.abs(self.gamma - np.swapaxes(self.gamma, -1, -2)))
        if skew > LEVI_CIVITA_SYMMETRY_TOL:
            raise SingularMetricError(
                f"Levi-Civita coefficients not symmetric (defect {skew:.2e})"
            )


@dataclass(frozen=True)
class TorsionValue:
    """Tangent-vector value of the torsion tensor at a point."""

    components: np.ndarray


def _steps(x, scale):
    x = np.asarray(x, dtype=float)
    return scale * np.maximum(1.0, np.abs(x))


def _per_point(h, value):
    """h with trailing axes, so one step per point divides a (...) + value shape."""
    return np.reshape(h, np.shape(h) + (1,) * (value.ndim - np.ndim(h)))


def _shifted(x, j, h):
    xp = x.copy()
    xm = x.copy()
    xp[..., j] += h
    xm[..., j] -= h
    return xp, xm


def central_difference(f, x, j: int, h) -> np.ndarray:
    """(f(x + h e_j) - f(x - h e_j)) / 2h.

    x holds points (..., n); h is one step or one per point (x.shape[:-1]).
    f maps a batch of points to values of shape x.shape[:-1] + value shape.
    """
    xp, xm = _shifted(np.asarray(x, dtype=float), j, h)
    diff = np.asarray(f(xp)) - np.asarray(f(xm))
    return diff / (2.0 * _per_point(h, diff))


def second_difference(f, x, j: int, h, f0) -> np.ndarray:
    """(f(x + h e_j) - 2 f0 + f(x - h e_j)) / h^2, with f0 = f(x) given by
    the caller; shapes as for :func:`central_difference`."""
    xp, xm = _shifted(np.asarray(x, dtype=float), j, h)
    val = np.asarray(f(xp)) - 2.0 * f0 + np.asarray(f(xm))
    return val / _per_point(h, val) ** 2


def diag_derivative(chart: MetricChart, x) -> np.ndarray:
    """d g_ii / d x^k with shape (..., k, i): zero on flat charts, the
    chart's analytic form when it has one, else central differences."""
    x = np.asarray(x, dtype=float)
    n = chart.dimension
    if chart.is_flat:
        return np.zeros(x.shape[:-1] + (n, n))
    if chart.diag_derivative is not None:
        return chart.diag_derivative(x)
    return np.swapaxes(vector_jacobian_fd(chart.diag, x), -1, -2)


def christoffel_batch(chart: MetricChart, x) -> np.ndarray:
    """Levi-Civita Gamma^k_{ij} for a batch of points; shape (..., k, i, j).

    For a diagonal metric
    Gamma^k_ij = (1/2) g^kk (delta_jk d_i g_kk + delta_ik d_j g_kk - delta_ij d_k g_ii).
    """
    x = np.asarray(x, dtype=float)
    n = chart.dimension
    if chart.is_flat:
        return np.zeros(x.shape + (n, n))
    d = chart.checked_diag(x)
    dg = diag_derivative(chart, x)              # dg[..., k, i] = d_k g_ii
    gamma = np.zeros(x.shape + (n, n))          # the docstring's delta terms, in order
    idx = np.arange(n)
    for k in range(n):
        gamma[..., k, :, k] += dg[..., :, k]
        gamma[..., k, k, :] += dg[..., :, k]
        gamma[..., k, idx, idx] -= dg[..., k, :]
    gamma *= (0.5 / d)[..., :, None, None]
    return gamma


def christoffel(chart: MetricChart, x) -> ConnectionCoefficients:
    """Levi-Civita connection coefficients at a single point."""
    x = chart.require_valid(x)
    gamma = christoffel_batch(chart, x)
    return ConnectionCoefficients(gamma=gamma)


def levi_civita_field(chart: MetricChart) -> Callable[[np.ndarray], np.ndarray]:
    """The chart's connection as a field usable by torsion/leibniz_residual."""
    return lambda x: christoffel_batch(chart, x)


def ricci(chart: MetricChart, x) -> np.ndarray:
    """Ricci tensor Ric_{ij} at points (..., n) from the contraction of the
    Riemann tensor; shape (..., n, n).

    Derivatives of Gamma use Richardson-extrapolated central differences
    (base step 1e-4 * coordinate scale), which keeps the symmetry defect
    of the result near roundoff.
    """
    x = chart.require_valid(x)
    h = _steps(x, FD_STEP_SECOND)
    gamma = levi_civita_field(chart)
    # dG[..., m, r, a, b] = d_m Gamma^r_{ab}
    dG = np.stack([richardson_derivative(gamma, x, m, h[..., m])
                   for m in range(chart.dimension)], axis=-4)
    G = christoffel_batch(chart, x)
    # R^r_{s m n} = d_m G^r_{ns} - d_n G^r_{ms} + G^r_{ml} G^l_{ns} - G^r_{nl} G^l_{ms}
    riemann = (
        np.einsum("...mrns->...rsmn", dG)
        - np.einsum("...nrms->...rsmn", dG)
        + np.einsum("...rml,...lns->...rsmn", G, G)
        - np.einsum("...rnl,...lms->...rsmn", G, G)
    )
    return np.einsum("...rsrn->...sn", riemann)


def ricci_operator(chart: MetricChart, x) -> np.ndarray:
    """Ricci as a (1,1)-tensor at points (..., n): Ric^i_j = g^{ii} Ric_{ij}."""
    return chart.inverse_diag(x)[..., :, None] * ricci(chart, x)


def richardson_derivative(f, x, k: int, h: float) -> np.ndarray:
    """Richardson-extrapolated central difference of f along coordinate k,
    (4 D(h/2) - D(h)) / 3 with D(s) the central difference of step s."""
    return (4.0 * central_difference(f, x, k, h / 2.0)
            - central_difference(f, x, k, h)) / 3.0


def laplace_beltrami(chart: MetricChart, f, x) -> float:
    """g^{ii} (d^2 f / (dx^i)^2 - Gamma^k_{ii} d_k f) at a point; f(x) has shape ()."""
    x = chart.require_valid(x)
    ginv = chart.inverse_diag(x)
    h = _steps(x, FD_STEP_SECOND)
    f0 = call_checked(f, "f", (), x)
    second = np.array([second_difference(f, x, i, h[i], f0) for i in range(len(x))])
    grad = vector_jacobian_fd(f, x)
    # the full contraction, then its diagonal: "kii,k->i" rounds differently
    gamma_grad = np.einsum("kij,k->ij", christoffel_batch(chart, x), grad)
    return float(np.sum(ginv * (second - np.diagonal(gamma_grad))))


def vector_jacobian_fd(X, x, step=FD_STEP_FIRST) -> np.ndarray:
    """J[..., k, j] = d X^k / d x^j by central differences.

    x is one point (n,) or a batch (..., n); X maps points to values of
    shape x.shape[:-1] + value shape.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, step)
    return np.stack([central_difference(X, x, j, h[..., j]) for j in range(x.shape[-1])],
                    axis=-1)


def laplacian_fd(F, x, step=FD_STEP_SECOND) -> np.ndarray:
    """Componentwise flat Laplacian sum_j d^2 F / dx_j^2 of a vector field
    at points (..., n), by central second differences."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, step)
    f0 = np.asarray(F(x))
    out = np.zeros(f0.shape)
    for j in range(x.shape[-1]):
        out += second_difference(F, x, j, h[..., j], f0)
    return out


def covariant_derivative(connection_field, X, v, x) -> np.ndarray:
    """(nabla_v X)^k = v^i d_i X^k + Gamma^k_{ij} v^i X^j at a point.

    The direction contracts with the first lower index of Gamma
    (nabla_{e_i} e_j = Gamma^k_{ij} e_k).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Xx = call_checked(X, "X", x.shape, x)
    gamma = np.asarray(connection_field(x))
    jac = vector_jacobian_fd(X, x)
    return jac @ v + np.einsum("kij,i,j->k", gamma, v, Xx)


def commutator_fd(X, Y, x) -> np.ndarray:
    """[X, Y]^k = X^j d_j Y^k - Y^j d_j X^k by central differences."""
    x = np.asarray(x, dtype=float)
    Xx, Yx = call_checked(X, "X", x.shape, x), call_checked(Y, "Y", x.shape, x)
    return vector_jacobian_fd(Y, x) @ Xx - vector_jacobian_fd(X, x) @ Yx


def torsion(connection_field, X, Y, x) -> TorsionValue:
    """nabla_X Y - nabla_Y X - [X, Y] evaluated at a point."""
    x = np.asarray(x, dtype=float)
    Xx, Yx = call_checked(X, "X", x.shape, x), call_checked(Y, "Y", x.shape, x)
    cxy = covariant_derivative(connection_field, Y, Xx, x)
    cyx = covariant_derivative(connection_field, X, Yx, x)
    return TorsionValue(components=cxy - cyx - commutator_fd(X, Y, x))


def leibniz_residual(connection_field, f, X, Y, x) -> float:
    """|| nabla_X (f Y) - X(f) Y - f nabla_X Y || at a point."""
    x = np.asarray(x, dtype=float)
    Xx, Yx = call_checked(X, "X", x.shape, x), call_checked(Y, "Y", x.shape, x)
    lhs = covariant_derivative(connection_field, lambda p: f(p) * np.asarray(Y(p)), Xx, x)
    df_along_X = float(vector_jacobian_fd(f, x) @ Xx)
    rhs = df_along_X * Yx + f(x) * covariant_derivative(connection_field, Y, Xx, x)
    return float(np.linalg.norm(lhs - rhs))
