"""Flat-space relativistic operator checks: gamma matrices, Clifford
relation, Klein-Gordon and Dirac plane-wave residuals, and a
finite-difference Dirac operator.

The gamma algebra uses the standard Dirac basis, where
{gamma^mu, gamma^nu} = 2 eta^{mu nu} I with eta = diag(+,-,-,-).  The
geometry charts use the opposite (-,+,+,+) convention; the bridge is the
overall sign eta_charts = -eta_gammas, which is exactly what makes the
Clifford residual c(w1)c(w2) + c(w2)c(w1) + 2 (w1, w2) I vanish when the
pairing (.,.) is taken with the chart metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FractoidError, ParameterError, call_checked, check_positive
from .geometry import central_difference

NULLSPACE_RTOL = 1e-10
CLIFFORD_FD_STEP = 1e-5          # absolute step along the direction vector

ETA_GAMMA = np.diag([1.0, -1.0, -1.0, -1.0])     # algebra convention (+,-,-,-)
ETA_CHART = -ETA_GAMMA                           # geometry convention (-,+,+,+)


@dataclass(frozen=True)
class GammaSet:
    """Four 4x4 Dirac-basis gamma matrices and the chiral element."""

    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    gamma5: np.ndarray

    def clifford(self, w) -> np.ndarray:
        """c(w) = w_mu gamma^mu of components w (4,)."""
        return sum(wm * g for wm, g in zip(w, self.gammas))

    def slash(self, p) -> np.ndarray:
        """gamma^mu p_mu with the index lowered by eta = diag(+,-,-,-)."""
        return self.clifford(ETA_GAMMA @ np.asarray(p, dtype=float))

    def to_json(self) -> str:
        def enc(m):
            return [[[float(c.real), float(c.imag)] for c in row] for row in m]

        return json.dumps({"convention": "dirac-basis",
                           "gammas": [enc(g) for g in self.gammas],
                           "gamma5": enc(self.gamma5)}, indent=2)


@dataclass
class PlaneWaveSpinor:
    """u(p) e^{-i p.x} data: the 4-momentum, the spinor, and the mass."""

    momentum: np.ndarray
    spinor: np.ndarray
    mass: float

    def residual(self, gammas: GammaSet, mass: float | None = None) -> float:
        m = self.mass if mass is None else mass
        op = gammas.slash(self.momentum) - m * np.eye(4)
        return float(np.linalg.norm(op @ self.spinor) / np.linalg.norm(self.spinor))


def build_gammas() -> GammaSet:
    """Standard Dirac-basis gamma matrices."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    def block(a, b, c, d):
        return np.block([[a, b], [c, d]])

    g0 = block(eye2, zero, zero, -eye2)
    g1 = block(zero, s1, -s1, zero)
    g2 = block(zero, s2, -s2, zero)
    g3 = block(zero, s3, -s3, zero)
    return GammaSet(gammas=(g0, g1, g2, g3), gamma5=1j * g0 @ g1 @ g2 @ g3)


def klein_gordon_residual(p, m: float) -> float:
    """|-(p^0)^2 + |p_vec|^2 + m^2|, the plane-wave residual of (box + m^2)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ParameterError("p must be a 4-vector")
    return float(abs(-p[0] ** 2 + np.sum(p[1:] ** 2) + m**2))


def _on_shell(p_vec, m: float) -> np.ndarray:
    """The 4-momentum (p0, p_vec) with p0 = sqrt(|p_vec|^2 + m^2), m > 0."""
    check_positive("mass", m)
    p_vec = np.asarray(p_vec, dtype=float)
    if p_vec.shape != (3,):
        raise ParameterError("p_vec must be a 3-vector")
    return np.concatenate([[np.sqrt(np.sum(p_vec**2) + m**2)], p_vec])


def plane_wave_null_space(p_vec, m: float, gammas: GammaSet) -> np.ndarray:
    """All null directions of gamma.p - m on shell (columns, dimension 2),
    the singular vectors whose singular value is at most NULLSPACE_RTOL
    times the largest, smallest last."""
    _, s, vh = np.linalg.svd(gammas.slash(_on_shell(p_vec, m)) - m * np.eye(4))
    return vh.conj().T[:, s <= NULLSPACE_RTOL * s[0]]


def dirac_plane_wave(p_vec, m: float, gammas: GammaSet) -> PlaneWaveSpinor:
    """On-shell spinor: the last direction of :func:`plane_wave_null_space`."""
    null = plane_wave_null_space(p_vec, m, gammas)
    if null.shape[1] == 0:
        raise FractoidError("no null space found: inconsistent metric/gamma pairing")
    return PlaneWaveSpinor(momentum=_on_shell(p_vec, m), spinor=null[:, -1], mass=m)


def dirac_operator_fd(field: np.ndarray, gammas: GammaSet, spacings) -> np.ndarray:
    """Apply sum_mu gamma^mu d_mu with central differences, periodic grid.

    field has shape (4, n_0, ..., n_{k-1}) for k <= 4 grid axes; axis mu of
    the grid pairs with gamma^mu.
    """
    field = np.asarray(field, dtype=complex)
    if field.ndim < 2 or field.shape[0] != 4:
        raise ParameterError("spinor field must have shape (4, grid...)")
    n_axes = field.ndim - 1
    if n_axes > 4:
        raise ParameterError("at most 4 grid axes")
    spacings = np.atleast_1d(np.asarray(spacings, dtype=float))
    if spacings.shape[0] != n_axes:
        raise ParameterError("one spacing per grid axis")
    out = np.zeros_like(field)
    for mu in range(n_axes):
        axis = 1 + mu
        der = (np.roll(field, -1, axis=axis) - np.roll(field, 1, axis=axis)) \
            / (2.0 * spacings[mu])
        out += np.einsum("ab,b...->a...", gammas.gammas[mu], der)
    return out


def clifford_relation_check(omega1, omega2, gammas: GammaSet) -> float:
    """Residual ||c(w1)c(w2) + c(w2)c(w1) + 2 (w1, w2) I||.

    c(w) = w_mu gamma^mu; the pairing uses the chart-convention inverse
    metric diag(-1,1,1,1), the unique choice that makes the residual vanish
    for the Dirac-basis algebra.
    """
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    if w1.shape != (4,) or w2.shape != (4,):
        raise ParameterError("1-form components must be 4-vectors")
    c1, c2 = gammas.clifford(w1), gammas.clifford(w2)
    pairing = float(w1 @ ETA_CHART @ w2)
    resid = c1 @ c2 + c2 @ c1 + 2.0 * pairing * np.eye(4)
    return float(np.linalg.norm(resid))


def _probe_spinor(x):
    """A smooth non-constant spinor field for dual-path connection checks."""
    x = np.asarray(x, dtype=float)
    base = np.array([1.0, 0.5, -0.25, 0.125], dtype=complex)
    scalar = 1.0 + 0.3 * np.sum(x) + 0.1 * np.sum(x**2)
    return base * scalar


def clifford_connection_check(omega_field, X, x, gammas: GammaSet | None = None) -> float:
    """Residual of [grad_X, c(w)] psi - c(grad_X w) psi on a flat chart.

    omega_field(x) returns 1-form components (4,), another shape is a
    ParameterError; X is a fixed direction vector; psi is a fixed smooth
    spinor field; derivatives are central differences along X.
    """
    if gammas is None:
        gammas = build_gammas()
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)

    def along_X(F):
        """d/ds F(x + s X) at s = 0."""
        return central_difference(lambda s: F(x + s[0] * X), np.zeros(1), 0,
                                  CLIFFORD_FD_STEP)

    omega0 = call_checked(omega_field, "omega_field", (4,), x)
    c = gammas.clifford
    lhs1 = along_X(lambda p: c(omega_field(p)) @ _probe_spinor(p))  # grad_X (c(w) psi)
    lhs2 = c(omega0) @ along_X(_probe_spinor)                       # c(w) grad_X psi
    rhs = c(along_X(omega_field)) @ _probe_spinor(x)                # c(grad_X w) psi
    return float(np.linalg.norm(lhs1 - lhs2 - rhs))
