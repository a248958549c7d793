"""Grid Schrodinger operator, lattice Laplacian, and the free unitary
propagator by direct kernel quadrature.

The propagator convention is U_t = exp(i t Lap): the kernel is
(4 pi i t)^(-n/2) exp(i|x - y|^2 / (4t)).  A Gaussian exp(-x^2/2) therefore
spreads to (1 + 2it)^(-1/2) exp(-x^2 / (2 (1 + 2it))).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, ResolutionError, call_checked
from .wavefunctions import PotentialField, WaveFunctionGrid

IDENTITY_REGIME_TOL = 1e-6


def _periodic_laplacian(values: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros_like(values)
    for axis, h in enumerate(spacings):
        out += (np.roll(values, -1, axis=axis) - 2.0 * values
                + np.roll(values, 1, axis=axis)) / h**2
    return out


def grid_schrodinger_apply(psi: WaveFunctionGrid, V: PotentialField | None) -> WaveFunctionGrid:
    """-(hbar^2/2) Lap psi + V psi with the periodic second-difference stencil."""
    lap = _periodic_laplacian(psi.values, psi.spacings)
    out = -0.5 * psi.hbar**2 * lap
    if V is not None:
        out = out + call_checked(V, "V", psi.values.shape, psi.mesh()) * psi.values
    return WaveFunctionGrid(axes=psi.axes, values=out, hbar=psi.hbar, mass=psi.mass)


def discrete_laplacian(phi: np.ndarray, boundary: str = "periodic") -> np.ndarray:
    """Positive graph Laplacian sum_a (2 phi(x) - phi(x-e_a) - phi(x+e_a)).

    boundary: "periodic" wraps; "zero" treats off-lattice values as 0.
    """
    phi = np.asarray(phi)
    out = np.zeros_like(phi)
    for axis in range(phi.ndim):
        if boundary == "periodic":
            left = np.roll(phi, 1, axis=axis)
            right = np.roll(phi, -1, axis=axis)
        elif boundary == "zero":
            left = np.zeros_like(phi)
            right = np.zeros_like(phi)
            src = [slice(None)] * phi.ndim
            dst = [slice(None)] * phi.ndim
            src[axis] = slice(None, -1); dst[axis] = slice(1, None)
            left[tuple(dst)] = phi[tuple(src)]
            src[axis] = slice(1, None); dst[axis] = slice(None, -1)
            right[tuple(dst)] = phi[tuple(src)]
        else:
            raise ParameterError(f"boundary must be periodic or zero, got '{boundary}'")
        out = out + 2.0 * phi - left - right
    return out


def free_propagator(psi0: WaveFunctionGrid, t: float) -> WaveFunctionGrid:
    """Apply exp(i t Lap) by direct quadrature of the Fresnel kernel (1-D).

    t = 0 returns the input.  For |t| so small that the evolution is below
    1e-6 of the input (first-order bound |t| max|Lap psi| <= 1e-6 max|psi|)
    the input is returned unchanged; otherwise the stationary-phase width
    sqrt(4 pi |t|) must span at least two grid cells or a ResolutionError is
    raised.
    """
    if psi0.dimension != 1:
        raise ParameterError("free_propagator quadrature is implemented in 1-D")
    if t == 0:
        return WaveFunctionGrid(axes=psi0.axes, values=psi0.values.copy(),
                                hbar=psi0.hbar, mass=psi0.mass)
    h = psi0.spacings[0]
    lap = _periodic_laplacian(psi0.values, psi0.spacings)
    if abs(t) * np.max(np.abs(lap)) <= IDENTITY_REGIME_TOL * np.max(np.abs(psi0.values)):
        return WaveFunctionGrid(axes=psi0.axes, values=psi0.values.copy(),
                                hbar=psi0.hbar, mass=psi0.mass)
    width = np.sqrt(4.0 * np.pi * abs(t))
    if width < 2.0 * h:
        raise ResolutionError(
            f"stationary-phase width {width:.3g} spans fewer than 2 cells "
            f"(h = {h:.3g}); refine the grid or reduce |t|")
    x = psi0.axes[0]
    diff = x[:, None] - x[None, :]
    prefactor = (4.0j * np.pi * t) ** -0.5
    kernel = prefactor * np.exp(1j * diff**2 / (4.0 * t))
    values = kernel @ psi0.values * h
    return WaveFunctionGrid(axes=psi0.axes, values=values,
                            hbar=psi0.hbar, mass=psi0.mass)
