"""Wavefunction grids and the map from a wavefunction to diffusion drifts.

The current velocity is the scaled phase gradient and the osmotic velocity
the scaled log-amplitude gradient; both are evaluated as Im/Re of the
gradient of psi divided by psi, which avoids phase-unwrapping artifacts.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError, ParameterError
from ..persistence import (NUMBER, manifest_for, read_manifest, read_table,
                           write_manifest, write_table)

NODAL_FLOOR = 1e-12
EPSILON_CONSISTENCY_TOL = 1e-12
GRID_COORD_TOL = 1e-6   # in grid steps: the manifest rebuilds axes by linspace


@dataclass
class WaveFunctionGrid:
    """Complex values on a uniform rectangular spatial grid (1-D to 3-D)."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=complex)
        if self.hbar <= 0 or self.mass <= 0:
            raise ParameterError("hbar and mass must be positive")
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ParameterError("values shape must match the grid axes")
        for a in self.axes:
            d = np.diff(a)
            if len(d) < 1 or np.any(d <= 0) or np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
                raise ParameterError("grid axes must be uniform and increasing")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("wavefunction values must be finite")
        if self.l2_norm() <= 0:
            raise ParameterError("wavefunction has zero L2 norm")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell_volume()))

    def mesh(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    # --- persistence: CSV `x0..,re,im` + JSON manifest -------------------

    def write_csv(self, path) -> None:
        dim = self.dimension
        vals = self.values.reshape(-1)
        write_table(path, [f"x{i}" for i in range(dim)] + ["re", "im"],
                    [[*self.mesh().reshape(-1, dim).T, vals.real, vals.imag]])
        write_manifest(manifest_for(path),
                       {"hbar": self.hbar, "mass": self.mass,
                        "grid": [[float(a[0]), float(a[-1]), len(a)] for a in self.axes]})

    @classmethod
    def read_csv(cls, path) -> "WaveFunctionGrid":
        """Rows must follow the manifest grid in C order: a missing row or a
        coordinate off its node by GRID_COORD_TOL steps is a ParameterError."""
        manifest = read_manifest(manifest_for(path),
                                 {"hbar": NUMBER, "mass": NUMBER, "grid": list})
        axes = tuple(np.linspace(a, b, int(n)) for a, b, n in manifest["grid"])
        raw = np.concatenate(list(read_table(path, len(axes) + 2)))
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        steps = np.array([(a[-1] - a[0]) / max(len(a) - 1, 1) for a in axes])
        if len(raw) != len(mesh) or np.any(np.abs(raw[:, :-2] - mesh)
                                           > GRID_COORD_TOL * steps):
            raise ParameterError(f"{path}: the rows do not follow the manifest grid "
                                 f"{manifest['grid']} node by node")
        values = (raw[:, -2] + 1j * raw[:, -1]).reshape(tuple(len(a) for a in axes))
        return cls(axes=axes, values=values,
                   hbar=float(manifest["hbar"]), mass=float(manifest["mass"]))


@dataclass(frozen=True)
class PotentialField:
    """Scalar potential; fn maps points (..., dim) to values (...)."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclass
class NelsonProcessSpec:
    """Current and osmotic drift fields with the matched diffusion constant."""

    current: Callable
    osmotic: Callable
    epsilon: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if abs(self.epsilon**2 - self.hbar / self.mass) > EPSILON_CONSISTENCY_TOL:
            raise ParameterError(
                f"epsilon^2 = {self.epsilon**2!r} must equal hbar/m = "
                f"{self.hbar / self.mass!r}")

    def forward_drift(self, t, x):
        return self.current(t, x) + self.osmotic(t, x)


def _log_gradients(psi: WaveFunctionGrid) -> tuple[np.ndarray, np.ndarray]:
    """Im and Re parts of grad(psi)/psi on the grid, nodal cells masked."""
    vals = psi.values
    amp = np.abs(vals)
    nodal = amp <= NODAL_FLOOR
    if np.any(nodal):
        warnings.warn(f"{int(np.count_nonzero(nodal))} nodal grid cells masked "
                      "in the wavefunction drift", stacklevel=3)
    grads = np.gradient(vals, *psi.spacings, edge_order=2)
    if psi.dimension == 1:
        grads = [grads]
    ratio = np.stack([np.where(nodal, np.nan, g / np.where(nodal, 1.0, vals))
                      for g in grads], axis=-1)
    return np.imag(ratio), np.real(ratio)


def _interpolated_field(psi: WaveFunctionGrid, comp: np.ndarray):
    # imported here, so that importing fractoid loads no scipy
    from scipy.interpolate import RegularGridInterpolator

    fills = [RegularGridInterpolator(psi.axes, np.nan_to_num(comp[..., i]),
                                     method="linear", bounds_error=False,
                                     fill_value=None)
             for i in range(psi.dimension)]

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([f(x) for f in fills], axis=-1)

    return drift


def drift_from_wavefunction(psi: WaveFunctionGrid) -> NelsonProcessSpec:
    """v = (hbar/m) grad Im log psi, u = (hbar/m) grad Re log psi."""
    scale = psi.hbar / psi.mass
    v_grid, u_grid = _log_gradients(psi)
    return NelsonProcessSpec(
        current=_interpolated_field(psi, scale * v_grid),
        osmotic=_interpolated_field(psi, scale * u_grid),
        epsilon=float(np.sqrt(psi.hbar / psi.mass)),
        hbar=psi.hbar, mass=psi.mass,
    )


# --- named analytic wavefunctions -------------------------------------------

_NAME_RE = re.compile(r"^([a-z\-]+)\(([^)]*)\)$")


def make_wavefunction(name: str, axes, hbar: float = 1.0,
                      mass: float = 1.0) -> WaveFunctionGrid:
    """Registry: "ho-ground(omega)", "plane-wave(k)", "gaussian-packet(sigma)"."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ConfigError(f"bad wavefunction name '{name}'; expected form name(args)")
    kind, argstr = m.group(1), m.group(2)
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []
    axes = tuple(np.asarray(a, dtype=float) for a in np.atleast_2d(axes)) \
        if not isinstance(axes, (tuple, list)) else tuple(np.asarray(a) for a in axes)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    r2 = np.sum(mesh**2, axis=-1)
    if kind == "ho-ground":
        omega = args[0] if args else 1.0
        vals = np.exp(-mass * omega * r2 / (2.0 * hbar)).astype(complex)
    elif kind == "plane-wave":
        if not args:
            raise ConfigError("plane-wave(k) requires the wavenumber")
        k = np.zeros(mesh.shape[-1])
        k[:len(args)] = args
        vals = np.exp(1j * np.tensordot(mesh, k, axes=([-1], [0])))
    elif kind == "gaussian-packet":
        sigma = args[0] if args else 1.0
        vals = np.exp(-r2 / (2.0 * sigma**2)).astype(complex)
    else:
        raise ConfigError(f"unknown wavefunction '{kind}'; "
                          "available: ho-ground, plane-wave, gaussian-packet")
    return WaveFunctionGrid(axes=axes, values=vals, hbar=hbar, mass=mass)
