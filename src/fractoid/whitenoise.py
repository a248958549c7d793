"""Gaussian white noise on a (1+d)-dimensional lattice and Paley-Wiener
integration against test functions.

Cells are iid N(0, 1/cell_volume), so the lattice integral
W_w = sum w * noise * cell_volume is a Gaussian isometry: cov(W_w, W_v)
equals the discrete Euclidean L2 inner product <w, v>.  The indefinite
signature form is exposed separately as :func:`signature_inner_product`
(an indefinite bilinear form is not a valid covariance).
:func:`paley_wiener_samples` draws its lattices in the row chunks of
``stochastic.integrator.row_chunks``, at most CHUNK_VALUES cell values each.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError, ResourceError, call_checked, parse_registry_name
from .persistence import manifest_for, read_manifest, write_manifest
from .stochastic import make_stream, stream_normals
from .stochastic.integrator import row_chunks, step_count

DEFAULT_CELL_CAP = 10_000_000


@dataclass(frozen=True)
class SpaceTimeLattice:
    """Time extent [0, T] step dt; spatial box [-L, L]^d step dx."""

    t_extent: float
    dt: float
    half_width: float
    dx: float
    d: int = 4
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("d must be >= 1")
        # each raises unless its extent and step are positive and the step
        # divides the extent: rounded counts would leave part of the box out
        self.n_t, self.n_x

    @property
    def n_t(self) -> int:
        return step_count(self.t_extent, self.dt, ("t_extent", "dt"))

    @property
    def n_x(self) -> int:
        return step_count(2.0 * self.half_width, self.dx, ("2*half_width", "dx"))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_t,) + (self.n_x,) * self.d

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(self.dt * self.dx**self.d)

    def t_centers(self) -> np.ndarray:
        return (np.arange(self.n_t) + 0.5) * self.dt

    def x_centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.n_x) + 0.5) * self.dx

    def mesh(self) -> np.ndarray:
        axes = [self.t_centers()] + [self.x_centers()] * self.d
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def manifest(self) -> dict:
        return {"t_extent": self.t_extent, "dt": self.dt,
                "half_width": self.half_width, "dx": self.dx, "d": self.d}


@dataclass
class WhiteNoiseSample:
    """One realization of iid Gaussian cell values on a lattice."""

    lattice: SpaceTimeLattice
    values: np.ndarray
    seed: int

    def write(self, path) -> None:
        """Flat binary of float64 in row-major cell order plus JSON manifest."""
        self.values.astype(np.float64).tofile(path)
        write_manifest(manifest_for(path),
                       {"lattice": self.lattice.manifest(), "seed": int(self.seed)})

    @classmethod
    def read(cls, path) -> "WhiteNoiseSample":
        mpath = manifest_for(path)
        manifest = read_manifest(mpath, {"lattice": dict, "seed": int})
        try:
            lattice = SpaceTimeLattice(**manifest["lattice"])
        except TypeError as exc:
            raise ParameterError(f"{mpath}: bad lattice: {exc}") from exc
        size = Path(path).stat().st_size
        if size != lattice.n_cells * 8:
            raise ParameterError(f"{path} holds {size} bytes, its manifest's lattice "
                                 f"needs {lattice.n_cells * 8} (8 per cell)")
        values = np.fromfile(path, dtype=np.float64).reshape(lattice.shape)
        return cls(lattice=lattice, values=values, seed=int(manifest["seed"]))


def sample_white_noise(lattice: SpaceTimeLattice, seed: int) -> WhiteNoiseSample:
    """iid N(0, 1/cell_volume) cells, deterministic per seed."""
    if lattice.n_cells > lattice.cell_cap:
        raise ResourceError(f"lattice has {lattice.n_cells} cells, cap is "
                            f"{lattice.cell_cap}")
    sigma = 1.0 / np.sqrt(lattice.cell_volume)
    gen = make_stream(seed, 0)
    values = gen.normal(0.0, sigma, size=lattice.shape)
    return WhiteNoiseSample(lattice=lattice, values=values, seed=seed)


def _on_lattice(lattice: SpaceTimeLattice, w) -> np.ndarray:
    """w as a float array of the lattice's shape: the array itself, or a
    callable's values on lattice.mesh(); another shape is a ParameterError."""
    if callable(w):
        return call_checked(w, "test function", lattice.shape, lattice.mesh())
    w = np.asarray(w, dtype=float)
    if w.shape != lattice.shape:
        raise ParameterError(f"test function shape {w.shape} does not match "
                             f"lattice {lattice.shape}")
    return w


def paley_wiener_integral(sample: WhiteNoiseSample, w) -> float:
    """Discrete W_w = sum_cells w * noise * cell_volume."""
    w_arr = _on_lattice(sample.lattice, w)
    if not np.all(np.isfinite(w_arr)):
        raise ParameterError("test function must be finite on the lattice")
    return float(np.sum(w_arr * sample.values) * sample.lattice.cell_volume)


def lattice_inner_product(lattice: SpaceTimeLattice, w, v) -> float:
    """Discrete Euclidean L2 pairing sum(w v) * cell_volume."""
    return float(np.sum(_on_lattice(lattice, w) * _on_lattice(lattice, v))
                 * lattice.cell_volume)


def paley_wiener_samples(lattice: SpaceTimeLattice, fns, n_samples: int,
                         seed: int) -> np.ndarray:
    """(n_samples, len(fns)) integrals W_f; sample i draws its lattice from
    the stream make_stream(seed, i), so the integrals depend only on the
    seed.  Each block's lattices, one a row, come from one generator
    re-keyed per sample; each integral is one row sum over the block, with
    the bits of a sum over that sample's lattice alone."""
    fns = [_on_lattice(lattice, f) for f in fns]
    vol = lattice.cell_volume
    sigma = 1.0 / np.sqrt(vol)
    out = np.empty((n_samples, len(fns)))
    for rows in row_chunks(n_samples, lattice.n_cells):
        noise = np.stack(list(stream_normals(seed, range(n_samples)[rows], sigma,
                                             lattice.n_cells)))
        for j, f in enumerate(fns):
            out[rows, j] = (f.ravel() * noise).sum(axis=-1) * vol
    return out


def covariance_check(lattice: SpaceTimeLattice, w, v, n_samples: int,
                     seed: int) -> tuple[float, float]:
    """Empirical cov(W_w, W_v) over paley_wiener_samples and its z-score
    against <w, v>.  Returns (covariance, z_score).
    """
    if n_samples < 100:
        raise ParameterError("need at least 100 samples")
    w_arr = _on_lattice(lattice, w)
    v_arr = _on_lattice(lattice, v)
    ww, vv = paley_wiener_samples(lattice, [w_arr, v_arr], n_samples, seed).T
    cov = float(np.mean(ww * vv) - np.mean(ww) * np.mean(vv))
    target = lattice_inner_product(lattice, w_arr, v_arr)
    nw = lattice_inner_product(lattice, w_arr, w_arr)
    nv = lattice_inner_product(lattice, v_arr, v_arr)
    se = float(np.sqrt((nw * nv + target**2) / n_samples))
    z = (cov - target) / se if se > 0 else 0.0
    return cov, float(z)


def signature_inner_product(v, w, z_star: int) -> float:
    """Signed pairing: + on the first n - z_star entries, - on the last z_star."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise ParameterError("v and w must be equal-length vectors")
    n = v.shape[0]
    if z_star < 0 or z_star > n:
        raise ParameterError(f"z_star must be in [0, {n}]")
    cut = n - z_star
    return float(np.sum(v[:cut] * w[:cut]) - np.sum(v[cut:] * w[cut:]))


# --- named test functions ----------------------------------------------------

def make_test_function(name: str):
    """Registry: "bump(center,width)" (Gaussian bump, same center each axis)
    and "indicator(lo,hi)" (box indicator per axis)."""
    kind, args = parse_registry_name(name, "test function")
    if kind == "bump":
        center = args[0] if args else 0.0
        width = args[1] if len(args) > 1 else 0.2

        def bump(mesh):
            r2 = np.sum((mesh - center) ** 2, axis=-1)
            return np.exp(-r2 / (2.0 * width**2))

        return bump
    if kind == "indicator":
        lo = args[0] if args else 0.0
        hi = args[1] if len(args) > 1 else 0.5

        def box(mesh):
            inside = np.all((mesh >= lo) & (mesh <= hi), axis=-1)
            return inside.astype(float)

        return box
    raise ConfigError(f"unknown test function '{kind}'; available: bump, indicator")
