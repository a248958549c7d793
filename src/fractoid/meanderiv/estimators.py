"""Forward/backward mean-derivative estimators by bin-conditional averaging.

The conditional expectation given the present state is realized as the
average over all path samples whose position at time t falls in a
rectangular (t, x) bin.  Bins below min_count report NaN ("empty"), never
zero, so downstream finite differences cannot silently use them.

Each ensemble is binned once.  :class:`LaggedSamples` holds the bin of
every sample (:meth:`EstimatorConfig.bin_index`) and one array of
increments x(t + lag dt) - x(t).  An increment's forward quotient is
conditioned on its early end and its backward quotient on its late end, so
both directions, the causal split and the quadratic variation read the
same two arrays, and one accumulator reduces them per bin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..errors import EstimationError, ParameterError
from ..geometry import get_chart
from ..stochastic import PathEnsemble


@dataclass(frozen=True)
class EstimatorConfig:
    """Rectangular (t, x) bin specification for conditional averages."""

    time_edges: np.ndarray
    space_edges: tuple[np.ndarray, ...]
    min_count: int = 200
    lag: int = 1
    causal_split: str = "off"          # off | timelike | spacelike

    def __post_init__(self):
        object.__setattr__(self, "time_edges", np.asarray(self.time_edges, dtype=float))
        object.__setattr__(self, "space_edges",
                           tuple(np.asarray(e, dtype=float) for e in self.space_edges))
        if self.min_count < 2:
            raise ParameterError("min_count must be >= 2")
        if self.lag < 1:
            raise ParameterError("lag must be >= 1")
        if self.causal_split not in ("off", "timelike", "spacelike"):
            raise ParameterError(f"bad causal_split '{self.causal_split}'")
        for e in (self.time_edges, *self.space_edges):
            if len(e) < 2 or np.any(np.diff(e) <= 0):
                raise ParameterError("bin edges must be increasing with >= 2 entries")

    @classmethod
    def regular(cls, t_range, n_t, x_range, n_x, dim=None, **kw) -> "EstimatorConfig":
        """Uniform grid: t_range=(t0,t1) split n_t ways, x_range per dim."""
        te = np.linspace(t_range[0], t_range[1], n_t + 1)
        if dim is None:
            dim = 1
        if np.isscalar(x_range[0]):
            x_range = [x_range] * dim
        if np.isscalar(n_x):
            n_x = [n_x] * dim
        xe = tuple(np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(x_range, n_x))
        return cls(time_edges=te, space_edges=xe, **kw)

    @property
    def dimension(self) -> int:
        return len(self.space_edges)

    @property
    def n_time_bins(self) -> int:
        return len(self.time_edges) - 1

    @property
    def n_space_bins(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.space_edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_time_bins,) + self.n_space_bins

    @property
    def t_centers(self) -> np.ndarray:
        return 0.5 * (self.time_edges[:-1] + self.time_edges[1:])

    @property
    def x_centers(self) -> tuple[np.ndarray, ...]:
        return tuple(0.5 * (e[:-1] + e[1:]) for e in self.space_edges)

    @property
    def center_mesh(self) -> np.ndarray:
        """Spatial bin centers, shape n_space_bins + (dim,)."""
        return np.stack(np.meshgrid(*self.x_centers, indexing="ij"), axis=-1)

    def evaluation_points(self, cond_mean: np.ndarray | None) -> np.ndarray:
        """Where to evaluate a per-bin target, shape + (dim,): the conditional
        mean where the bin has one, the geometric bin center otherwise."""
        pts = np.broadcast_to(self.center_mesh, self.shape + (self.dimension,)).copy()
        if cond_mean is not None:
            known = np.isfinite(cond_mean).all(axis=-1)
            pts[known] = cond_mean[known]
        return pts

    @property
    def x_steps(self) -> tuple[float, ...]:
        steps = []
        for e in self.space_edges:
            w = np.diff(e)
            if np.max(np.abs(w - w[0])) > 1e-9 * max(1.0, abs(w[0])):
                raise ParameterError("finite differences need uniform bin widths")
            steps.append(float(w[0]))
        return tuple(steps)

    def same_grid(self, other: "EstimatorConfig") -> bool:
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.time_edges, other.time_edges):
            return False
        return all(np.array_equal(a, b)
                   for a, b in zip(self.space_edges, other.space_edges))

    def bin_index(self, times: np.ndarray, paths: np.ndarray) -> np.ndarray:
        """(N, K+1) flattened bin of every sample of paths (N, K+1, dim)
        taken at times (K+1,), -1 outside the grid.  Bins are half-open
        [lo, hi); the time bin is found once per step."""
        it = np.searchsorted(self.time_edges, times, side="right") - 1
        ok = (it >= 0) & (it < self.n_time_bins)
        idx = it.astype(np.int64)
        for a, edges in enumerate(self.space_edges):
            n = len(edges) - 1
            ia = np.searchsorted(edges, paths[..., a], side="right") - 1
            ok = ok & (ia >= 0) & (ia < n)
            idx = idx * n + np.maximum(ia, 0)
        return np.where(ok, idx, -1)


class _Binned:
    """A bin is populated when it holds at least min_count samples."""

    @property
    def mask(self) -> np.ndarray:
        return self.count >= self.config.min_count


@dataclass
class BinnedField(_Binned):
    """Per-bin estimates with counts and standard errors.

    values and se have shape config.shape + the value shape: (dim,) for a
    mean derivative, (dim, dim) for a quadratic variation.  cond_mean is
    the mean conditioning point per bin; analytic targets should be
    evaluated there rather than at the geometric bin center (the bin is
    the conditioning event).
    """

    config: EstimatorConfig
    values: np.ndarray                 # NaN on empty bins
    se: np.ndarray
    count: np.ndarray                  # shape
    cond_mean: np.ndarray | None = None   # shape + (dim,)

    def n_populated(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class MeanDerivativeField(_Binned):
    """Forward/backward estimates plus the derived current/osmotic fields.

    current = (forward + backward) / 2 and osmotic = (forward - backward) / 2
    are computed from the bin values, never estimated independently.
    """

    config: EstimatorConfig
    forward: np.ndarray
    backward: np.ndarray
    forward_se: np.ndarray
    backward_se: np.ndarray
    current: np.ndarray
    osmotic: np.ndarray
    velocity_se: np.ndarray
    count: np.ndarray
    cond_mean: np.ndarray | None = None


def _increments(ensemble: PathEnsemble, lag: int) -> np.ndarray:
    """(N, K+1-lag, dim) increments x(t + lag dt) - x(t)."""
    if ensemble.n_steps < lag:
        raise ParameterError(f"ensemble has {ensemble.n_steps} steps, need >= lag={lag}")
    return ensemble.paths[:, lag:, :] - ensemble.paths[:, :-lag, :]


def _minkowski_norm2(ensemble: PathEnsemble, increments: np.ndarray) -> np.ndarray:
    chart = get_chart(ensemble.chart_name)
    if not chart.is_lorentzian:
        raise ParameterError("causal classes require a Lorentzian chart")
    eta = np.diag(chart.signature_matrix())
    return np.einsum("...i,i,...i->...", increments, eta, increments)


def _accumulate(config: EstimatorConfig, index: np.ndarray, values: np.ndarray,
                points: np.ndarray, keep: np.ndarray | None = None) -> BinnedField:
    """Per-bin count, mean, standard error and conditioning mean.

    index (N, M) bins the samples, values (N, M, ...) holds their values
    and points (N, M, dim) their conditioning points; keep, when given,
    drops samples.  The sums are fixed-order bincounts, so equal inputs
    give bit-identical results.
    """
    sel = index >= 0
    if keep is not None:
        sel &= keep
    idx = index[sel]
    vshape = values.shape[2:]
    m = int(np.prod(vshape))
    vals = values[sel].reshape(len(idx), m)
    pts = points[sel]
    n_bins = int(np.prod(config.shape))
    count = np.bincount(idx, minlength=n_bins).astype(np.int64)
    mean = np.full((n_bins, m), np.nan)
    se = np.full((n_bins, m), np.nan)
    nz = count > 0
    for c in range(m):
        s1 = np.bincount(idx, weights=vals[:, c], minlength=n_bins)
        mu = np.where(nz, s1 / np.maximum(count, 1), np.nan)
        # second pass about the bin mean: s2 - n mu^2 cancels catastrophically
        # once the mean dwarfs the spread (Chan, Golub & LeVeque 1983)
        dev = mu[idx]
        np.subtract(vals[:, c], dev, out=dev)
        s2 = np.bincount(idx, weights=np.square(dev, out=dev), minlength=n_bins)
        var = np.where(count > 1, s2 / np.maximum(count - 1, 1), np.nan)
        mean[:, c] = mu
        se[:, c] = np.sqrt(var / np.maximum(count, 1))
    dim = pts.shape[1]
    cond_mean = np.full((n_bins, dim), np.nan)
    for a in range(dim):
        s = np.bincount(idx, weights=pts[:, a], minlength=n_bins)
        cond_mean[:, a] = np.where(nz, s / np.maximum(count, 1), np.nan)
    empty = count < config.min_count
    mean[empty] = np.nan
    se[empty] = np.nan
    cond_mean[empty] = np.nan
    return BinnedField(config=config, values=mean.reshape(config.shape + vshape),
                       se=se.reshape(config.shape + vshape),
                       count=count.reshape(config.shape),
                       cond_mean=cond_mean.reshape(config.shape + (dim,)))


def _require_populated(field: BinnedField) -> BinnedField:
    min_count = field.config.min_count
    if not np.any(field.count >= min_count):
        raise EstimationError(
            f"no bins reached min_count={min_count}; largest bin holds "
            f"{int(field.count.max()) if field.count.size else 0} samples")
    return field


class LaggedSamples:
    """One ensemble binned once under a config.

    index[p, k] is the bin of sample (p, k), -1 outside the grid, and
    increments[p, k] = x_p(t_k + lag dt) - x_p(t_k).  An increment's
    forward quotient is conditioned on its early end (step k), its
    backward quotient on its late end (step k + lag).
    """

    def __init__(self, ensemble: PathEnsemble, config: EstimatorConfig):
        if ensemble.dimension != config.dimension:
            raise ParameterError(f"ensemble dimension {ensemble.dimension} does not "
                                 f"match the {config.dimension}-d bin grid")
        self.ensemble = ensemble
        self.config = config
        self.increments = _increments(ensemble, config.lag)
        self.dtau = config.lag * ensemble.dt
        self.index = config.bin_index(ensemble.times, ensemble.paths)

    def ends(self, direction: str) -> tuple[slice, slice]:
        """Step slices of a direction's (conditioning, displaced) ends."""
        early, late = slice(None, -self.config.lag), slice(self.config.lag, None)
        if direction == "forward":
            return early, late
        if direction == "backward":
            return late, early
        raise ParameterError(f"direction must be forward or backward, got '{direction}'")

    @cached_property
    def quotients(self) -> np.ndarray:
        """The difference quotients increments / (lag dt) of both directions."""
        return self.increments / self.dtau

    @cached_property
    def _causal_norm2(self) -> np.ndarray:
        return _minkowski_norm2(self.ensemble, self.increments)

    def causal(self, split: str) -> np.ndarray | None:
        """Which increments a causal split keeps (None keeps all)."""
        if split == "off":
            return None
        if split == "timelike":
            return self._causal_norm2 <= 0
        return self._causal_norm2 >= 0

    def average(self, direction: str, values: np.ndarray,
                keep: np.ndarray | None = None) -> BinnedField:
        """Per-bin average of per-increment values (N, K+1-lag, ...) over
        the bins of the direction's conditioning end."""
        near, _ = self.ends(direction)
        return _accumulate(self.config, self.index[:, near], values,
                           self.ensemble.paths[:, near], keep)

    def mean_derivative(self, direction: str) -> BinnedField:
        """The one-sided quotient average under the config's causal split;
        raises EstimationError when no bin reaches min_count."""
        return _require_populated(self.average(
            direction, self.quotients, self.causal(self.config.causal_split)))

    def at_samples(self, direction: str, values: np.ndarray) -> np.ndarray:
        """Per-bin values (shape + ...) read back at each conditioning
        sample of a direction, (N, K+1-lag, ...), NaN outside the grid."""
        near, _ = self.ends(direction)
        idx = self.index[:, near]
        flat = values.reshape((-1,) + values.shape[len(self.config.shape):])
        inside = (idx >= 0).reshape(idx.shape + (1,) * (flat.ndim - 1))
        return np.where(inside, flat[np.maximum(idx, 0)], np.nan)


def estimate_forward(ensemble: PathEnsemble, config: EstimatorConfig) -> BinnedField:
    """Per-bin mean of (x(t + lag dt) - x(t)) / (lag dt) given x(t) in the bin."""
    return LaggedSamples(ensemble, config).mean_derivative("forward")


def estimate_backward(ensemble: PathEnsemble, config: EstimatorConfig) -> BinnedField:
    """Per-bin mean of (x(t) - x(t - lag dt)) / (lag dt) given x(t) in the bin."""
    return LaggedSamples(ensemble, config).mean_derivative("backward")


def relativistic_mean_derivatives(ensemble: PathEnsemble,
                                  config: EstimatorConfig
                                  ) -> tuple[BinnedField, BinnedField]:
    """Two-term causal sums on a Lorentzian chart.

    The forward derivative adds the timelike-conditioned forward quotient to
    the spacelike-conditioned backward quotient; the backward derivative
    mirrors the conditioning.  A bin is populated only when both of its
    terms reach min_count.
    """
    samples = LaggedSamples(ensemble, config)
    timelike, spacelike = samples.causal("timelike"), samples.causal("spacelike")

    def combine(first: str, second: str) -> BinnedField:
        a = samples.average(first, samples.quotients, timelike)
        b = samples.average(second, samples.quotients, spacelike)
        count = np.minimum(a.count, b.count)
        values = a.values + b.values
        se = np.sqrt(a.se**2 + b.se**2)
        empty = count < config.min_count
        values[empty] = np.nan
        se[empty] = np.nan
        return BinnedField(config=config, values=values, se=se,
                           count=count, cond_mean=a.cond_mean)

    forward = combine("forward", "backward")
    backward = combine("backward", "forward")
    if not (np.any(forward.mask) or np.any(backward.mask)):
        raise EstimationError("no bins populated in both causal classes; "
                              "the split needs a coarser time step")
    return forward, backward


def spacelike_fraction(ensemble: PathEnsemble, lag: int = 1) -> float:
    """Diagnostic: fraction of forward increments with non-negative
    Minkowski norm; tends to 1 as dt -> 0 (diffusive scaling dominates c dt).
    """
    return float(np.mean(_minkowski_norm2(ensemble, _increments(ensemble, lag)) >= 0))


def velocity_fields(forward: BinnedField, backward: BinnedField) -> MeanDerivativeField:
    """current = (D+ + D-)/2, osmotic = (D+ - D-)/2, exact bin arithmetic."""
    if not forward.config.same_grid(backward.config):
        raise ParameterError("forward and backward estimates use different grids")
    count = np.minimum(forward.count, backward.count)
    current = 0.5 * (forward.values + backward.values)
    osmotic = 0.5 * (forward.values - backward.values)
    vse = 0.5 * np.sqrt(forward.se**2 + backward.se**2)
    empty = count < forward.config.min_count
    for arr in (current, osmotic, vse):
        arr[empty] = np.nan
    return MeanDerivativeField(
        config=forward.config,
        forward=forward.values, backward=backward.values,
        forward_se=forward.se, backward_se=backward.se,
        current=current, osmotic=osmotic, velocity_se=vse,
        count=count, cond_mean=forward.cond_mean,
    )


def estimate_velocity_fields(ensemble: PathEnsemble,
                             config: EstimatorConfig) -> MeanDerivativeField:
    """Convenience pipeline: forward + backward + derived fields, from one
    binning of the ensemble."""
    samples = LaggedSamples(ensemble, config)
    return velocity_fields(samples.mean_derivative("forward"),
                           samples.mean_derivative("backward"))


def quadratic_variation_matrix(ensemble: PathEnsemble, config: EstimatorConfig,
                               direction: str = "forward") -> BinnedField:
    """Per-bin mean of the increment outer product over the time step;
    values have shape config.shape + (dim, dim)."""
    samples = LaggedSamples(ensemble, config)
    inc = samples.increments
    return _require_populated(samples.average(
        direction, inc[..., :, None] * inc[..., None, :] / samples.dtau))


# --- persistence -----------------------------------------------------------

def write_field_csv(field: MeanDerivativeField, path, manifest_path=None) -> None:
    """CSV export: t,x0..,count,D+_0..,D-_0..,w1_0..,w2_0..,se_0.. plus manifest."""
    path = Path(path)
    cfg = field.config
    dim = cfg.dimension
    header = (["t"] + [f"x{i}" for i in range(dim)] + ["count"]
              + [f"D+_{i}" for i in range(dim)] + [f"D-_{i}" for i in range(dim)]
              + [f"w1_{i}" for i in range(dim)] + [f"w2_{i}" for i in range(dim)]
              + [f"se_{i}" for i in range(dim)])
    centers = np.meshgrid(cfg.t_centers, *cfg.x_centers, indexing="ij")
    flat = [c.reshape(-1) for c in centers]
    n_bins = flat[0].shape[0]
    cols = flat + [field.count.reshape(-1)]
    for arr in (field.forward, field.backward, field.current, field.osmotic,
                field.velocity_se):
        cols += [arr.reshape(n_bins, dim)[:, i] for i in range(dim)]
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join("%d" % v if isinstance(v, (int, np.integer))
                              else "%.17g" % v for v in row) + "\n")
    mpath = Path(manifest_path) if manifest_path else path.with_suffix(".manifest.json")
    manifest = {
        "time_edges": cfg.time_edges.tolist(),
        "space_edges": [e.tolist() for e in cfg.space_edges],
        "min_count": cfg.min_count,
        "lag": cfg.lag,
        "causal_split": cfg.causal_split,
    }
    with open(mpath, "w", encoding="utf8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
