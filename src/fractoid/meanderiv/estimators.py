"""Forward/backward mean-derivative estimators by bin-conditional averaging.

The conditional expectation given the present state is realized as the
average over all path samples whose position at time t falls in a
rectangular (t, x) bin.  Bins below min_count report NaN ("empty"), never
zero, so downstream finite differences cannot silently use them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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

    def flat_index(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Flattened bin index per sample, -1 for out-of-grid."""
        it = np.searchsorted(self.time_edges, t, side="right") - 1
        ok = (it >= 0) & (it < self.n_time_bins)
        idx = it.astype(np.int64)
        for a, edges in enumerate(self.space_edges):
            ia = np.searchsorted(edges, x[..., a], side="right") - 1
            ok &= (ia >= 0) & (ia < len(edges) - 1)
            idx = idx * (len(edges) - 1) + np.where(ia < 0, 0, ia)
        return np.where(ok, idx, -1)


@dataclass
class BinnedVectorField:
    """Per-bin vector estimates with counts and standard errors.

    cond_mean is the mean conditioning point per bin; analytic targets
    should be evaluated there rather than at the geometric bin center
    (the bin is the conditioning event).
    """

    config: EstimatorConfig
    values: np.ndarray                 # shape + (dim,), NaN on empty bins
    se: np.ndarray                     # shape + (dim,)
    count: np.ndarray                  # shape
    cond_mean: np.ndarray | None = None   # shape + (dim,)

    @property
    def mask(self) -> np.ndarray:
        return self.count >= self.config.min_count

    def n_populated(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class BinnedMatrixField:
    config: EstimatorConfig
    values: np.ndarray                 # shape + (dim, dim)
    se: np.ndarray
    count: np.ndarray
    cond_mean: np.ndarray | None = None

    @property
    def mask(self) -> np.ndarray:
        return self.count >= self.config.min_count


@dataclass
class MeanDerivativeField:
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

    @property
    def mask(self) -> np.ndarray:
        return self.count >= self.config.min_count


def _causal_filter(ensemble: PathEnsemble, config: EstimatorConfig,
                   increments: np.ndarray) -> np.ndarray:
    """Mask increments by the sign of their Minkowski norm."""
    chart = get_chart(ensemble.chart_name)
    if not chart.is_lorentzian:
        raise ParameterError("causal_split requires a Lorentzian chart")
    eta = np.diag(chart.signature_matrix())
    norm2 = np.einsum("...i,i,...i->...", increments, eta, increments)
    if config.causal_split == "timelike":
        return norm2 <= 0
    return norm2 >= 0


def _binned_average(config: EstimatorConfig, t: np.ndarray, cond: np.ndarray,
                    values: np.ndarray, keep: np.ndarray | None = None):
    """Reduce samples into per-bin (count, mean, se, conditioning-mean)
    accumulators.

    values has shape (n_samples, m); the reduction is a fixed-order bincount,
    so equal inputs give bit-identical results.
    """
    idx = config.flat_index(t, cond)
    sel = idx >= 0
    if keep is not None:
        sel &= keep
    idx = idx[sel]
    vals = values[sel]
    pts = cond[sel]
    n_bins = int(np.prod(config.shape))
    count = np.bincount(idx, minlength=n_bins).astype(np.int64)
    m = vals.shape[1]
    mean = np.full((n_bins, m), np.nan)
    se = np.full((n_bins, m), np.nan)
    nz = count > 0
    for c in range(m):
        s1 = np.bincount(idx, weights=vals[:, c], minlength=n_bins)
        s2 = np.bincount(idx, weights=vals[:, c] ** 2, minlength=n_bins)
        mu = np.where(nz, s1 / np.maximum(count, 1), np.nan)
        var = np.where(count > 1,
                       (s2 - np.maximum(count, 1) * mu**2) / np.maximum(count - 1, 1),
                       np.nan)
        mean[:, c] = mu
        se[:, c] = np.sqrt(np.maximum(var, 0.0) / np.maximum(count, 1))
    dim = pts.shape[1]
    cond_mean = np.full((n_bins, dim), np.nan)
    for a in range(dim):
        s = np.bincount(idx, weights=pts[:, a], minlength=n_bins)
        cond_mean[:, a] = np.where(nz, s / np.maximum(count, 1), np.nan)
    empty = count < config.min_count
    mean[empty] = np.nan
    se[empty] = np.nan
    cond_mean[empty] = np.nan
    return count.reshape(config.shape), \
        mean.reshape(config.shape + (m,)), se.reshape(config.shape + (m,)), \
        cond_mean.reshape(config.shape + (dim,))


def _difference_quotients(ensemble: PathEnsemble, config: EstimatorConfig,
                          direction: str):
    """Flattened (t, conditioning point, increment quotient) sample arrays."""
    lag = config.lag
    if ensemble.n_steps < lag:
        raise ParameterError(f"ensemble has {ensemble.n_steps} steps, need >= lag={lag}")
    dtau = lag * ensemble.dt
    paths = ensemble.paths
    if direction == "forward":
        cond = paths[:, :-lag, :]
        inc = paths[:, lag:, :] - cond
        t = ensemble.times[:-lag]
    elif direction == "backward":
        cond = paths[:, lag:, :]
        inc = cond - paths[:, :-lag, :]
        t = ensemble.times[lag:]
    else:
        raise ParameterError(f"direction must be forward or backward, got '{direction}'")
    n, k, dim = inc.shape
    t_flat = np.broadcast_to(t, (n, k)).reshape(-1)
    cond_flat = cond.reshape(-1, dim)
    inc_flat = inc.reshape(-1, dim)
    return t_flat, cond_flat, inc_flat, dtau


def _estimate(ensemble: PathEnsemble, config: EstimatorConfig,
              direction: str) -> BinnedVectorField:
    """One-sided estimate under the config's causal filter; bins below
    min_count stay NaN."""
    t, cond, inc, dtau = _difference_quotients(ensemble, config, direction)
    keep = None
    if config.causal_split != "off":
        keep = _causal_filter(ensemble, config, inc)
    count, mean, se, cond_mean = _binned_average(config, t, cond, inc / dtau, keep)
    return BinnedVectorField(config=config, values=mean, se=se, count=count,
                             cond_mean=cond_mean)


def _require_populated(field: BinnedVectorField) -> BinnedVectorField:
    min_count = field.config.min_count
    if not np.any(field.count >= min_count):
        raise EstimationError(
            f"no bins reached min_count={min_count}; largest bin holds "
            f"{int(field.count.max()) if field.count.size else 0} samples")
    return field


def estimate_forward(ensemble: PathEnsemble, config: EstimatorConfig) -> BinnedVectorField:
    """Per-bin mean of (x(t + lag dt) - x(t)) / (lag dt) given x(t) in the bin."""
    return _require_populated(_estimate(ensemble, config, "forward"))


def estimate_backward(ensemble: PathEnsemble, config: EstimatorConfig) -> BinnedVectorField:
    """Per-bin mean of (x(t) - x(t - lag dt)) / (lag dt) given x(t) in the bin."""
    return _require_populated(_estimate(ensemble, config, "backward"))


def relativistic_mean_derivatives(ensemble: PathEnsemble,
                                  config: EstimatorConfig
                                  ) -> tuple[BinnedVectorField, BinnedVectorField]:
    """Two-term causal sums on a Lorentzian chart.

    The forward derivative adds the timelike-conditioned forward quotient to
    the spacelike-conditioned backward quotient; the backward derivative
    mirrors the conditioning.  A bin is populated only when both of its
    terms reach min_count.
    """
    from dataclasses import replace as _rep

    tl = _rep(config, causal_split="timelike")
    sl = _rep(config, causal_split="spacelike")

    def combine(a: BinnedVectorField, b: BinnedVectorField) -> BinnedVectorField:
        count = np.minimum(a.count, b.count)
        values = a.values + b.values
        se = np.sqrt(a.se**2 + b.se**2)
        empty = count < config.min_count
        values[empty] = np.nan
        se[empty] = np.nan
        return BinnedVectorField(config=config, values=values, se=se,
                                 count=count, cond_mean=a.cond_mean)

    forward = combine(_estimate(ensemble, tl, "forward"),
                      _estimate(ensemble, sl, "backward"))
    backward = combine(_estimate(ensemble, tl, "backward"),
                       _estimate(ensemble, sl, "forward"))
    if not (np.any(forward.mask) or np.any(backward.mask)):
        raise EstimationError("no bins populated in both causal classes; "
                              "the split needs a coarser time step")
    return forward, backward


def spacelike_fraction(ensemble: PathEnsemble, lag: int = 1) -> float:
    """Diagnostic: fraction of forward increments with non-negative
    Minkowski norm; tends to 1 as dt -> 0 (diffusive scaling dominates c dt).
    """
    chart = get_chart(ensemble.chart_name)
    if not chart.is_lorentzian:
        raise ParameterError("spacelike_fraction requires a Lorentzian chart")
    inc = ensemble.paths[:, lag:, :] - ensemble.paths[:, :-lag, :]
    eta = np.diag(chart.signature_matrix())
    norm2 = np.einsum("...i,i,...i->...", inc, eta, inc)
    return float(np.mean(norm2 >= 0))


def velocity_fields(forward: BinnedVectorField,
                    backward: BinnedVectorField) -> MeanDerivativeField:
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
    """Convenience pipeline: forward + backward + derived fields."""
    return velocity_fields(estimate_forward(ensemble, config),
                           estimate_backward(ensemble, config))


def quadratic_variation_matrix(ensemble: PathEnsemble, config: EstimatorConfig,
                               direction: str = "forward") -> BinnedMatrixField:
    """Per-bin mean of the increment outer product over the time step."""
    t, cond, inc, dtau = _difference_quotients(ensemble, config, direction)
    dim = inc.shape[1]
    outer = (inc[:, :, None] * inc[:, None, :]).reshape(-1, dim * dim) / dtau
    count, mean, se, cond_mean = _binned_average(config, t, cond, outer)
    if not np.any(count >= config.min_count):
        raise EstimationError(f"no bins reached min_count={config.min_count}")
    return BinnedMatrixField(config=config,
                             values=mean.reshape(config.shape + (dim, dim)),
                             se=se.reshape(config.shape + (dim, dim)),
                             count=count, cond_mean=cond_mean)


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
