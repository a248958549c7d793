"""Forward/backward mean-derivative estimators by bin-conditional averaging.

The conditional expectation given the present state is realized as the
average over all path samples whose position at time t falls in a
rectangular (t, x) bin.  Bins below min_count report NaN ("empty"), never
zero, so downstream finite differences cannot silently use them.

Each ensemble is binned once.  :class:`LaggedSamples` holds the bin of
every sample (:meth:`EstimatorConfig.bin_index`) in the smallest unsigned
type that holds the bin count; samples outside the grid carry the overflow
bin n_bins, which no estimate reads.  An increment x(t + lag dt) - x(t) is
conditioned on its early end for the forward quotient and on its late end
for the backward one, so both directions, the causal split and the
quadratic variation read the same index.

Values are never held for the whole ensemble, by the estimators or by the
covariant, energy and causal-class consumers: ``stochastic.path_blocks``,
the simulators' block walk, takes them ``stochastic.integrator.BLOCK_PATHS``
paths at a time.  The accumulator walks the blocks once.  It forms each
block's values once for every average that reads them (both directions of
a velocity field, the four causal terms of the relativistic sums), and sums
per bin the counts, the values, the conditioning points and the squares of
the values about a fixed shift, the bin's first sample.  A sample a causal
split drops goes to the overflow bin of its block.  Sums run in path-major
order, so no result depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import EstimationError, ParameterError
from ..geometry import get_chart
from ..persistence import manifest_for, write_manifest, write_table
from ..stochastic import PathEnsemble, path_blocks


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
    def n_bins(self) -> int:
        """Bins in the grid; also the overflow bin of samples outside it."""
        return int(np.prod(self.shape))

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
        taken at times (K+1,), n_bins outside the grid, in the smallest
        unsigned type that holds n_bins.  Bins are half-open [lo, hi); the
        time bin is found once per step."""
        it = np.searchsorted(self.time_edges, times, side="right") - 1
        ok = (it >= 0) & (it < self.n_time_bins)
        idx = it.astype(np.int64)
        for a, edges in enumerate(self.space_edges):
            n = len(edges) - 1
            ia = np.searchsorted(edges, paths[..., a], side="right") - 1
            ok = ok & (ia >= 0) & (ia < n)
            idx = idx * n + np.maximum(ia, 0)
        return np.where(ok, idx, self.n_bins).astype(np.min_scalar_type(self.n_bins))


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


def _increments(paths: np.ndarray, lag: int) -> np.ndarray:
    """(B, K+1-lag, dim) increments x(t + lag dt) - x(t) of paths (B, K+1, dim)."""
    return paths[:, lag:] - paths[:, :-lag]


def _minkowski_norm2(ensemble: PathEnsemble) -> Callable[[np.ndarray], np.ndarray]:
    """increments dx -> eta(dx, dx) on the ensemble's Lorentzian chart."""
    chart = get_chart(ensemble.chart_name)
    if not chart.is_lorentzian:
        raise ParameterError("causal classes require a Lorentzian chart")
    eta = np.diag(chart.signature_matrix())
    return lambda inc: np.einsum("...i,i,...i->...", inc, eta, inc)


# block(rows) -> (bins (B, M) per term, values (B, M, ...)) of the paths in rows
Block = Callable[[slice], tuple[list[np.ndarray], np.ndarray]]


def _accumulate(config: EstimatorConfig, block: Block,
                points: list[np.ndarray]) -> list[BinnedField]:
    """Per-bin count, mean, standard error and conditioning mean, per term.

    Every term averages the same per-sample values.  points[j] (N, M, dim)
    holds term j's conditioning points of N paths; block gives each term's
    bins and the shared values of a slice of them, with the overflow bin
    n_bins for samples a term does not take, so each block's values are
    formed once for all terms.  One walk over :func:`path_blocks` sums counts
    (exact integers), values, points and the squares of the values about a
    per-bin shift, the bin's first sample in path-major order; the squared
    deviations from the bin mean follow as s2 - n (mean - shift)^2.  np.add.at
    adds samples in path-major order, as one bincount over the whole ensemble
    would, so the result is bit-identical for every block size.
    """
    n_bins = config.n_bins
    n, _, dim = points[0].shape
    vshape = block(slice(0, 1))[1].shape[2:]   # the value shape, from one path
    m = int(np.prod(vshape))

    # (term, value component, bin); count's unit axis broadcasts over values
    count = np.zeros((len(points), 1, n_bins + 1), dtype=np.int64)
    s1 = np.zeros((len(points), m, n_bins + 1))
    s2 = np.zeros_like(s1)
    shift = np.zeros_like(s1)
    pts = np.zeros((len(points), dim, n_bins + 1))
    for rows in path_blocks(n):
        bins, vals = block(rows)
        vals = vals.reshape(-1, m)
        for j, idx in enumerate(bins):
            idx = idx.ravel()
            seen = np.bincount(idx, minlength=n_bins + 1)
            new = (seen > 0) & (count[j, 0] == 0)
            if new.any():
                # a bin's shift is its first sample in path-major order
                first = np.full(n_bins + 1, idx.size)
                np.minimum.at(first, idx, np.arange(idx.size))
                shift[j][:, new] = vals[first[new]].T
            count[j, 0] += seen
            for c in range(m):
                np.add.at(s1[j, c], idx, vals[:, c])
                dev = shift[j, c][idx]
                np.subtract(vals[:, c], dev, out=dev)
                np.add.at(s2[j, c], idx, np.square(dev, out=dev))
            for a in range(dim):
                np.add.at(pts[j, a], idx, points[j][rows, :, a].ravel())
    nz = count > 0
    mean = np.where(nz, s1 / np.maximum(count, 1), np.nan)
    cond_mean = np.where(nz, pts / np.maximum(count, 1), np.nan)
    # squares about the shift keep the spread when the mean dwarfs it; the
    # clamp holds a bin of equal samples, whose mean may sit an ulp off
    # them, at zero
    m2 = np.maximum(s2 - count * (mean - shift) ** 2, 0.0)
    var = np.where(count > 1, m2 / np.maximum(count - 1, 1), np.nan)
    se = np.sqrt(var / np.maximum(count, 1))
    count = count[:, 0, :n_bins]
    fields = []
    for j in range(len(points)):
        empty = count[j] < config.min_count
        mean_j, se_j, cond_j = (np.where(empty, np.nan, a[j, :, :n_bins]).T
                                for a in (mean, se, cond_mean))
        fields.append(BinnedField(config=config,
                                  values=mean_j.reshape(config.shape + vshape),
                                  se=se_j.reshape(config.shape + vshape),
                                  count=count[j].reshape(config.shape),
                                  cond_mean=cond_j.reshape(config.shape + (dim,))))
    return fields


def _require_populated(field: BinnedField) -> BinnedField:
    min_count = field.config.min_count
    if not np.any(field.count >= min_count):
        raise EstimationError(
            f"no bins reached min_count={min_count}; largest bin holds "
            f"{int(field.count.max()) if field.count.size else 0} samples")
    return field


class LaggedSamples:
    """One ensemble binned once under a config.

    index[p, k] is the bin of sample (p, k), the overflow bin n_bins
    outside the grid.  The increment x_p(t_k + lag dt) - x_p(t_k) has its
    forward quotient conditioned on its early end (step k) and its backward
    quotient on its late end (step k + lag).  Increments, quotients and
    causal classes are formed per block of paths when an average asks for
    them, and never for the whole ensemble.
    """

    def __init__(self, ensemble: PathEnsemble, config: EstimatorConfig):
        if ensemble.dimension != config.dimension:
            raise ParameterError(f"ensemble dimension {ensemble.dimension} does not "
                                 f"match the {config.dimension}-d bin grid")
        if ensemble.n_steps < config.lag:
            raise ParameterError(f"ensemble has {ensemble.n_steps} steps, "
                                 f"need >= lag={config.lag}")
        self.ensemble = ensemble
        self.config = config
        self.dtau = config.lag * ensemble.dt
        self.index = np.empty(ensemble.paths.shape[:2], np.min_scalar_type(config.n_bins))
        for rows in path_blocks(ensemble.n_paths):
            self.index[rows] = config.bin_index(ensemble.times, ensemble.paths[rows])

    def ends(self, direction: str) -> tuple[slice, slice]:
        """Step slices of a direction's (conditioning, displaced) ends."""
        early, late = slice(None, -self.config.lag), slice(self.config.lag, None)
        if direction == "forward":
            return early, late
        if direction == "backward":
            return late, early
        raise ParameterError(f"direction must be forward or backward, got '{direction}'")

    def increments(self, rows: slice) -> np.ndarray:
        """x(t + lag dt) - x(t) of the paths in rows, (B, K+1-lag, dim)."""
        return _increments(self.ensemble.paths[rows], self.config.lag)

    def quotients(self, rows: slice) -> np.ndarray:
        """The difference quotients of both directions for the paths in rows."""
        return self.increments(rows) / self.dtau

    def average(self, direction: str, values, split: str = "off") -> BinnedField:
        """Per-bin average of per-increment values over the bins of the
        direction's conditioning end.  values(rows) gives the (B, K+1-lag,
        ...) values of a slice of paths from :func:`path_blocks`; split keeps
        only the increments of one causal class (timelike or spacelike)."""
        return self.averages(values, [(direction, split)])[0]

    def averages(self, values, terms) -> list[BinnedField]:
        """:meth:`average` of the same values for each (direction, split)
        term, from one pass that forms each block's values once."""
        terms = [(self.ends(direction)[0], split) for direction, split in terms]
        n_bins = self.config.n_bins
        norm2_of = (_minkowski_norm2(self.ensemble)
                    if any(split != "off" for _, split in terms) else None)

        def block(rows):
            norm2 = None if norm2_of is None else norm2_of(self.increments(rows))
            bins = []
            for near, split in terms:
                idx = self.index[rows, near]
                if split != "off":
                    keep = norm2 <= 0 if split == "timelike" else norm2 >= 0
                    idx = np.where(keep, idx, n_bins)
                bins.append(idx)
            return bins, values(rows)

        return _accumulate(self.config, block,
                           [self.ensemble.paths[:, near] for near, _ in terms])

    def mean_derivative(self, direction: str) -> BinnedField:
        """The one-sided quotient average under the config's causal split;
        raises EstimationError when no bin reaches min_count."""
        return _require_populated(self.average(direction, self.quotients,
                                               self.config.causal_split))


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
    fwd_time, bwd_space, bwd_time, fwd_space = samples.averages(
        samples.quotients, [("forward", "timelike"), ("backward", "spacelike"),
                            ("backward", "timelike"), ("forward", "spacelike")])

    def combine(a: BinnedField, b: BinnedField) -> BinnedField:
        count = np.minimum(a.count, b.count)
        values = a.values + b.values
        se = np.sqrt(a.se**2 + b.se**2)
        empty = count < config.min_count
        values[empty] = np.nan
        se[empty] = np.nan
        return BinnedField(config=config, values=values, se=se,
                           count=count, cond_mean=a.cond_mean)

    forward = combine(fwd_time, bwd_space)
    backward = combine(bwd_time, fwd_space)
    if not (np.any(forward.mask) or np.any(backward.mask)):
        raise EstimationError("no bins populated in both causal classes; "
                              "the split needs a coarser time step")
    return forward, backward


def spacelike_fraction(ensemble: PathEnsemble, lag: int = 1) -> float:
    """Diagnostic: fraction of forward increments with non-negative
    Minkowski norm; tends to 1 as dt -> 0 (diffusive scaling dominates c dt).
    """
    if ensemble.n_steps < lag:
        raise ParameterError(f"ensemble has {ensemble.n_steps} steps, need >= lag={lag}")
    norm2 = _minkowski_norm2(ensemble)
    spacelike = sum(np.count_nonzero(norm2(_increments(ensemble.paths[rows], lag)) >= 0)
                    for rows in path_blocks(ensemble.n_paths))
    return spacelike / (ensemble.n_paths * (ensemble.n_steps + 1 - lag))


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
    binning of the ensemble and one pass that forms each block's quotients
    once for both directions."""
    samples = LaggedSamples(ensemble, config)
    split = config.causal_split
    forward, backward = samples.averages(samples.quotients,
                                         [("forward", split), ("backward", split)])
    return velocity_fields(_require_populated(forward), _require_populated(backward))


def quadratic_variation_matrix(ensemble: PathEnsemble, config: EstimatorConfig,
                               direction: str = "forward") -> BinnedField:
    """Per-bin mean of the increment outer product over the time step;
    values have shape config.shape + (dim, dim)."""
    samples = LaggedSamples(ensemble, config)

    def outer(rows):
        inc = samples.increments(rows)
        return inc[..., :, None] * inc[..., None, :] / samples.dtau

    return _require_populated(samples.average(direction, outer))


# --- persistence -----------------------------------------------------------

def write_field_csv(field: MeanDerivativeField, path) -> None:
    """CSV export: t,x0..,count,D+_0..,D-_0..,w1_0..,w2_0..,se_0.. plus manifest."""
    cfg = field.config
    dim = cfg.dimension
    centers = np.meshgrid(cfg.t_centers, *cfg.x_centers, indexing="ij")
    header = ["t"] + [f"x{i}" for i in range(dim)] + ["count"]
    columns = [c.reshape(-1) for c in centers] + [field.count.reshape(-1)]
    for name, arr in (("D+", field.forward), ("D-", field.backward), ("w1", field.current),
                      ("w2", field.osmotic), ("se", field.velocity_se)):
        header += [f"{name}_{i}" for i in range(dim)]
        columns += list(arr.reshape(-1, dim).T)
    write_table(path, header, columns)
    write_manifest(manifest_for(path), {
        "time_edges": cfg.time_edges.tolist(),
        "space_edges": [e.tolist() for e in cfg.space_edges],
        "min_count": cfg.min_count,
        "lag": cfg.lag,
        "causal_split": cfg.causal_split,
    })
