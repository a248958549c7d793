"""Mean-derivative estimators, velocity fields, accelerations, covariant
derivatives and the quadratic-variation law, against analytic laws."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from fractoid.errors import EstimationError, ParameterError
from fractoid.geodesic import stochastic_energy
from fractoid.geometry import get_chart
from fractoid.meanderiv import (
    EstimatorConfig,
    acceleration_decomposed,
    covariant_mean_derivative,
    estimate_backward,
    estimate_forward,
    estimate_velocity_fields,
    mean_acceleration,
    quadratic_variation_matrix,
    relativistic_mean_derivatives,
    ricci_correction,
    spacelike_fraction,
    velocity_fields,
    write_field_csv,
)
from fractoid.meanderiv import estimators
from fractoid.meanderiv.estimators import BinnedField, LaggedSamples
from fractoid.stochastic import (
    ItoProcessSpec,
    PathEnsemble,
    integrator,
    path_blocks,
    simulate_ito,
    simulate_manifold_diffusion,
)

SEED = 321


def _flat_cfg(**kw):
    defaults = dict(t_range=(0.0, 1.0), n_t=1, x_range=(-2.0, 2.0), n_x=10,
                    min_count=200)
    defaults.update(kw)
    return EstimatorConfig.regular(**defaults)


def test_constant_drift_recovery():
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, 1.5),
                          diffusion_const=0.1, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=4000, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-0.5, 2.5), 10, min_count=200)
    fwd = estimate_forward(ens, cfg)
    m = fwd.mask
    z = np.abs(fwd.values[m] - 1.5) / fwd.se[m]
    assert fwd.n_populated() >= 3
    assert np.max(z) < 3.5


def test_wiener_forward_zero_backward_x_over_t(wiener_ensemble):
    dt = wiener_ensemble.dt
    cfg = EstimatorConfig(time_edges=[0.5 - dt / 2, 0.5 + dt / 2],
                          space_edges=(np.linspace(-2.0, 2.0, 11),),
                          min_count=200)
    fwd = estimate_forward(wiener_ensemble, cfg)
    bwd = estimate_backward(wiener_ensemble, cfg)
    m = fwd.mask & bwd.mask
    zf = np.abs(fwd.values[m]) / fwd.se[m]
    assert np.max(zf) < 3.5
    xbar = bwd.cond_mean[m]
    zb = np.abs(bwd.values[m] - xbar / 0.5) / bwd.se[m]
    assert np.max(zb) < 3.5
    # spec example: bin near (t=0.5, x=0.6) has backward derivative ~ 1.2
    i = np.argmin(np.abs(cfg.x_centers[0] - 0.6))
    assert abs(bwd.values[0, i, 0] - 1.2) < 3.0 * bwd.se[0, i, 0] + 0.1


def test_ou_stationary_drifts(ou_ensemble):
    cfg = _flat_cfg()
    fwd = estimate_forward(ou_ensemble, cfg)
    bwd = estimate_backward(ou_ensemble, cfg)
    i = np.argmin(np.abs(cfg.x_centers[0] - 0.8))
    xref = fwd.cond_mean[0, i, 0]
    assert abs(fwd.values[0, i, 0] - (-xref)) < 3.0 * fwd.se[0, i, 0] + 0.01 * abs(xref)
    assert abs(bwd.values[0, i, 0] - xref) < 3.0 * bwd.se[0, i, 0] + 0.01 * abs(xref)


def test_velocity_identities_and_grid_mismatch(ou_ensemble):
    cfg = _flat_cfg()
    fwd = estimate_forward(ou_ensemble, cfg)
    bwd = estimate_backward(ou_ensemble, cfg)
    fld = velocity_fields(fwd, bwd)
    m = fld.mask
    assert np.allclose(fld.current[m], 0.5 * (fwd.values[m] + bwd.values[m]))
    assert np.allclose(fld.osmotic[m], 0.5 * (fwd.values[m] - bwd.values[m]))
    # equal inputs give exactly zero osmotic velocity
    same = velocity_fields(fwd, fwd)
    assert np.all(same.osmotic[same.mask] == 0.0)
    other = _flat_cfg(n_x=8)
    with pytest.raises(ParameterError):
        velocity_fields(fwd, estimate_backward(ou_ensemble, other))


def test_ou_velocity_fields(ou_ensemble):
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg())
    m = fld.mask
    xbar = fld.cond_mean[..., 0][m]
    zc = np.abs(fld.current[m][:, 0]) / fld.velocity_se[m][:, 0]
    zo = np.abs(fld.osmotic[m][:, 0] + xbar) / fld.velocity_se[m][:, 0]
    assert np.max(zc) < 3.5
    assert np.max(zo) < 3.5


def test_time_reversal_duality(wiener_ensemble):
    small = PathEnsemble(wiener_ensemble.times, wiener_ensemble.paths[:5000],
                         seed=wiener_ensemble.seed)
    # symmetric bin edges that avoid grid times, so t and T - t mirror exactly
    cfg = EstimatorConfig(time_edges=[0.125, 0.375, 0.625, 0.875],
                          space_edges=(np.linspace(-2.0, 2.0, 9),),
                          min_count=100)
    fwd_rev = estimate_forward(small.reversed_time(), cfg)
    bwd = estimate_backward(small, cfg)
    # forward estimate of the reversed ensemble at T - t equals minus the
    # backward estimate at t, here exactly (same samples, same bins)
    flipped = -bwd.values[::-1]
    m = fwd_rev.mask & bwd.mask[::-1]
    assert np.any(m)
    assert np.allclose(fwd_rev.values[m], flipped[m], atol=1e-10)


def test_lag_convergence_study(ou_ensemble):
    """The O(lag dt) estimator bias shrinks as the lag decreases: the OU
    forward drift at lag L carries the analytic factor (e^{-L dt}-1)/(L dt)."""
    gaps = []
    for lag in (4, 2, 1):
        cfg = _flat_cfg(lag=lag, n_x=8)
        fwd = estimate_forward(ou_ensemble, cfg)
        m = fwd.mask
        xbar = fwd.cond_mean[..., 0][m]
        gap = np.abs(fwd.values[m][:, 0] + xbar)    # |estimate - (-x)|
        gaps.append(np.median(gap / np.abs(xbar)))
    assert gaps[0] > gaps[2]                        # bias shrinks with the lag
    dt = ou_ensemble.dt
    for lag, g in zip((4, 2, 1), gaps):
        predicted = abs((np.exp(-lag * dt) - 1.0) / (lag * dt) + 1.0)
        assert abs(g - predicted) < 0.02


def test_standard_error_scaling(wiener_ensemble):
    cfg = EstimatorConfig.regular((0.0, 1.0), 2, (-1.0, 1.0), 4, min_count=100)
    full = estimate_forward(wiener_ensemble, cfg)
    half = estimate_forward(
        PathEnsemble(wiener_ensemble.times, wiener_ensemble.paths[:20000],
                     seed=0), cfg)
    m = full.mask & half.mask
    ratio = half.se[m] / full.se[m]
    assert abs(np.median(ratio) - np.sqrt(2.0)) < 0.1 * np.sqrt(2.0)


def test_standard_error_stable_under_large_offsets():
    # s2 - n mu^2 cancels catastrophically once the mean dwarfs the spread:
    # a drift of 1e6 in the second coordinate moved its se by 0.6% here
    rng = np.random.default_rng(SEED)
    times = np.arange(51) * 0.01
    walk = np.zeros((2000, 51, 2))
    walk[:, 1:] = np.cumsum(rng.normal(0.0, 0.01, (2000, 50, 2)), axis=1)
    cfg = EstimatorConfig.regular((0.0, 0.5), 5, [(-0.2, 0.2), (-1.0, 1e6)], [4, 1],
                                  dim=2, min_count=20)
    base = estimate_forward(PathEnsemble(times, walk, seed=0), cfg)
    walk[..., 1] += 1e6 * times
    shifted = estimate_forward(PathEnsemble(times, walk, seed=0), cfg)
    m = base.mask
    assert np.array_equal(shifted.count, base.count) and m.sum() >= 10
    assert np.allclose(shifted.se[m], base.se[m], rtol=1e-6, atol=0.0)


def _walk_ensemble(n_paths):
    rng = np.random.default_rng(SEED)
    walk = np.zeros((n_paths, 21, 1))
    walk[:, 1:] = np.cumsum(rng.normal(0.0, 0.1, (n_paths, 20, 1)), axis=1)
    return PathEnsemble(np.arange(21) * 0.01, walk, seed=0)


def test_standard_error_of_equal_samples_is_zero():
    # n copies of 0.1 can sum to a mean an ulp away from 0.1, which would
    # turn the shifted sum of squares negative and the se NaN unclamped
    cfg = EstimatorConfig.regular((0.0, 0.2), 4, (-0.6, 0.6), 6, min_count=2)
    samples = LaggedSamples(_walk_ensemble(300), cfg)
    out = samples.average("forward",
                          lambda rows, paths: np.full_like(samples.increments(paths), 0.1))
    m = out.mask
    assert m.sum() >= 10 and np.any(out.values[m] != 0.1)
    assert np.all(np.isfinite(out.se[m])) and np.all(out.se[m] >= 0.0)


def _bin_index_reference(config, times, paths):
    """bin_index as one whole-array formula: int64 searches, the overflow
    bin by np.where, one cast at the end."""
    it = np.searchsorted(config.time_edges, times, side="right") - 1
    ok = (it >= 0) & (it < config.n_time_bins)
    idx = it.astype(np.int64)
    for a, edges in enumerate(config.space_edges):
        n = len(edges) - 1
        ia = np.searchsorted(edges, paths[..., a], side="right") - 1
        ok = ok & (ia >= 0) & (ia < n)
        idx = idx * n + np.maximum(ia, 0)
    return np.where(ok, idx, config.n_bins).astype(np.min_scalar_type(config.n_bins))


@pytest.mark.parametrize("n_paths", [3, 2000], ids=["one chunk", "two chunks"])
@pytest.mark.parametrize("n_t, n_x", [(1, (255,)), (1, (256,)), (5, (3, 17)), (4, (8, 8)),
                                      (1, (5, 3, 17)), (4, (4, 4, 4))],
                         ids=["1d-255", "1d-256", "2d-255", "2d-256", "3d-255", "3d-256"])
def test_bin_index_matches_the_int64_formula(n_t, n_x, n_paths):
    # 255 bins fit uint8 with the overflow bin, 256 need uint16; 41 steps of
    # 2000 paths span more than one row chunk, the last one partial
    assert 3 * 41 < integrator.CHUNK_VALUES < 2000 * 41
    dim = len(n_x)
    cfg = EstimatorConfig.regular((0.0, 1.0), n_t, (-1.0, 1.0), list(n_x), dim=dim)
    rng = np.random.default_rng(SEED)
    # times on every time edge and outside the time grid
    times = np.concatenate([[-0.5, 1.5], cfg.time_edges])
    times = np.concatenate([times, rng.uniform(-0.2, 1.2, 41 - len(times))])
    paths = rng.uniform(-1.3, 1.3, (n_paths, 41, dim))
    samples = paths.reshape(-1, dim)
    for a, edges in enumerate(cfg.space_edges):
        # samples on every edge of the axis, NaN and +-inf, where they fit
        special = np.concatenate([edges, [np.nan, np.inf, -np.inf]])
        where = rng.permutation(len(samples))[:len(special)]
        samples[where, a] = special[:len(where)]
    ref = _bin_index_reference(cfg, times, paths)
    assert ref.dtype == (np.uint8 if cfg.n_bins == 255 else np.uint16)
    got = cfg.bin_index(times, paths)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _bin_sums_reference(config, bins, values, points):
    """The BinnedField of one term from whole-ensemble sums: bins (N, M)
    holding the overflow bin n_bins for samples the term drops, values
    (N, M, ...), conditioning points (N, M, dim).  One np.add.at per sum,
    from zero, over the path-major raveled samples; each bin's shift is its
    first sample; mean, se and cond_mean as _accumulate documents them."""
    n_bins, dim = config.n_bins, points.shape[-1]
    idx = bins.astype(np.int64).ravel()
    v = values.reshape(idx.size, -1)
    count = np.zeros(n_bins + 1, np.int64)
    np.add.at(count, idx, 1)
    seen, first = np.unique(idx, return_index=True)
    shift = np.zeros((v.shape[1], n_bins + 1))
    shift[:, seen] = v[first].T
    s1, s2 = np.zeros_like(shift), np.zeros_like(shift)
    pts = np.zeros((dim, n_bins + 1))
    for c in range(v.shape[1]):
        np.add.at(s1[c], idx, v[:, c])
        np.add.at(s2[c], idx, (v[:, c] - shift[c, idx]) ** 2)
    for a in range(dim):
        np.add.at(pts[a], idx, points[..., a].ravel())
    n = np.maximum(count, 1)
    mean = np.where(count > 0, s1 / n, np.nan)
    cond_mean = np.where(count > 0, pts / n, np.nan)
    m2 = np.maximum(s2 - count * (mean - shift) ** 2, 0.0)
    se = np.sqrt(np.where(count > 1, m2 / np.maximum(count - 1, 1), np.nan) / n)
    empty = count[:n_bins] < config.min_count
    mean, se, cond_mean = (np.where(empty, np.nan, a[:, :n_bins]).T
                           for a in (mean, se, cond_mean))
    return BinnedField(config=config, values=mean.reshape(config.shape + values.shape[2:]),
                       se=se.reshape(config.shape + values.shape[2:]),
                       count=count[:n_bins].reshape(config.shape),
                       cond_mean=cond_mean.reshape(config.shape + (dim,)))


def _reference_terms(ens, config, values, terms):
    """_bin_sums_reference of values for each (direction, split) term."""
    lag = config.lag
    index = _bin_index_reference(config, ens.times, ens.paths)
    inc = ens.paths[:, lag:] - ens.paths[:, :-lag]
    fields = []
    for direction, split in terms:
        near = slice(None, -lag) if direction == "forward" else slice(lag, None)
        bins = index[:, near]
        if split != "off":
            norm2 = np.sum(inc * inc * np.diag(get_chart(ens.chart_name).signature_matrix()),
                           axis=-1)
            keep = norm2 <= 0 if split == "timelike" else norm2 >= 0
            bins = np.where(keep, bins, config.n_bins)
        fields.append(_bin_sums_reference(config, bins, values, ens.paths[:, near]))
    return fields


def _reference_cases():
    """Small seeded cases: (id, ensemble, config, what) with what one of
    velocity, qv, average (values, or a constant or 1e8-offset kind) and
    relativistic."""
    cases = []

    def case(i, what, dim, lag, offset=0.0, split="off", chart=None):
        rng = np.random.default_rng([SEED, i])
        n, k, dt = int(rng.integers(20, 41)), int(rng.integers(8, 17)), 0.1
        steps = rng.normal(0.0, np.sqrt(dt), (n, k, dim))
        if chart:
            # slower in space than in time: both causal classes are common
            steps[..., 1:] *= 0.5
        start = rng.uniform(-1.0, 1.0, (n, 1, dim)) + offset
        paths = np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)
        ens = PathEnsemble(np.arange(k + 1) * dt, paths, seed=i,
                           chart_name=chart or f"euclidean:{dim}")
        # t = 0 and the last steps lie outside the time grid, the tails of
        # the walk outside the space grid
        cfg = EstimatorConfig.regular((0.05, (k - 1.5) * dt), int(rng.integers(2, 4)),
                                      (offset - 1.2, offset + 1.2), 2 if dim > 3 else 6 - dim,
                                      dim=dim, lag=lag, causal_split=split,
                                      min_count=int(rng.integers(2, 5)))
        cases.append((f"{i}-{what}-{dim}d-lag{lag}-{split}", ens, cfg, what))

    i = 0
    for dim in (1, 2, 3):
        for lag in (1, 2, 3):
            for what in ("velocity", "qv", "average"):
                case(i, what, dim, lag)
                i += 1
        case(i, "average-equal", dim, 1)
        case(i + 1, "average-1e8", dim, 2, offset=1e8)
        case(i + 2, "velocity", dim, 1, offset=1e8)
        i += 3
    for lag in (1, 2):
        for what, split in (("velocity", "timelike"), ("velocity", "spacelike"),
                            ("relativistic", "off"), ("average", "timelike")):
            case(i, what, 4, lag, split=split, chart="minkowski:1+3")
            i += 1
    return cases


REFERENCE_CASES = _reference_cases()


def _same_bits(pairs):
    for name, got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


def _same_field(got, ref):
    _same_bits((name, getattr(got, name), getattr(ref, name))
               for name in ("values", "se", "count", "cond_mean"))


@pytest.mark.parametrize("blocks", ["default", "7-path blocks"])
@pytest.mark.parametrize("case", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_estimator_sums_match_the_whole_ensemble_reference(case, blocks, monkeypatch):
    # the module promises path-major sums, so the block walk, its chunks and
    # the pool must give the reference's bits, not merely close values
    _, ens, cfg, what = case
    if blocks != "default":
        # 7-path blocks, each summed in chunks of a few paths
        monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
        monkeypatch.setattr(integrator, "CHUNK_VALUES", 32)
    lag = cfg.lag
    quotients = (ens.paths[:, lag:] - ens.paths[:, :-lag]) / (lag * ens.dt)
    split = cfg.causal_split
    if what == "velocity":
        got = estimate_velocity_fields(ens, cfg)
        fwd, bwd = _reference_terms(ens, cfg, quotients, [("forward", split),
                                                          ("backward", split)])
        _same_bits([("forward", got.forward, fwd.values), ("forward_se", got.forward_se, fwd.se),
                    ("backward", got.backward, bwd.values),
                    ("backward_se", got.backward_se, bwd.se),
                    ("count", got.count, np.minimum(fwd.count, bwd.count)),
                    ("cond_mean", got.cond_mean, fwd.cond_mean)])
    elif what == "qv":
        inc = ens.paths[:, lag:] - ens.paths[:, :-lag]
        outer = inc[..., :, None] * inc[..., None, :] / (lag * ens.dt)
        _same_field(quadratic_variation_matrix(ens, cfg, "backward"),
                    *_reference_terms(ens, cfg, outer, [("backward", "off")]))
    elif what == "relativistic":
        got = relativistic_mean_derivatives(ens, cfg)
        terms = _reference_terms(ens, cfg, quotients, [
            ("forward", "timelike"), ("backward", "spacelike"),
            ("backward", "timelike"), ("forward", "spacelike")])
        for g, (a, b) in zip(got, (terms[:2], terms[2:])):
            count = np.minimum(a.count, b.count)
            empty = (count < cfg.min_count)[..., None]
            _same_field(g, BinnedField(cfg, np.where(empty, np.nan, a.values + b.values),
                                       np.where(empty, np.nan, np.sqrt(a.se**2 + b.se**2)),
                                       count, a.cond_mean))
    else:
        rng = np.random.default_rng([SEED, len(ens.times)])
        user = {"average": 0.0, "average-1e8": 1e8}
        vals = (np.full(quotients.shape[:2] + (2,), 0.1) if what == "average-equal"
                else user[what] + rng.normal(0.0, 1.0, quotients.shape[:2] + (2,)))
        _same_field(LaggedSamples(ens, cfg).average("forward", lambda rows, paths: vals[rows],
                                                    split),
                    *_reference_terms(ens, cfg, vals, [("forward", split)]))


def test_estimator_reference_cases_reach_sparse_bins():
    # samples outside the grid in every case; across the cases, bins holding
    # 0 samples, 1 sample and min_count - 1 > 1 samples
    seen = set()
    for _, ens, cfg, _ in REFERENCE_CASES:
        index = _bin_index_reference(cfg, ens.times, ens.paths)
        per_bin = np.bincount(index.ravel(), minlength=cfg.n_bins + 1)
        assert per_bin[-1] > 0
        per_bin = per_bin[:-1]
        seen |= {"0"} if np.any(per_bin == 0) else set()
        seen |= {"1"} if np.any(per_bin == 1) else set()
        if cfg.min_count > 2 and np.any(per_bin == cfg.min_count - 1):
            seen.add("min_count - 1")
    assert seen == {"0", "1", "min_count - 1"}


def test_average_forms_each_block_of_values_once(monkeypatch):
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-0.6, 0.6), 4, min_count=2)
    ens = _walk_ensemble(30)
    samples = LaggedSamples(ens, cfg)
    asked = []

    def values(rows, paths):
        # the walk hands each block its own paths' bits
        assert np.array_equal(paths, ens.paths[rows])
        asked.append((rows.start, rows.stop))
        return samples.quotients(paths)

    samples.average("forward", values)
    blocks = [(rows.start, rows.stop) for rows in path_blocks(30)]
    assert len(blocks) == 5 and asked == blocks


def test_values_error_shuts_the_block_pool_down(monkeypatch):
    # the third block's values fail on the calling thread while the pool
    # bins the blocks after it
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-0.6, 0.6), 4, min_count=2)
    samples = LaggedSamples(_walk_ensemble(30), cfg)
    threads = threading.active_count()

    def values(rows, paths):
        if rows.start == 14:
            raise ParameterError("block 3")
        return samples.quotients(paths)

    with pytest.raises(ParameterError, match="^block 3$"):
        samples.average("forward", values)
    assert threading.active_count() == threads


def test_covariant_warning_names_the_evaluation_points(ou_ensemble):
    # a half-line chart drops the populated bins whose conditional means,
    # where the analytic form is evaluated, lie at x <= 0
    half = dataclasses.replace(get_chart("euclidean:1"), name="half-line",
                               valid=lambda x: x[..., 0] > 0)
    with pytest.warns(UserWarning, match="evaluation points, the conditional means, "
                                         "are outside the valid region") as caught:
        out = covariant_mean_derivative(half, ou_ensemble, lambda t, x: x, _flat_cfg(n_x=8))
    used = out.monte_carlo.mask & out.drift.mask
    outside = used & (out.monte_carlo.cond_mean[..., 0] <= 0)
    assert str(caught[0].message).startswith(f"{int(outside.sum())} bins dropped")
    assert np.array_equal(np.isfinite(out.analytic[..., 0]), used & ~outside)


@pytest.fixture(scope="module")
def large_ensembles():
    """(ensemble, config) pairs big enough that an ensemble-sized temporary
    shows in a traced peak: OU, N = 2e4, K = 300, and sphere2, N = 2e4, K = 200."""
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0, dimension=1)
    x0 = np.random.default_rng(SEED).normal(0.0, np.sqrt(0.5), (20_000, 1))
    ou = simulate_ito(spec, x0, T=3.0, dt=0.01, N=20_000, seed=SEED)
    sphere = simulate_manifold_diffusion(get_chart("sphere2"), None, [1.35, 0.0],
                                         T=0.2, dt=0.001, N=20_000, seed=SEED)
    assert (ou.n_steps, sphere.n_steps) == (300, 200)
    return {"ou": (ou, EstimatorConfig.regular((0.0, 3.0), 1, (-2.0, 2.0), 8,
                                                min_count=500)),
            "sphere2": (sphere, EstimatorConfig.regular(
                (0.0, 0.2), 2, [(1.2, 1.5), (-0.3, 0.3)], [3, 3], dim=2,
                min_count=500))}


def _sphere_field(t, x):
    return np.stack([np.ones_like(x[..., 0]), 0.5 * x[..., 0]], axis=-1)


PEAK_CASES = {
    "velocity_fields": ("ou", estimate_velocity_fields),
    "covariant": ("ou", lambda ens, cfg: covariant_mean_derivative(
        get_chart("euclidean:1"), ens, lambda t, x: np.sin(x) + t, cfg)),
    "covariant_sphere2": ("sphere2", lambda ens, cfg: covariant_mean_derivative(
        get_chart("sphere2"), ens, _sphere_field, cfg)),
    "stochastic_energy": ("ou", lambda ens, cfg: stochastic_energy(
        ens, get_chart("euclidean:1"), cfg)),
}


@pytest.mark.parametrize("case", sorted(PEAK_CASES))
def test_estimator_peak_memory_within_twice_the_ensemble(case, large_ensembles):
    # the estimator and its consumers walk the paths in blocks and bin each
    # block as they reach it, so they hold no ensemble-sized array
    name, run = PEAK_CASES[case]
    ens, cfg = large_ensembles[name]
    tracemalloc.start()
    try:
        run(ens, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ens.paths.nbytes


def test_value_chunk_estimate_peak_memory_below_8_mib():
    # sphere-io's estimate: one block of sphere2 paths, N = 1000, K = 1000,
    # 15.3 MiB of paths.  The quotients are formed and summed one row chunk
    # of at most CHUNK_VALUES samples at a time, so the peak is the block's
    # 1.9 MiB bin index and chunk-sized temporaries, not a block of
    # quotients (another 15.3 MiB)
    ens = simulate_manifold_diffusion(get_chart("sphere2"), None, [np.pi / 2, 0.0],
                                      T=5.0, dt=0.005, N=1000, seed=SEED)
    assert ens.n_paths <= integrator.BLOCK_PATHS and ens.n_steps == 1000
    cfg = EstimatorConfig.regular((0.0, 5.0), 4, (-2.0, 2.0), 16, dim=2, min_count=200)
    tracemalloc.start()
    try:
        estimate_velocity_fields(ens, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


VALUE_ROUTES = {
    "average": lambda ens, cfg, X: LaggedSamples(ens, cfg).average(
        "forward", lambda rows, paths: paths[:, cfg.lag:] - paths[:, :-cfg.lag]),
    "qv": lambda ens, cfg, X: quadratic_variation_matrix(ens, cfg, "backward"),
    "covariant": lambda ens, cfg, X: covariant_mean_derivative(
        get_chart("euclidean:1"), ens, X, cfg, "backward"),
}


@pytest.mark.parametrize("n_paths, sizes", [(4000, None), (30, (7, 64)), (30, (7, 1))],
                         ids=["default", "7-path blocks, 3-path chunks",
                              "7-path blocks, 1-path chunks"])
@pytest.mark.parametrize("route", sorted(VALUE_ROUTES))
def test_value_chunk_calls_tile_the_paths(route, n_paths, sizes, monkeypatch):
    # every value function, and covariant's X inside one, sees one row chunk
    # of whole paths at a time, and each walk's chunks tile the paths in order
    if sizes is not None:
        monkeypatch.setattr(integrator, "BLOCK_PATHS", sizes[0])
        monkeypatch.setattr(integrator, "CHUNK_VALUES", sizes[1])
    ens = _walk_ensemble(n_paths)
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-0.6, 0.6), 4, min_count=2, lag=2)
    per = max(1, integrator.CHUNK_VALUES // (ens.n_steps + 1 - cfg.lag))
    walks, field_sizes, in_values = [], [], []
    averages = LaggedSamples.averages

    def spied(self, values, terms):
        calls = []
        walks.append(calls)

        def recorded(rows, paths):
            assert np.array_equal(paths, ens.paths[rows])
            calls.append(rows)
            in_values.append(True)
            try:
                return values(rows, paths)
            finally:
                in_values.pop()

        return averages(self, recorded, terms)

    def X(t, x):
        if in_values:                  # the Monte Carlo route, not the analytic one
            field_sizes.append(len(x))
        return np.sin(x) + t

    monkeypatch.setattr(LaggedSamples, "averages", spied)
    VALUE_ROUTES[route](ens, cfg, X)
    assert walks
    for calls in walks:
        assert all(rows.stop - rows.start <= per for rows in calls)
        assert [rows.start for rows in calls] == [0] + [rows.stop for rows in calls[:-1]]
        assert calls[-1].stop == n_paths
    if n_paths > per:
        assert len(walks[0]) > 1
    if route == "covariant":
        # X at both ends of every increment of every path, one chunk a call
        assert max(field_sizes) <= per
        assert sum(field_sizes) == 2 * n_paths * (ens.n_steps + 1 - cfg.lag)


def test_no_populated_bins_raises(wiener_ensemble):
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (5.0, 6.0), 4, min_count=200)
    with pytest.raises(EstimationError):
        estimate_forward(wiener_ensemble, cfg)


def test_causal_split_requires_lorentzian(wiener_ensemble):
    cfg = _flat_cfg(causal_split="timelike")
    with pytest.raises(ParameterError):
        estimate_forward(wiener_ensemble, cfg)


def test_relativistic_two_term_sums():
    from fractoid.meanderiv import relativistic_mean_derivatives
    chart = get_chart("minkowski:1+3")
    # coarse steps so both causal classes are populated
    ens = simulate_manifold_diffusion(chart, None, np.zeros(4), T=8.0, dt=0.5,
                                      N=3000, seed=SEED + 2)
    cfg = EstimatorConfig(time_edges=[0.0, 8.0],
                          space_edges=(np.linspace(0.0, 8.0, 2),
                                       *[np.linspace(-8.0, 8.0, 2)] * 3),
                          min_count=200)
    fwd, bwd = relativistic_mean_derivatives(ens, cfg)
    m = fwd.mask & bwd.mask
    assert np.any(m)
    # the deterministic time flow splits between the two causal terms;
    # the summed time component must stay near the full forward rate of 1
    combined_t = fwd.values[m][:, 0]
    assert np.all(np.isfinite(combined_t))


def test_causal_split_and_spacelike_fraction():
    chart = get_chart("minkowski:1+3")
    ens = simulate_manifold_diffusion(chart, None, np.zeros(4), T=0.2, dt=0.002,
                                      N=2000, seed=SEED)
    frac = spacelike_fraction(ens)
    assert frac > 0.95          # diffusive scaling dominates c dt as dt -> 0
    coarse = simulate_manifold_diffusion(chart, None, np.zeros(4), T=0.2,
                                         dt=0.05, N=2000, seed=SEED + 1)
    assert spacelike_fraction(coarse) <= frac + 1e-9
    cfg = EstimatorConfig.regular((0.0, 0.2), 1, (-1.5, 1.5), 2, dim=4,
                                  min_count=200, causal_split="spacelike")
    fwd = estimate_forward(ens, cfg)
    assert fwd.n_populated() >= 1


def test_quadratic_variation_identity_3d():
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=3)
    ens = simulate_ito(spec, np.zeros(3), T=0.05, dt=1e-3, N=30_000, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 0.05), 1, (-0.5, 0.5), 2, dim=3,
                                  min_count=1000)
    qv = quadratic_variation_matrix(ens, cfg)
    m = qv.mask
    vals = qv.values[m]
    ses = qv.se[m]
    idx = np.arange(3)
    assert np.max(np.abs(vals[:, idx, idx] - 1.0)) < 0.02
    off = ~np.eye(3, dtype=bool)
    assert np.max(np.abs(vals[:, off]) / ses[:, off]) < 3.5


def test_quadratic_variation_deterministic_zero():
    # eps = 0: the outer product carries only the O(dt) drift-squared term
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    dt = 0.01
    ens = simulate_ito(spec, 0.0, T=1.0, dt=dt, N=300, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-0.2, 1.2), 2, min_count=200)
    qv = quadratic_variation_matrix(ens, cfg)
    assert np.nanmax(np.abs(qv.values)) <= 1.01 * dt


def test_quadratic_variation_forward_backward_agree(wiener_ensemble):
    # the two limits coincide; at finite lag the backward version carries a
    # known O(dtau) conditioning bias, bounded per bin and subtracted here
    dt = wiener_ensemble.dt
    t_star = 0.5
    cfg = EstimatorConfig(time_edges=[t_star - dt / 2, t_star + dt / 2],
                          space_edges=(np.linspace(-1.2, 1.2, 4),),
                          min_count=500)
    f = quadratic_variation_matrix(wiener_ensemble, cfg, direction="forward")
    b = quadratic_variation_matrix(wiener_ensemble, cfg, direction="backward")
    m = f.mask & b.mask
    xbar = f.cond_mean[..., 0]
    bias = dt * (xbar**2 / t_star**2 + 1.0 / t_star)
    gap = np.abs(f.values[..., 0, 0] - b.values[..., 0, 0])
    se = np.sqrt(f.se[..., 0, 0] ** 2 + b.se[..., 0, 0] ** 2)
    z = (gap - bias) / se
    assert np.max(z[m]) < 3.5


# --- acceleration ------------------------------------------------------------

def test_mean_acceleration_ou(ou_ensemble):
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg(n_x=8, min_count=500))
    acc = mean_acceleration(fld, epsilon=1.0)
    m = acc.mask
    xs = fld.cond_mean[..., 0][m]
    keep = np.abs(xs) >= 0.2
    rel = np.abs(acc.values[m][:, 0][keep] + xs[keep]) / np.abs(xs[keep])
    assert np.median(rel) <= 0.10


def test_mean_acceleration_deterministic_motion():
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, 0.7),
                          diffusion_const=0.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=300, seed=SEED)
    # perturb starts so bins spread (deterministic fan of parallel lines)
    starts = np.linspace(-1.0, 1.0, 300)[:, None]
    ens2 = PathEnsemble(ens.times, ens.paths + starts[:, None, :], seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-1.5, 2.2), 8, min_count=50)
    fld = estimate_velocity_fields(ens2, cfg)
    acc = mean_acceleration(fld, epsilon=0.0)
    assert np.nanmax(np.abs(acc.values)) < 0.05


def test_mean_acceleration_wiener_law():
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=100_000, seed=21)
    cfg = EstimatorConfig(time_edges=np.linspace(0.1875, 0.8125, 6),
                          space_edges=(np.linspace(-1.8, 1.8, 7),),
                          min_count=500)
    fld = estimate_velocity_fields(ens, cfg)
    acc = mean_acceleration(fld, epsilon=1.0)
    tb = 2
    t_mid = cfg.t_centers[tb]
    xs = fld.cond_mean[tb, :, 0]
    target = -xs / (2.0 * t_mid**2)
    rel = np.abs(acc.values[tb, :, 0] - target) / np.abs(target)
    keep = acc.mask[tb] & (np.abs(xs) >= 0.5)
    assert np.all(rel[keep] <= 0.15)


def test_acceleration_decomposed_agrees_flat(ou_ensemble):
    chart = get_chart("euclidean:1")
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg(n_x=8, min_count=500))
    a1 = mean_acceleration(fld, epsilon=1.0)
    a2 = acceleration_decomposed(fld, chart, epsilon=1.0)
    m = a1.mask & a2.mask
    assert np.allclose(a1.values[m], a2.values[m], atol=1e-10)


def test_acceleration_decomposed_linear_field_exact():
    # fabricate w2 linear, w1 = 0: a = -w2 dw2/dx at interior bins
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 8, min_count=2)
    from fractoid.meanderiv.estimators import MeanDerivativeField
    xc = cfg.x_centers[0][None, :, None]
    shape = cfg.shape + (1,)
    w2 = np.broadcast_to(-0.5 * xc, shape).copy()
    zeros = np.zeros(shape)
    fld = MeanDerivativeField(cfg, zeros, zeros, zeros, zeros, zeros.copy(),
                              w2, zeros, np.full(cfg.shape, 10))
    a1 = mean_acceleration(fld, epsilon=0.0)
    a2 = acceleration_decomposed(fld, get_chart("euclidean:1"), epsilon=0.0)
    m = a1.mask
    expect = -w2[m][:, 0] * (-0.5)
    assert np.allclose(a1.values[m][:, 0], expect, atol=1e-12)
    assert np.allclose(a2.values[m][:, 0], expect, atol=1e-12)


def test_mean_acceleration_on_nonuniform_space_edges():
    # the conditional-mean stencil takes any bin widths: w2 = -x/2, w1 = 0
    # gives a = -w2 dw2/dx = -x/4 at every interior bin
    from fractoid.meanderiv.estimators import MeanDerivativeField
    cfg = EstimatorConfig([0.0, 1.0], ([-2.0, -1.2, -0.5, 0.0, 0.4, 1.1, 2.0],),
                          min_count=2)
    xc = cfg.x_centers[0][None, :, None]
    shape = cfg.shape + (1,)
    w2 = np.broadcast_to(-0.5 * xc, shape).copy()
    zeros = np.zeros(shape)
    fld = MeanDerivativeField(cfg, zeros, zeros, zeros, zeros, zeros.copy(),
                              w2, zeros, np.full(cfg.shape, 10))
    with pytest.warns(UserWarning, match="excluded"):      # the two end bins
        acc = mean_acceleration(fld, epsilon=1.0)
    assert acc.mask[0].tolist() == [False, True, True, True, True, False]
    assert np.allclose(acc.values[acc.mask][:, 0], -0.25 * xc[0, 1:-1, 0],
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("time_edges,space_edges,match", [
    ([0.0, np.nan, 1.0], [-1.0, 0.0, 1.0], "non-finite time edges"),
    ([0.0, 1.0], [-1.0, np.nan, 1.0], "non-finite space edges of axis 0"),
    ([np.nan, 1.0], [-1.0, 1.0], "non-finite time edges"),
], ids=["nan-time-edge", "nan-space-edge", "nan-first-time-edge"])
def test_estimator_config_rejects_non_finite_edges(time_edges, space_edges, match):
    with pytest.raises(ParameterError, match=match):
        EstimatorConfig(time_edges, (space_edges,))


@pytest.mark.parametrize("key, value", [("lag", 1.5), ("min_count", float("nan")),
                                        ("lag", True), ("min_count", "200")],
                         ids=["lag-float", "min_count-nan", "lag-bool", "min_count-str"])
def test_estimator_config_requires_integer_counts(key, value):
    # lag=1.5 ended in a slice TypeError and min_count=nan in a false "no
    # bins reached min_count=nan" at estimate time
    with pytest.raises(ParameterError, match=f"^{key} must be an integer, got "):
        EstimatorConfig.regular((0.0, 1.0), 1, (-1.0, 1.0), 4, **{key: value})


def test_estimator_config_takes_numpy_integer_counts():
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-1.0, 1.0), 4,
                                  min_count=np.int64(20), lag=np.uint8(2))
    assert (cfg.min_count, cfg.lag) == (20, 2)
    assert type(cfg.min_count) is int and type(cfg.lag) is int


def test_acceleration_decomposed_outside_chart_fully_masked():
    # every bin center lies below the sphere's pole margin: no bin may take
    # the flat formula and report a value
    from fractoid.meanderiv.estimators import MeanDerivativeField
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, [(0.0, 0.04), (0.0, 1.0)], [6, 5],
                                  dim=2, min_count=2)
    xc = cfg.x_centers[0][None, :, None, None]
    shape = cfg.shape + (2,)
    w2 = np.broadcast_to(-0.5 * xc, shape).copy()
    zeros = np.zeros(shape)
    fld = MeanDerivativeField(cfg, zeros, zeros, zeros, zeros, zeros.copy(),
                              w2, zeros, np.full(cfg.shape, 10))
    with pytest.warns(UserWarning, match="excluded"):
        acc = acceleration_decomposed(fld, get_chart("sphere2"), epsilon=1.0)
    assert not np.any(acc.mask)
    assert np.all(np.isnan(acc.values))


def test_isolated_bins_excluded_with_warning(ou_ensemble):
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg(n_x=8, min_count=500))
    with pytest.warns(UserWarning, match="excluded"):
        acc = mean_acceleration(fld, epsilon=1.0)
    # boundary bins lack neighbors and must come back as NaN, never zero
    assert np.all(np.isnan(acc.values[~acc.mask]))


def test_zero_fields_zero_acceleration():
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 6, min_count=2)
    from fractoid.meanderiv.estimators import MeanDerivativeField
    z = np.zeros(cfg.shape + (1,))
    fld = MeanDerivativeField(cfg, z, z, z, z, z.copy(), z.copy(), z,
                              np.full(cfg.shape, 10))
    acc = mean_acceleration(fld, epsilon=1.0)
    assert np.nanmax(np.abs(acc.values)) == 0.0


# --- ricci correction --------------------------------------------------------

def test_ricci_correction_flat_zero(ou_ensemble):
    chart = get_chart("euclidean:1")
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg())
    out = ricci_correction(chart, fld, hbar_over_m=1.0)
    assert np.nanmax(np.abs(out)) < 1e-12


def test_ricci_correction_sphere_halves_osmotic():
    from fractoid.meanderiv.estimators import MeanDerivativeField
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, [(0.6, 2.4), (0.5, 5.5)], 3,
                                  dim=2, min_count=2)
    ones = np.ones(cfg.shape + (2,))
    fld = MeanDerivativeField(cfg, ones, ones, 0 * ones, 0 * ones, ones.copy(),
                              ones.copy(), 0 * ones, np.full(cfg.shape, 10))
    out = ricci_correction(get_chart("sphere2"), fld, hbar_over_m=1.0)
    m = np.isfinite(out[..., 0])
    assert np.allclose(out[m], 0.5, atol=1e-6)
    # zero osmotic field gives zero correction
    fld.osmotic[:] = 0.0
    out2 = ricci_correction(get_chart("sphere2"), fld, hbar_over_m=1.0)
    assert np.nanmax(np.abs(out2)) == 0.0


# --- covariant mean derivative -------------------------------------------------

def test_covariant_constant_field_driftless(wiener_ensemble):
    # constant field, flat chart: every transported quotient is exactly zero
    chart = get_chart("euclidean:1")
    cfg = _flat_cfg()
    X = lambda t, x: np.ones_like(x)
    out = covariant_mean_derivative(chart, wiener_ensemble, X, cfg)
    m = out.monte_carlo.mask
    assert np.max(np.abs(out.monte_carlo.values[m])) == 0.0


def test_covariant_ito_correction_x_squared(wiener_ensemble):
    chart = get_chart("euclidean:1")
    cfg = EstimatorConfig.regular((0.35, 0.65), 1, (-2.0, 2.0), 16, min_count=200)
    out = covariant_mean_derivative(chart, wiener_ensemble,
                                    lambda t, x: x**2, cfg)
    m = out.monte_carlo.mask
    z = np.abs(out.monte_carlo.values[m] - 1.0) / out.monte_carlo.se[m]
    assert np.max(z) < 3.5


def test_covariant_analytic_cross_check_ou(ou_ensemble):
    chart = get_chart("euclidean:1")
    cfg = _flat_cfg(n_x=8)
    out = covariant_mean_derivative(chart, ou_ensemble, lambda t, x: x, cfg)
    m = out.monte_carlo.mask & np.isfinite(out.analytic[..., 0])
    se_an = out.drift.se[m]
    se = np.sqrt(out.monte_carlo.se[m] ** 2 + se_an**2)
    z = np.abs(out.monte_carlo.values[m] - out.analytic[m]) / se
    assert np.max(z) < 3.5


def test_covariant_reduces_to_forward_on_flat(wiener_ensemble):
    chart = get_chart("euclidean:1")
    cfg = _flat_cfg()
    ident = covariant_mean_derivative(chart, wiener_ensemble,
                                      lambda t, x: x, cfg)
    fwd = estimate_forward(wiener_ensemble, cfg)
    m = ident.monte_carlo.mask & fwd.mask
    # X = coordinate field: transported quotient == forward quotient of x + drift of X...
    # On a flat chart D+ X with X=x equals the forward derivative exactly,
    # sample by sample, so the binned estimates coincide.
    assert np.allclose(ident.monte_carlo.values[m], fwd.values[m], atol=1e-12)


def test_covariant_backward_direction(ou_ensemble):
    chart = get_chart("euclidean:1")
    cfg = _flat_cfg(n_x=8)
    out = covariant_mean_derivative(chart, ou_ensemble, lambda t, x: x, cfg,
                                    direction="backward")
    m = out.monte_carlo.mask & np.isfinite(out.analytic[..., 0])
    se = np.sqrt(out.monte_carlo.se[m] ** 2 + out.drift.se[m] ** 2)
    z = np.abs(out.monte_carlo.values[m] - out.analytic[m]) / se
    assert np.max(z) < 3.5


def test_covariant_sphere_transport_matches_rough_laplacian():
    # D+ of the theta coordinate field on sphere Brownian motion is
    # (1/2) Lap_rough e_theta = -(cot^2 theta / 2) e_theta; bins are kept
    # narrow so the within-bin curvature of the target stays below noise
    chart = get_chart("sphere2")
    ens = simulate_manifold_diffusion(chart, None, [1.35, 0.0], T=0.2, dt=0.002,
                                      N=3000, seed=SEED + 7)
    cfg = EstimatorConfig.regular((0.0, 0.2), 1, [(1.29, 1.41), (-0.8, 0.8)],
                                  [2, 1], dim=2, min_count=300)
    X = lambda t, x: np.stack([np.ones_like(x[..., 0]),
                               np.zeros_like(x[..., 0])], axis=-1)
    out = covariant_mean_derivative(chart, ens, X, cfg)
    assert out.monte_carlo.n_populated() >= 1
    m = out.monte_carlo.mask & np.isfinite(out.analytic[..., 0])
    theta = out.monte_carlo.cond_mean[..., 0][m]
    hand = -0.5 / np.tan(theta) ** 2
    assert np.allclose(out.analytic[m][:, 0], hand, atol=2e-3)
    z = np.abs(out.monte_carlo.values[m] - out.analytic[m]) \
        / np.sqrt(out.monte_carlo.se[m] ** 2 + 1e-12)
    assert np.max(z) < 4.0


# --- persistence ---------------------------------------------------------------

def test_field_csv_export(tmp_path, ou_ensemble):
    fld = estimate_velocity_fields(ou_ensemble, _flat_cfg())
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "x0", "count", "D+_0", "D-_0", "w1_0", "w2_0", "se_0"]
    assert (tmp_path / "field.manifest.json").exists()
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[0] == 10
