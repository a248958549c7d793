"""Mean-derivative estimators, velocity fields, accelerations, covariant
derivatives and the quadratic-variation law, against analytic laws."""

import dataclasses
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
    ricci_correction,
    spacelike_fraction,
    velocity_fields,
    write_field_csv,
)
from fractoid.meanderiv.estimators import LaggedSamples
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
    out = samples.average("forward", lambda rows: np.full_like(samples.increments(rows), 0.1))
    m = out.mask
    assert m.sum() >= 10 and np.any(out.values[m] != 0.1)
    assert np.all(np.isfinite(out.se[m])) and np.all(out.se[m] >= 0.0)


def test_average_forms_each_block_of_values_once(monkeypatch):
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-0.6, 0.6), 4, min_count=2)
    samples = LaggedSamples(_walk_ensemble(30), cfg)
    asked = []

    def values(rows):
        asked.append((rows.start, rows.stop))
        return samples.quotients(rows)

    samples.average("forward", values)
    blocks = [(rows.start, rows.stop) for rows in path_blocks(30)]
    assert len(blocks) == 5 and set(blocks) <= set(asked)
    assert len(asked) == len(set(asked))


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
    # the estimator and its consumers walk the paths in blocks, so besides
    # the one-byte bin index they hold no ensemble-sized array
    name, run = PEAK_CASES[case]
    ens, cfg = large_ensembles[name]
    tracemalloc.start()
    try:
        run(ens, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ens.paths.nbytes


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
