"""RNG contracts, Ito/Stratonovich integration, semimartingale split,
fractal diagnostics, and ensemble persistence."""

import numpy as np
import pytest

from fractoid.errors import ParameterError, SimulationError
from fractoid.geometry import MetricChart, get_chart
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    PathEnsemble,
    decompose_semimartingale,
    fractal_scaling,
    frame_bundle_simulate,
    simulate_ito,
    simulate_manifold_diffusion,
    simulate_stratonovich,
    wiener_increments,
)

SEED = 977


def test_wiener_increments_deterministic():
    a = wiener_increments(500, 0.01, 2, seed=42, stream=7)
    b = wiener_increments(500, 0.01, 2, seed=42, stream=7)
    assert np.array_equal(a, b)
    c = wiener_increments(500, 0.01, 2, seed=42, stream=8)
    assert not np.array_equal(a, c)


def test_wiener_increments_moments():
    inc = wiener_increments(1_000_000, 0.01, 1, seed=3, stream=0)
    assert abs(inc.mean()) < 3.0 * np.sqrt(0.01 / 1e6)
    assert abs(inc.var() / 0.01 - 1.0) < 0.01


def test_wiener_increments_rejects_bad_dt():
    with pytest.raises(ParameterError):
        wiener_increments(10, 0.0, 1, seed=1)
    with pytest.raises(ParameterError):
        wiener_increments(10, -0.1, 1, seed=1)


def test_ito_deterministic_drift():
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=3, seed=SEED)
    assert np.allclose(ens.paths[:, -1, 0], 1.0, atol=1e-9)


def test_ito_wiener_variance_and_quadratic_variation(wiener_ensemble):
    end = wiener_ensemble.paths[:, -1, 0]
    n = wiener_ensemble.n_paths
    se = np.sqrt(2.0 / n)  # relative se of the variance
    assert abs(end.var() - 1.0) < 3.0 * se
    qv = np.sum(np.diff(wiener_ensemble.paths, axis=1) ** 2, axis=(1, 2))
    assert abs(qv.mean() - 1.0) < 0.01


def test_ito_quadratic_variation_tight():
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=0.7, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=1e-4, N=64, seed=SEED)
    qv = np.mean(np.sum(np.diff(ens.paths, axis=1) ** 2, axis=(1, 2)))
    assert abs(qv / (0.7**2 * 1.0) - 1.0) < 0.01


def test_ito_nonfinite_drift_names_path_and_step():
    def drift(fill):
        return lambda t, x: np.where(t > 0.05, np.full_like(x, fill), np.zeros_like(x))

    spec = ItoProcessSpec(drift=drift(np.inf), diffusion_const=0.0, dimension=1)
    zero_field = lambda t, x: np.zeros(x.shape + (1,))
    sphere = get_chart("sphere2")
    x0 = np.array([1.5, 0.0])

    def nan_derivative(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[x[..., 0] > 0.05] = np.nan
        return out

    nan_connection = MetricChart("nan-connection", 2, (0, 2), diag=np.ones_like,
                                 diag_derivative=nan_derivative)
    runs = {
        "ito": lambda: simulate_ito(spec, 0.0, T=0.2, dt=0.01, N=2, seed=SEED),
        "stratonovich": lambda: simulate_stratonovich(
            drift(np.nan), zero_field, 0.0, T=0.2, dt=0.01, N=2, seed=SEED),
        # a NaN position is outside the sphere's valid region, but the
        # failure is the non-finite state, not the boundary
        "sphere": lambda: simulate_manifold_diffusion(
            sphere, drift(np.nan), x0, T=0.2, dt=0.01, N=2, seed=SEED),
        "euclidean": lambda: simulate_manifold_diffusion(
            get_chart("euclidean:2"), drift(np.nan), np.zeros(2), T=0.2, dt=0.01,
            N=2, seed=SEED),
        # the connection turns NaN once the path crosses x0 = 0.05; the
        # transport must fail as a SimulationError before the SVD sees it
        "frame bundle": lambda: frame_bundle_simulate(
            nan_connection, np.zeros(2), FrameState(np.zeros(2), np.eye(2)), T=0.5,
            dt=0.01, N=1, seed=SEED),
    }
    for name, run in runs.items():
        with pytest.raises(SimulationError, match="path 0 at step") as info:
            run()
        assert type(info.value) is SimulationError, name


def test_stratonovich_zero_diffusion_matches_ito():
    # noise-free limit: both solve the same ODE; the gap is the Euler
    # integrator's O(dt) global error
    drift = lambda t, x: np.cos(x)
    G = lambda t, x: np.zeros(x.shape + (1,))
    dt = 0.001
    strat = simulate_stratonovich(drift, G, 0.2, T=1.0, dt=dt, N=1, seed=SEED)
    spec = ItoProcessSpec(drift=drift, diffusion_const=0.0, dimension=1)
    ito = simulate_ito(spec, 0.2, T=1.0, dt=dt, N=1, seed=SEED)
    assert np.max(np.abs(strat.paths - ito.paths)) < 10.0 * dt


def test_stratonovich_geometric_brownian():
    # dX = X o dW from 1 has the pathwise solution X = exp(W)
    G = lambda t, x: x[:, :, None]
    f0 = lambda t, x: np.zeros_like(x)
    ens = simulate_stratonovich(f0, G, 1.0, T=1.0, dt=0.002, N=4000, seed=SEED)
    log_end = np.log(ens.paths[:, -1, 0])
    assert abs(log_end.mean()) < 3.0 * log_end.std() / np.sqrt(4000)


def test_ito_vs_stratonovich_multiplicative_means():
    # Ito dX = X dW keeps E X_T = 1; Stratonovich gives e^{T/2}.
    G = lambda t, x: x[:, :, None]
    ito_drift = lambda t, x: -0.5 * x    # Ito equation written in Stratonovich form
    zero = lambda t, x: np.zeros_like(x)
    ito = simulate_stratonovich(ito_drift, G, 1.0, T=1.0, dt=0.002, N=6000, seed=SEED)
    strat = simulate_stratonovich(zero, G, 1.0, T=1.0, dt=0.002, N=6000, seed=SEED + 1)
    m_i, s_i = ito.paths[:, -1, 0].mean(), ito.paths[:, -1, 0].std() / np.sqrt(6000)
    m_s, s_s = strat.paths[:, -1, 0].mean(), strat.paths[:, -1, 0].std() / np.sqrt(6000)
    assert abs(m_i - 1.0) < 3.0 * s_i
    assert abs(m_s - np.exp(0.5)) < 3.0 * s_s


def test_stratonovich_chain_rule():
    # Y = exp(X) with dX = o dW solves dY = Y o dW; compare the two routes.
    one = lambda t, x: np.ones(x.shape + (1,))
    zero = lambda t, x: np.zeros_like(x)
    Gy = lambda t, x: x[:, :, None]
    xs = simulate_stratonovich(zero, one, 0.0, T=1.0, dt=0.002, N=5000, seed=SEED + 2)
    ys = simulate_stratonovich(zero, Gy, 1.0, T=1.0, dt=0.002, N=5000, seed=SEED + 3)
    mapped = np.exp(xs.paths[:, -1, 0])
    direct = ys.paths[:, -1, 0]
    se = np.sqrt(mapped.var() / 5000 + direct.var() / 5000)
    assert abs(mapped.mean() - direct.mean()) < 3.0 * se


def test_semimartingale_pure_drift():
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    path = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=1, seed=SEED).paths[0]
    dec = decompose_semimartingale(path, window=10)
    assert np.max(np.abs(dec.martingale_part)) <= 1e-10
    assert dec.residual == 0.0


def test_semimartingale_brownian_drift_free(wiener_ensemble):
    path = wiener_ensemble.paths[0]
    dec = decompose_semimartingale(path, window=20)
    slope = (dec.bounded_variation_part[-1] - dec.bounded_variation_part[0]) / 1.0
    # the bv part of a driftless path carries no systematic slope
    assert np.all(np.abs(slope) < 3.0)
    assert dec.residual == 0.0


def test_semimartingale_window_validation():
    path = np.zeros((10, 1))
    with pytest.raises(ParameterError):
        decompose_semimartingale(path, window=1)
    with pytest.raises(ParameterError):
        decompose_semimartingale(path, window=50)


def test_fractal_straight_line():
    K = 1024
    ts = np.arange(K + 1) / K
    ens = PathEnsemble(ts, np.tile(ts[None, :, None], (3, 1, 1)), seed=0)
    rep = fractal_scaling(ens, scales=[1, 2, 4, 8, 16])
    assert abs(rep.fitted_dimension - 1.0) <= 0.01
    assert np.all(np.diff(rep.lengths) <= 1e-12)


def test_fractal_wiener_dimension_and_diffusion():
    K = 4096
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=1.0 / K, N=200, seed=SEED)
    rep = fractal_scaling(ens, scales=[1, 2, 4, 8, 16, 32])
    assert abs(rep.fitted_dimension - 2.0) <= 0.1
    assert np.all(np.diff(rep.lengths) < 0)
    # RMS fluctuation amplitude recovers eps at the base resolution
    assert abs(rep.fluctuation_amplitudes[0] - 1.0) < 0.05
    spec2 = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                           diffusion_const=0.8, dimension=1)
    ens2 = simulate_ito(spec2, 0.0, T=1.0, dt=1.0 / 16, N=20_000, seed=SEED + 4)
    rep2 = fractal_scaling(ens2, scales=[1, 2, 4, 8])
    assert abs(rep2.diffusion_coefficient - 0.8**2 / 2.0) < 0.05 * 0.8**2 / 2.0


def test_fractal_requires_scales():
    ens = PathEnsemble(np.arange(65) / 64.0, np.zeros((2, 65, 1)), seed=0)
    with pytest.raises(ParameterError):
        fractal_scaling(ens, scales=[1, 2, 4])


def test_ensemble_grid_validation():
    with pytest.raises(ParameterError):
        PathEnsemble(np.array([0.0, 0.1, 0.25]), np.zeros((1, 3, 1)), seed=0)
    with pytest.raises(ParameterError):
        PathEnsemble(np.array([0.0, 0.1, 0.2]),
                     np.array([[[0.0], [np.nan], [0.2]]]), seed=0)


def test_ensemble_csv_roundtrip(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=2)
    ens = simulate_ito(spec, np.zeros(2), T=0.1, dt=0.01, N=5, seed=SEED)
    ens.meta["drift_name"] = "ou"
    path = tmp_path / "ens.csv"
    ens.write_csv(path)
    back = PathEnsemble.read_csv(path)
    assert np.array_equal(back.paths, ens.paths)
    assert np.array_equal(back.times, ens.times)
    assert back.seed == ens.seed
    assert back.chart_name == ens.chart_name
    assert back.meta["drift_name"] == "ou"


@pytest.mark.parametrize("edit", ["delete", "duplicate"])
def test_ensemble_csv_rejects_missing_or_duplicate_rows(tmp_path, edit):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=1)
    path = tmp_path / "ens.csv"
    simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=3, seed=SEED).write_csv(path)
    lines = path.read_text().splitlines()
    row = lines[8]                      # path 1, step 1
    lines[8:9] = [] if edit == "delete" else [row, row]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=r"path 1, step 1"):
        PathEnsemble.read_csv(path)


def test_ensemble_npz_roundtrip(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=4, seed=SEED)
    path = tmp_path / "ens.npz"
    ens.write_npz(path)
    back = PathEnsemble.read_npz(path)
    assert np.array_equal(back.paths, ens.paths)
    assert back.seed == ens.seed


def test_ensemble_csv_deterministic_bytes(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    simulate_ito(spec, 0.0, T=0.1, dt=0.01, N=8, seed=SEED).write_csv(p1)
    simulate_ito(spec, 0.0, T=0.1, dt=0.01, N=8, seed=SEED).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
