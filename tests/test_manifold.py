"""Manifold diffusions, stochastic parallel transport, the frame bundle
construction, and the generator identity."""

import numpy as np
import pytest
from scipy import stats

from fractoid.errors import ParameterError, SimulationError
from fractoid.geometry import get_chart, laplace_beltrami
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    frame_bundle_simulate,
    generator_apply,
    gram_schmidt,
    make_stream,
    orthonormal_frame,
    parallel_transport,
    simulate_ito,
    simulate_manifold_diffusion,
)

SEED = 555


def test_flat_chart_reduces_to_ito():
    chart = get_chart("euclidean:2")
    mani = simulate_manifold_diffusion(chart, None, np.zeros(2), T=1.0, dt=0.01,
                                       N=10_000, seed=SEED)
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=2)
    ito = simulate_ito(spec, np.zeros(2), T=1.0, dt=0.01, N=10_000, seed=SEED + 1)
    for a in range(2):
        ks = stats.ks_2samp(mani.paths[:, -1, a], ito.paths[:, -1, a])
        assert ks.pvalue > 0.01


def test_sphere_brownian_uniform_stationary_law():
    chart = get_chart("sphere2")
    ens = simulate_manifold_diffusion(chart, None, [1.0, 0.0], T=20.0, dt=0.005,
                                      N=10_000, seed=SEED)
    cos_end = np.cos(ens.paths[:, -1, 0])
    ks = stats.kstest(cos_end, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.statistic <= 0.02


def test_generator_against_laplace_beltrami():
    chart = get_chart("sphere2")
    x0 = np.array([1.0, 0.4])
    delta = 1e-3
    N = 60_000
    ens = simulate_manifold_diffusion(chart, None, x0, T=delta, dt=delta,
                                      N=N, seed=SEED + 2)
    f = lambda p: np.cos(p[..., 0])
    vals = (f(ens.paths[:, -1, :]) - f(x0)) / delta
    mc = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(N)
    target = 0.5 * laplace_beltrami(chart, f, x0)
    # 3 standard errors plus the O(delta) weak bias allowance
    assert abs(mc - target) < 3.0 * se + 2.0 * delta


def test_generator_apply_examples():
    e1 = get_chart("euclidean:1")
    assert abs(generator_apply(e1, None, lambda p: p[..., 0] ** 2, [0.3]) - 1.0) < 1e-6
    w = lambda p: np.array([2.0])
    assert abs(generator_apply(e1, w, lambda p: p[..., 0], [0.3]) - 2.0) < 1e-6
    sph = get_chart("sphere2")
    val = generator_apply(sph, None, lambda p: np.cos(p[..., 0]), [1.0, 0.0])
    assert abs(val - (-np.cos(1.0))) < 1e-6


def test_boundary_rejection_keeps_paths_inside():
    chart = get_chart("sphere2")
    ens = simulate_manifold_diffusion(chart, None, [0.12, 0.0], T=0.5, dt=0.002,
                                      N=500, seed=SEED + 3)
    assert np.all(chart.is_valid(ens.paths.reshape(-1, 2)))


def test_parallel_transport_euclidean_constant():
    chart = get_chart("euclidean:3")
    path = np.cumsum(np.ones((50, 3)) * 0.1, axis=0)
    out = parallel_transport(chart, path, [1.0, -2.0, 0.5])
    assert np.allclose(out, out[0], atol=1e-14)


def test_parallel_transport_holonomy_sphere():
    chart = get_chart("sphere2")
    theta0 = np.pi / 3
    K = 10_000
    loop = np.stack([np.full(K + 1, theta0),
                     np.linspace(0.0, 2.0 * np.pi, K + 1)], axis=-1)
    out = parallel_transport(chart, loop, [1.0, 0.0])
    g = chart.metric_at(loop[-1])
    v0, v1 = np.array([1.0, 0.0]), out[-1]
    cosang = v0 @ g @ v1 / np.sqrt((v0 @ g @ v0) * (v1 @ g @ v1))
    angle = np.arccos(np.clip(cosang, -1.0, 1.0))
    assert abs(angle - 2.0 * np.pi * (1.0 - np.cos(theta0))) < 1e-3


@pytest.mark.parametrize("name,start,clip_axis", [
    ("euclidean:2", [0.0, 0.0], None),
    ("polar2", [1.0, 0.0], (0, 0.3)),
    ("sphere2", [1.2, 0.0], (0, 0.4)),
    ("hyperbolic2", [1.0, 0.0], (0, 0.2)),
    ("minkowski:1+3", [0.0, 0.0, 0.0, 0.0], None),
])
def test_parallel_transport_norm_conservation(name, start, clip_axis):
    chart = get_chart(name)
    n = chart.dimension
    rng = make_stream(SEED, 9)
    steps = rng.normal(0.0, 0.01, (400, n))
    path = np.vstack([start, start + np.cumsum(steps, axis=0)])
    if clip_axis is not None:
        axis, lo = clip_axis
        path[:, axis] = np.clip(path[:, axis], lo, None)
    v0 = np.full(n, 0.5)
    out = parallel_transport(chart, path, v0)
    norms = np.einsum("si,sij,sj->s", out, chart.metric(path), out)
    assert np.max(np.abs(norms - norms[0])) / max(abs(norms[0]), 1e-12) < 1e-4


def test_frame_bundle_euclidean():
    chart = get_chart("euclidean:2")
    fs = FrameState(np.zeros(2), np.eye(2))
    fb = frame_bundle_simulate(chart, np.zeros(2), fs, T=1.0, dt=0.01, N=2000,
                               seed=SEED)
    assert np.max(np.abs(fb.frames - np.eye(2))) == 0.0
    var = fb.base_paths[:, -1, :].var(axis=0)
    assert np.all(np.abs(var - 1.0) < 3.0 * np.sqrt(2.0 / 2000) + 0.05)


def test_frame_bundle_matches_chart_diffusion_on_sphere():
    chart = get_chart("sphere2")
    x0 = np.array([1.0, 0.0])
    fs = FrameState(x0, orthonormal_frame(chart, x0))
    fb = frame_bundle_simulate(chart, x0, fs, T=2.0, dt=0.002, N=2000, seed=SEED)
    ens = simulate_manifold_diffusion(chart, None, x0, T=2.0, dt=0.002, N=2000,
                                      seed=SEED + 5)
    ks = stats.ks_2samp(np.cos(fb.base_paths[:, -1, 0]),
                        np.cos(ens.paths[:, -1, 0]))
    assert ks.pvalue > 0.01


def test_frame_bundle_orthonormality_defect():
    chart = get_chart("sphere2")
    x0 = np.array([1.2, 0.5])
    fs = FrameState(x0, orthonormal_frame(chart, x0))
    fb = frame_bundle_simulate(chart, x0, fs, T=0.5, dt=0.001, N=200, seed=SEED)
    assert fb.max_orthonormality_defect(chart) <= 1e-6


def test_frame_bundle_rejects_bad_frame():
    chart = get_chart("sphere2")
    with pytest.raises(ParameterError):
        frame_bundle_simulate(chart, [1.0, 0.0],
                              FrameState(np.array([1.0, 0.0]), np.eye(2) * 2.0),
                              T=0.1, dt=0.01, N=2, seed=SEED)


def test_frame_bundle_rejects_nan_frame():
    # a NaN defect compares false against any tolerance; it must still fail
    chart = get_chart("sphere2")
    x0 = np.array([1.0, 0.0])
    with pytest.raises(ParameterError, match="frame0"):
        frame_bundle_simulate(chart, x0, FrameState(x0, np.full((2, 2), np.nan)),
                              T=0.1, dt=0.01, N=2, seed=SEED)


def test_bad_start_or_drift_shape_raise_library_errors():
    chart = get_chart("sphere2")
    x0 = np.array([1.0, 0.0])
    fs = FrameState(x0, orthonormal_frame(chart, x0))
    for start in ([1.0, 0.0, 0.0], np.ones((2, 2))):
        with pytest.raises(ParameterError, match="x0"):
            frame_bundle_simulate(chart, start, fs, T=0.1, dt=0.01, N=3, seed=SEED)
    for width in (1, 3):
        with pytest.raises(SimulationError, match="drift returned shape"):
            simulate_manifold_diffusion(chart, lambda t, x: np.zeros((len(x), width)),
                                        x0, T=0.1, dt=0.01, N=3, seed=SEED)


def test_gram_schmidt_restores_orthonormality():
    chart = get_chart("sphere2")
    x = np.array([[1.0, 0.3], [0.8, 2.0]])
    frames = orthonormal_frame(chart, x) + 1e-3
    fixed = gram_schmidt(chart, x, frames)
    g = chart.metric(x)
    gram = np.einsum("bji,bjk,bkl->bil", fixed, g, fixed)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_transported_norm_on_minkowski():
    chart = get_chart("minkowski:1+3")
    frame = orthonormal_frame(chart, np.zeros(4))
    eta = chart.signature_matrix()
    assert np.allclose(frame.T @ chart.metric_at(np.zeros(4)) @ frame, eta)
