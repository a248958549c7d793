"""Manifold diffusions, stochastic parallel transport, the frame bundle
construction, and the generator identity."""

import numpy as np
import pytest
from scipy import stats

from fractoid.errors import InstabilityError, ParameterError, SimulationError
from fractoid.geometry import (
    chart_from_json,
    christoffel_batch,
    get_chart,
    laplace_beltrami,
)
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
    transport_matrices,
    transport_steps,
)
from fractoid.stochastic.manifold import transport_matrix_isometric

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


def test_generator_apply_calls_z_nine_times_on_sphere2():
    # one value, two second differences and two central differences; the
    # Laplacian's gradient serves the drift term too
    calls = []

    def z(p):
        calls.append(p)
        return np.cos(p[..., 0])

    generator_apply(get_chart("sphere2"), lambda p: np.array([0.5, 0.2]), z, [1.0, 0.3])
    assert len(calls) == 9


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
    g = chart.metric(loop[-1])
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


def test_frame_bundle_checks_frame_at_its_start():
    # orthonormal at the equator, not at x0: a bad input, not an instability
    chart = get_chart("sphere2")
    equator = np.array([np.pi / 2, 0.0])
    fs = FrameState(equator, orthonormal_frame(chart, equator))
    with pytest.raises(ParameterError, match="frame0 is not g-orthonormal at x0"):
        frame_bundle_simulate(chart, [0.5, 0.0], fs, T=0.1, dt=0.01, N=2, seed=SEED)


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


def test_start_rejects_metric_against_signature():
    # a Lorentzian label on a Euclidean metric would make x0 coordinate time
    chart = chart_from_json({"name": "mislabelled", "dimension": 2, "signature": [1, 1],
                             "diagonal_entries": ["1", "1"]})
    with pytest.raises(ParameterError, match="mislabelled"):
        simulate_manifold_diffusion(chart, None, [0.0, 0.0], T=0.1, dt=0.01, N=3,
                                    seed=SEED)
    x0 = np.zeros(2)
    with pytest.raises(ParameterError, match="mislabelled"):
        frame_bundle_simulate(chart, x0, FrameState(x0, np.eye(2)), T=0.1, dt=0.01,
                              N=3, seed=SEED)


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
    assert np.allclose(frame.T @ chart.metric(np.zeros(4)) @ frame, eta)


# --- the transport kernel against the solve-then-SVD composition -------------

# a curved 3-d chart: no closed-form polar factor, so Newton iterations
CURVED3 = {"name": "curved3", "dimension": 3, "signature": [0, 3],
           "diagonal_entries": ["1", "x0^2 + 0.5", "(x0^2 + 0.5) * (cos(x1)^2 + 0.5)"]}


def _oracle_steps(chart, x_from, x_to):
    """The midpoint map as a batched LAPACK solve, (I + A/2)^{-1} (I - A/2)."""
    gammas = christoffel_batch(chart, 0.5 * (x_from + x_to))
    A = np.einsum("...kij,...j->...ki", gammas, x_to - x_from)
    eye = np.eye(chart.dimension)
    return np.linalg.solve(eye + 0.5 * A, eye - 0.5 * A)


def _oracle_isometric(chart, x_from, x_to):
    """The gauge-conjugated midpoint map projected by svd -> u @ vt."""
    s_from = 1.0 / np.sqrt(np.abs(chart.diag(x_from)))
    s_to = 1.0 / np.sqrt(np.abs(chart.diag(x_to)))
    M = (1.0 / s_to)[..., :, None] * (_oracle_steps(chart, x_from, x_to)
                                      * s_from[..., None, :])
    u, _, vt = np.linalg.svd(M)
    return (s_to[..., :, None] * (u @ vt)) * (1.0 / s_from)[..., None, :]


def _segments(lo, hi, n=4000, seed=SEED):
    rng = make_stream(seed, 11)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x_from = lo + (hi - lo) * rng.random((n, len(lo)))
    return x_from, x_from + 0.05 * rng.normal(size=x_from.shape)


SEGMENT_BOXES = {
    "sphere2": ([0.3, -3.0], [2.8, 3.0]),
    "hyperbolic2": ([0.3, -3.0], [2.0, 3.0]),
    "polar2": ([0.3, -3.0], [4.0, 3.0]),
}


@pytest.mark.parametrize("name", sorted(SEGMENT_BOXES))
def test_isometric_transport_matches_svd_oracle(name):
    chart = get_chart(name)
    x_from, x_to = _segments(*SEGMENT_BOXES[name])
    assert np.max(np.abs(transport_matrices(chart, x_from, x_to)
                         - _oracle_steps(chart, x_from, x_to))) <= 1e-13
    assert np.max(np.abs(transport_matrix_isometric(chart, x_from, x_to)
                         - _oracle_isometric(chart, x_from, x_to))) <= 1e-13


def test_isometric_transport_newton_branch_3d():
    chart = chart_from_json(CURVED3)
    x_from, x_to = _segments([0.2, -1.0, -1.0], [1.7, 1.0, 1.0])
    P = transport_matrix_isometric(chart, x_from, x_to)
    assert np.max(np.abs(P - _oracle_isometric(chart, x_from, x_to))) <= 1e-12
    pulled = np.einsum("bki,bk,bkj->bij", P, chart.diag(x_to), P)
    assert np.max(np.abs(pulled - chart.metric(x_from))) <= 1e-12


def test_isometric_transport_rejects_orientation_reversal():
    # from theta = 0.05 to 2.0 on hyperbolic2 the midpoint map flips the
    # phi direction (det < 0): the nearest orthogonal matrix is a reflection
    chart = get_chart("hyperbolic2")
    x_from = np.array([[1.0, 0.0], [0.05, 0.0]])
    x_to = np.array([[1.01, 0.01], [2.0, 0.0]])
    assert np.linalg.det(transport_matrices(chart, x_from, x_to))[1] < 0.0
    with pytest.raises(InstabilityError, match="reduce dt"):
        transport_matrix_isometric(chart, x_from, x_to)
    # the well-posed segment alone still transports
    transport_matrix_isometric(chart, x_from[:1], x_to[:1])


def test_isometric_transport_rejects_unconverged_newton_3d():
    # one long step of an exponentially warped chart gives a gauge matrix
    # with det > 0 but condition number ~1e5, too far from orthogonal for
    # the capped Newton iteration
    chart = chart_from_json({"name": "warped3", "dimension": 3, "signature": [0, 3],
                             "diagonal_entries": ["1", "exp(4*x0)", "exp(8*x0)"]})
    with pytest.raises(InstabilityError, match="did not converge.*reduce dt"):
        transport_matrix_isometric(chart, np.zeros((1, 3)), np.array([[3.0, 0.0, 0.0]]))


@pytest.mark.parametrize("spec", ["sphere2", CURVED3])
def test_transport_routines_apply_the_kernel(spec):
    chart = get_chart(spec) if isinstance(spec, str) else chart_from_json(spec)
    n = chart.dimension
    lo = [0.3, -1.0, -1.0][:n]
    x_from, x_to = _segments(lo, [1.7, 1.0, 1.0][:n], n=500)
    vectors = make_stream(SEED, 12).normal(size=x_from.shape)
    steps = transport_matrices(chart, x_from, x_to)
    assert np.allclose(transport_steps(chart, x_from, x_to, vectors),
                       (steps @ vectors[..., None])[..., 0], rtol=0.0, atol=1e-15)

    path = np.vstack([x_from[:1], x_from[:1] + np.cumsum(0.01 * vectors[:200], axis=0)])
    v0 = np.full(n, 0.5)
    out = parallel_transport(chart, path, v0)
    v = v0
    for s, step in enumerate(transport_matrices(chart, path[:-1], path[1:]), 1):
        v = step @ v
        assert np.array_equal(out[s], v)
