"""Wavefunction-driven diffusions, the Schrodinger operator family, and the
Newton-Nelson closure checks."""

import json
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from fractoid.cli.suites import schrodinger_expm_oracle
from fractoid.errors import ConfigError, ParameterError, ResolutionError
from fractoid.geometry import get_chart
from fractoid.meanderiv import EstimatorConfig, estimate_velocity_fields
from fractoid.nelson import (
    PotentialField,
    WaveFunctionGrid,
    discrete_laplacian,
    drift_from_wavefunction,
    feynman_kac_semigroup,
    free_propagator,
    grid_schrodinger_apply,
    make_wavefunction,
    newton_nelson_residual,
    quadratic_variation_law,
)
from fractoid.stochastic import (
    ItoProcessSpec,
    PathEnsemble,
    integrator,
    make_stream,
    simulate_ito,
    simulate_manifold_diffusion,
)

SEED = 808
AXES = (np.linspace(-6.0, 6.0, 801),)


def test_wavefunction_registry_and_validation():
    psi = make_wavefunction("ho-ground(1.0)", AXES)
    assert psi.l2_norm() > 0
    with pytest.raises(ConfigError):
        make_wavefunction("ho-ground", AXES)
    with pytest.raises(ConfigError):
        make_wavefunction("mystery(1)", AXES)
    with pytest.raises(ParameterError):
        WaveFunctionGrid(AXES, np.zeros(801, dtype=complex))


def test_drift_from_ho_ground():
    spec = drift_from_wavefunction(make_wavefunction("ho-ground(1.0)", AXES))
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.max(np.abs(spec.current(0.0, xs))) < 1e-10
    assert np.max(np.abs(spec.osmotic(0.0, xs) + xs)) < 1e-3
    assert abs(spec.epsilon - 1.0) < 1e-12


def test_drift_from_plane_wave():
    spec = drift_from_wavefunction(make_wavefunction("plane-wave(2.0)", AXES))
    xs = np.array([[0.3], [-0.7]])
    assert np.allclose(spec.current(0.0, xs), 2.0, atol=1e-3)
    assert np.max(np.abs(spec.osmotic(0.0, xs))) < 1e-10


def test_drift_from_constant_real():
    psi = WaveFunctionGrid(AXES, np.full(801, 2.0, dtype=complex))
    spec = drift_from_wavefunction(psi)
    xs = np.array([[0.1]])
    assert np.max(np.abs(spec.current(0.0, xs))) < 1e-12
    assert np.max(np.abs(spec.osmotic(0.0, xs))) < 1e-12


def test_epsilon_consistency_enforced():
    from fractoid.nelson.wavefunctions import NelsonProcessSpec
    with pytest.raises(ParameterError):
        NelsonProcessSpec(current=lambda t, x: x, osmotic=lambda t, x: x,
                          epsilon=1.1, hbar=1.0, mass=1.0)


def test_nelson_pipeline_closure():
    """psi -> (v, u) -> simulate b+ = v+u -> estimated fields match (v, u)."""
    psi = make_wavefunction("ho-ground(1.0)", AXES)
    nspec = drift_from_wavefunction(psi)
    x0 = make_stream(SEED, 1 << 32).normal(0.0, np.sqrt(0.5), (30_000, 1))
    spec = ItoProcessSpec(drift=nspec.forward_drift,
                          diffusion_const=nspec.epsilon, dimension=1)
    ens = simulate_ito(spec, x0, T=1.0, dt=0.01, N=30_000, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 10, min_count=500)
    fld = estimate_velocity_fields(ens, cfg)
    m = fld.mask
    xbar = fld.cond_mean[..., 0][m]
    z_v = np.abs(fld.current[m][:, 0]) / fld.velocity_se[m][:, 0]
    z_u = np.abs(fld.osmotic[m][:, 0] + xbar) / fld.velocity_se[m][:, 0]
    assert np.max(z_v) < 3.5
    # the osmotic term carries the O(dtau) lag bias of the estimator
    assert np.max(z_u - 0.01 * np.abs(xbar) / fld.velocity_se[m][:, 0]) < 3.5


def test_continuity_equation_stationary():
    """Stationary harmonic ensemble: d rho/dt and div(rho w1) both ~ 0."""
    x0 = make_stream(SEED, 1 << 33).normal(0.0, np.sqrt(0.5), (30_000, 1))
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, x0, T=1.0, dt=0.01, N=30_000, seed=SEED + 1)
    cfg = EstimatorConfig.regular((0.0, 1.0), 2, (-2.0, 2.0), 10, min_count=300)
    fld = estimate_velocity_fields(ens, cfg)
    counts = fld.count.astype(float)
    rho = counts / counts.sum(axis=1, keepdims=True)
    # time variation of the histogram between the two halves
    d_rho = np.abs(rho[1] - rho[0])
    assert np.max(d_rho) < 0.01
    flux = rho[:, :, None] * np.nan_to_num(fld.current)
    div = np.abs(np.diff(flux[..., 0], axis=1)).max()
    assert div < 0.005


def test_grid_schrodinger_eigenfunction():
    n = 256
    L = 2.0 * np.pi
    ax = (np.arange(n) * (L / n),)
    k = 2.0 * np.pi * 3.0 / L
    psi = WaveFunctionGrid(ax, np.sin(k * ax[0]).astype(complex))
    out = grid_schrodinger_apply(psi, None)
    h = psi.spacings[0]
    expected = (1.0 - np.cos(k * h)) / h**2
    ratio = out.values[10] / psi.values[10]
    assert abs(ratio.real - expected) < 1e-10
    assert abs(expected - k**2 / 2.0) < k**4 * h**2 / 12.0 * 1.1


def test_grid_schrodinger_constant_potential_and_linearity():
    n = 64
    ax = (np.arange(n) * 0.1,)
    const = WaveFunctionGrid(ax, np.full(n, 1.5, dtype=complex))
    V = PotentialField(lambda x: np.full(x.shape[:-1], 2.5), "const")
    out = grid_schrodinger_apply(const, V)
    assert np.allclose(out.values, 2.5 * const.values)
    rng = make_stream(SEED, 2)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    pa = WaveFunctionGrid(ax, a)
    pb = WaveFunctionGrid(ax, b)
    pab = WaveFunctionGrid(ax, 2.0 * a + 3.0j * b)
    lhs = grid_schrodinger_apply(pab, V).values
    rhs = 2.0 * grid_schrodinger_apply(pa, V).values \
        + 3.0j * grid_schrodinger_apply(pb, V).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_grid_schrodinger_hermitian():
    n = 128
    ax = (np.arange(n) * 0.05,)
    V = PotentialField(lambda x: np.cos(x[..., 0]), "cosine")
    rng = make_stream(SEED, 3)
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    gp = WaveFunctionGrid(ax, phi)
    gs = WaveFunctionGrid(ax, psi)
    lhs = np.vdot(phi, grid_schrodinger_apply(gs, V).values)
    rhs = np.vdot(grid_schrodinger_apply(gp, V).values, psi)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_discrete_laplacian_examples():
    delta = np.zeros(9)
    delta[4] = 1.0
    out = discrete_laplacian(delta, boundary="zero")
    assert out[4] == 2.0 and out[3] == -1.0 and out[5] == -1.0
    const = np.full((6, 6), 3.7)
    assert np.max(np.abs(discrete_laplacian(const))) == 0.0
    n = 32
    k = 2.0 * np.pi * 5 / n
    ring = np.exp(1j * k * np.arange(n))
    out = discrete_laplacian(ring)
    assert np.allclose(out / ring, 2.0 * (1.0 - np.cos(k)), atol=1e-12)


def test_free_propagator_identity_and_gaussian():
    ax = (np.linspace(-12.0, 12.0, 1537),)
    psi0 = WaveFunctionGrid(ax, np.exp(-ax[0] ** 2 / 2.0).astype(complex))
    same = free_propagator(psi0, 1e-6)
    assert np.max(np.abs(same.values - psi0.values)) <= 1e-6
    t = 0.5
    out = free_propagator(psi0, t)
    a = 1.0 + 2.0j * t
    exact = a**-0.5 * np.exp(-ax[0] ** 2 / (2.0 * a))
    l2 = np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * psi0.spacings[0])
    assert l2 <= 1e-3
    assert abs(out.l2_norm() / psi0.l2_norm() - 1.0) <= 1e-3


def test_free_propagator_composition():
    ax = (np.linspace(-12.0, 12.0, 1537),)
    psi0 = WaveFunctionGrid(ax, np.exp(-ax[0] ** 2 / 2.0).astype(complex))
    one = free_propagator(psi0, 0.5)
    two = free_propagator(free_propagator(psi0, 0.25), 0.25)
    l2 = np.sqrt(np.sum(np.abs(one.values - two.values) ** 2) * psi0.spacings[0])
    a = 1.0 + 1.0j
    exact = a**-0.5 * np.exp(-ax[0] ** 2 / (2.0 * a))
    single = np.sqrt(np.sum(np.abs(one.values - exact) ** 2) * psi0.spacings[0])
    assert l2 <= 2.0 * max(single, 1e-6)


def test_free_propagator_resolution_guard():
    ax = (np.linspace(-6.0, 6.0, 101),)   # h = 0.12
    vals = np.exp(-ax[0] ** 2 / 2.0) * np.cos(3.0 * ax[0])
    psi = WaveFunctionGrid(ax, vals.astype(complex))
    # t small enough that the Fresnel width is under 2 cells, but the state
    # is too structured for the identity branch
    with pytest.raises(ResolutionError):
        free_propagator(psi, 2e-3)


@pytest.mark.parametrize("n, last_rows", [(1537, 25), (100, 100), (571, 1)],
                         ids=["suite-grid", "one-block", "one-row-last"])
def test_free_propagator_matches_dense_kernel(n, last_rows):
    per = integrator.CHUNK_VALUES // n    # rows per block
    assert n - (n - 1) // per * per == last_rows
    x = np.linspace(-12.0, 12.0, n)
    h, t = x[1] - x[0], 0.5
    # no symmetry in x, complex phase varying across the grid
    vals = (np.exp(-(x - 1.3) ** 2 / 3.0) * (1.0 + 0.5j * np.sin(2.0 * x + 0.3))
            + 0.2j * np.exp(-(x + 4.0) ** 2))
    out = free_propagator(WaveFunctionGrid((x,), vals), t)
    kernel = (4.0j * np.pi * t) ** -0.5 * np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (4.0 * t))
    dense = kernel @ vals * h
    assert np.max(np.abs(out.values - dense)) <= 1e-14 * np.max(np.abs(vals))


def test_free_propagator_memory_is_one_row_block():
    # the dense 1537 x 1537 complex kernel and its temporaries peak near 90 MiB
    ax = (np.linspace(-12.0, 12.0, 1537),)
    psi0 = WaveFunctionGrid(ax, np.exp(-ax[0] ** 2 / 2.0).astype(complex))
    tracemalloc.start()
    try:
        free_propagator(psi0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_feynman_kac_flat_and_constant():
    V0 = PotentialField(lambda x: np.zeros(x.shape[:-1]), "zero")
    one = lambda x: np.ones(x.shape[:-1])
    val, se = feynman_kac_semigroup(V0, one, 0.5, 0.0, 20_000, seed=SEED)
    assert abs(val - 1.0) <= 3.0 * max(se, 1e-12)
    c = 0.7
    Vc = PotentialField(lambda x: np.full(x.shape[:-1], c), "const")
    phi = lambda x: np.exp(-np.sum(x**2, axis=-1) / 2.0)
    val, se = feynman_kac_semigroup(Vc, phi, 0.5, 0.3, 40_000, seed=SEED + 1)
    exact = np.exp(-c * 0.5) * (1.0 + 0.5) ** -0.5 * np.exp(-0.3**2 / (2.0 * 1.5))
    assert abs(val - exact) <= 3.0 * se


def test_feynman_kac_monotone_in_potential():
    phi = lambda x: np.ones(x.shape[:-1])
    lo = PotentialField(lambda x: 0.1 * np.sum(x**2, axis=-1), "low")
    hi = PotentialField(lambda x: 0.1 * np.sum(x**2, axis=-1) + 0.5, "high")
    v_lo, se_lo = feynman_kac_semigroup(lo, phi, 0.4, 0.0, 20_000, seed=SEED + 2)
    v_hi, se_hi = feynman_kac_semigroup(hi, phi, 0.4, 0.0, 20_000, seed=SEED + 2)
    assert v_hi <= v_lo + 3.0 * np.sqrt(se_lo**2 + se_hi**2)


_FLAT = lambda x: np.zeros(x.shape[:-1])
_COLUMN = lambda x: np.ones((x.shape[0], 1))


@pytest.mark.parametrize("V, phi, bad", [(_COLUMN, np.ones_like, "V"),
                                         (_FLAT, _COLUMN, "phi"),
                                         (_FLAT, np.ones_like, "phi")])
def test_feynman_kac_rejects_values_not_one_per_point(V, phi, bad):
    # phi = ones_like used to broadcast the weights to (B, B) and return
    # 3518.9 instead of 1.0; a (B, 1) V raised a bare numpy ValueError
    with pytest.raises(ParameterError, match=rf"^{bad} returned shape \(4096, 1\) for "
                       r"points of shape \(4096, 1\); expected \(4096,\)$"):
        feynman_kac_semigroup(V, phi, 0.01, 0.0, N=5000, seed=SEED, dt=0.01)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_feynman_kac_bits_independent_of_worker_count(workers, monkeypatch):
    # six blocks, the last of 17 paths, and 20 steps in runs of 16 and 4;
    # the bits were recorded from the serial block loop
    monkeypatch.setattr(integrator, "worker_count", lambda: workers)
    threads = threading.active_count()
    est = feynman_kac_semigroup(lambda x: 0.5 * np.sum(x**2, axis=-1),
                                lambda x: np.exp(-np.sum(x**2, axis=-1)),
                                0.2, [0.2, -0.1], N=5 * 4096 + 17, seed=SEED, dt=0.01)
    assert [v.hex() for v in est] == ["0x1.5a5d43d7ff655p-1", "0x1.9e97338707163p-10"]
    assert threading.active_count() == threads   # the pool is closed on return


def _column_on(size):
    """Zeros of the wrong shape on blocks of `size` paths, of the right one
    on every other block."""
    return lambda x: np.zeros((len(x), 1) if len(x) == size else len(x))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_feynman_kac_error_of_one_block(workers, monkeypatch):
    # only the fourth block, of 100 paths, fails: the serial loop's message
    monkeypatch.setattr(integrator, "worker_count", lambda: workers)
    with pytest.raises(ParameterError, match=r"^V returned shape \(100, 1\) for points "
                       r"of shape \(100, 1\); expected \(100,\)$"):
        feynman_kac_semigroup(_column_on(100), _column_on(None), 0.05, 0.0,
                              N=3 * 4096 + 100, seed=SEED, dt=0.01)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_feynman_kac_raises_the_first_failing_block(workers, monkeypatch):
    # every full block fails in phi, after its last step; the last block
    # fails in V at its first point, so it may fail first in time
    monkeypatch.setattr(integrator, "worker_count", lambda: workers)
    with pytest.raises(ParameterError, match=r"^phi returned shape \(4096, 1\)"):
        feynman_kac_semigroup(_column_on(17), _column_on(4096), 0.5, 0.0,
                              N=2 * 4096 + 17, seed=SEED, dt=0.01)


def test_feynman_kac_vs_matrix_exponential():
    grid = np.linspace(-8.0, 8.0, 400)
    h = grid[1] - grid[0]
    lap = (np.diag(-2.0 * np.ones(400)) + np.diag(np.ones(399), 1)
           + np.diag(np.ones(399), -1)) / h**2
    H = -0.5 * lap + np.diag(0.5 * grid**2)
    U = expm(-0.5 * H)
    phi = lambda x: np.exp(-np.sum(x**2, axis=-1) / 2.0)
    oracle = U @ phi(grid[:, None])
    V = PotentialField(lambda x: 0.5 * np.sum(x**2, axis=-1), "harmonic")
    j = int(np.argmin(np.abs(grid - 0.6)))
    mc, se = feynman_kac_semigroup(V, phi, 0.5, float(grid[j]), 50_000,
                                   seed=SEED + 3)
    assert abs(mc - oracle[j]) <= 3.0 * se + 5e-3


def test_expm_oracle_matches_scipy_on_the_suite_grid():
    # the feynman-kac suite's grid, potential and time
    grid = np.linspace(-8.0, 8.0, 400)
    h = grid[1] - grid[0]
    lap = (np.diag(-2.0 * np.ones(400)) + np.diag(np.ones(399), 1)
           + np.diag(np.ones(399), -1)) / h**2
    V = PotentialField(lambda x: 0.5 * np.sum(x**2, axis=-1), "harmonic")
    U = schrodinger_expm_oracle(grid, V, 0.5)
    assert np.max(np.abs(U - expm(-0.5 * (-0.5 * lap + np.diag(0.5 * grid**2))))) <= 1e-13


@pytest.mark.parametrize("t, dt", [(0.5, 0.3), (0.1, 0.3)])
def test_feynman_kac_rejects_a_step_that_does_not_divide_t(t, dt):
    # 0.5 / 0.3 used to take 2 steps of 0.25, and 0.1 / 0.3 one step of 0.1
    with pytest.raises(ParameterError,
                       match=rf"^t={t} is not an integer multiple of dt={dt}$"):
        feynman_kac_semigroup(_FLAT, lambda x: np.ones(len(x)), t, 0.0, N=100,
                              seed=SEED, dt=dt)


def test_quadratic_variation_law_flat():
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=2)
    ens = simulate_ito(spec, np.zeros(2), T=0.05, dt=1e-3, N=30_000, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 0.05), 1, (-0.5, 0.5), 2, dim=2,
                                  min_count=1000)
    law = quadratic_variation_law(ens, cfg)
    assert law.passed, law.reason


def test_quadratic_variation_law_deterministic_fails():
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=0.5, dt=0.01, N=500, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 0.5), 1, (-0.2, 0.8), 2, min_count=200)
    law = quadratic_variation_law(ens, cfg)
    assert not law.passed
    assert "deterministic" in law.reason


def test_quadratic_variation_law_sphere():
    chart = get_chart("sphere2")
    ens = simulate_manifold_diffusion(chart, None, [np.pi / 2, 0.0], T=0.5,
                                      dt=0.002, N=20_000, seed=SEED + 4)
    cfg = EstimatorConfig.regular((0.2, 0.5), 1, [(0.9, 2.2), (-1.5, 1.5)], 3,
                                  dim=2, min_count=500)
    law = quadratic_variation_law(ens, cfg, chart=chart)
    assert law.passed, law.reason


def test_newton_nelson_free_deterministic():
    starts = np.linspace(-1.0, 1.0, 400)[:, None]
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, 0.5),
                          diffusion_const=0.0, dimension=1)
    base = simulate_ito(spec, np.zeros(1), T=1.0, dt=0.01, N=400, seed=SEED)
    ens = PathEnsemble(base.times, base.paths + starts[:, None, :], seed=SEED,
                       meta={"epsilon": 0.0})
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-1.5, 2.0), 7, min_count=50)
    res = newton_nelson_residual(ens, force=lambda x: np.zeros_like(x),
                                 mass=1.0, chart=get_chart("euclidean:1"),
                                 include_ricci=False, config=cfg, epsilon=0.0)
    assert res.n_bins >= 1
    assert np.max(res.residual) < 0.05   # O(dt) discretization floor


def test_newton_nelson_ricci_flag_is_noop_on_flat(ou_ensemble):
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 8, min_count=500)
    chart = get_chart("euclidean:1")
    a = newton_nelson_residual(ou_ensemble, force=lambda x: -x, mass=1.0,
                               chart=chart, include_ricci=False, config=cfg)
    b = newton_nelson_residual(ou_ensemble, force=lambda x: -x, mass=1.0,
                               chart=chart, include_ricci=True, config=cfg)
    assert np.array_equal(a.residual, b.residual)


def test_newton_nelson_harmonic_ground_state(ou_ensemble):
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 8, min_count=500)
    res = newton_nelson_residual(ou_ensemble, force=lambda x: -x, mass=1.0,
                                 chart=get_chart("euclidean:1"),
                                 include_ricci=False, config=cfg)
    sel = (np.abs(res.bin_centers[:, 0]) >= 0.2) \
        & (np.abs(res.bin_centers[:, 0]) <= 1.5) & (res.bin_counts >= 500)
    assert np.median(res.relative_residual[sel]) <= 0.10


def test_wavefunction_csv_roundtrip(tmp_path):
    psi = make_wavefunction("gaussian-packet(0.8)", (np.linspace(-3, 3, 61),))
    path = tmp_path / "psi.csv"
    psi.write_csv(path)
    back = WaveFunctionGrid.read_csv(path)
    assert np.allclose(back.values, psi.values)
    assert back.hbar == psi.hbar and back.mass == psi.mass


@pytest.mark.parametrize("grid", [None, [np.nan, 1.0, 5], [-1.0, np.nan, 5],
                                  [-1.0, 1.0, np.nan], [-1.0, 1.0, 1], [-1.0, 1.0]],
                         ids=["nan-axis", "manifest-nan-first", "manifest-nan-last",
                              "manifest-nan-nodes", "manifest-one-node",
                              "manifest-no-node-count"])
def test_wavefunction_grid_rule(tmp_path, grid):
    if grid is None:
        with pytest.raises(ParameterError, match="non-finite grid axis 0"):
            WaveFunctionGrid((np.array([-1.0, np.nan, 1.0]),), np.ones(3))
        return
    # the manifest's grid, not the table's rows, sets the axes
    psi = make_wavefunction("gaussian-packet(0.8)", (np.linspace(-1, 1, 5),))
    path = tmp_path / "psi.csv"
    psi.write_csv(path)
    mpath = tmp_path / "psi.manifest.json"
    manifest = json.loads(mpath.read_text())
    mpath.write_text(json.dumps({**manifest, "grid": [grid]}))
    with pytest.raises(ParameterError, match=str(mpath)):
        WaveFunctionGrid.read_csv(path)


@pytest.mark.parametrize("edit", ["swap", "delete"])
def test_wavefunction_csv_rejects_reordered_or_missing_rows(tmp_path, edit):
    psi = make_wavefunction("gaussian-packet(0.8)", (np.linspace(-1, 1, 5),))
    path = tmp_path / "psi.csv"
    psi.write_csv(path)
    lines = path.read_text().splitlines()
    lines[2:4] = [lines[3], lines[2]] if edit == "swap" else [lines[3]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=str(path)):
        WaveFunctionGrid.read_csv(path)
