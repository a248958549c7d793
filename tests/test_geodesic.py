"""Energy functionals, geodesic integration, Euler-Lagrange residuals,
first variation, and the stochastic-geodesic criterion."""

import warnings

import numpy as np
import pytest

from fractoid.errors import ParameterError
from fractoid.geodesic import (
    LagrangianSpec,
    PathCurve,
    classical_geodesic,
    energy_functional,
    euler_lagrange_residual,
    first_variation,
    stochastic_energy,
    stochastic_geodesic_criterion,
)
from fractoid.geometry import get_chart
from fractoid.meanderiv import EstimatorConfig
from fractoid.stochastic import ItoProcessSpec, make_stream, simulate_ito

SEED = 4321
E1 = get_chart("euclidean:1")
E2 = get_chart("euclidean:2")
SPH = get_chart("sphere2")


def _line(K=1000):
    ts = np.linspace(0.0, 1.0, K + 1)
    return ts, PathCurve(ts, ts[:, None])


def test_energy_unit_speed_line():
    _, curve = _line()
    assert abs(energy_functional(E1, curve) - 1.0) < 1e-12


def test_energy_reparametrized_line():
    ts, _ = _line()
    curve = PathCurve(ts, (ts**2)[:, None])
    assert abs(energy_functional(E1, curve) - 4.0 / 3.0) < 1e-5


def test_energy_quarter_great_circle():
    ts, _ = _line()
    curve = PathCurve(ts, np.stack([np.full_like(ts, np.pi / 2),
                                    (np.pi / 2) * ts], axis=-1), "sphere2")
    assert abs(energy_functional(SPH, curve) - (np.pi / 2) ** 2) < 1e-4


def test_energy_reversal_invariance():
    ts, _ = _line()
    curve = PathCurve(ts, np.stack([1.0 + 0.3 * np.sin(ts),
                                    0.5 * ts], axis=-1), "sphere2")
    assert abs(energy_functional(SPH, curve)
               - energy_functional(SPH, curve.reversed())) < 1e-12


def test_classical_geodesic_flat_line():
    curve = classical_geodesic(E2, [0.0, 0.0], [0.3, -0.4], T=2.0, dt=0.01)
    expect = np.outer(curve.times, [0.3, -0.4])
    assert np.max(np.abs(curve.points - expect)) < 1e-10


def test_classical_geodesic_meridian():
    curve = classical_geodesic(SPH, [np.pi / 2, 0.7], [-1.0, 0.0], T=1.2, dt=1e-3)
    assert np.max(np.abs(curve.points[:, 1] - 0.7)) < 1e-8


def test_classical_geodesic_speed_conservation():
    curve = classical_geodesic(SPH, [1.2, 0.0], [0.3, 0.4], T=10.0, dt=1e-3)
    v = curve.velocities()
    g = SPH.metric(curve.points)
    speed = np.einsum("ki,kij,kj->k", v, g, v)
    assert np.max(np.abs(speed[2:-2] - speed[2])) < 1e-8


def test_euler_lagrange_free_line():
    _, curve = _line()
    res = euler_lagrange_residual(E1, curve, LagrangianSpec(potential=None))
    assert np.max(np.abs(res)) < 1e-8


def test_euler_lagrange_harmonic_convergence():
    ho = LagrangianSpec(potential=lambda x: 0.5 * np.sum(x**2, axis=-1))
    errs = []
    for K in (100, 200, 400):
        ts = np.linspace(0.0, 2.0, K + 1)
        curve = PathCurve(ts, np.cos(ts)[:, None])
        errs.append(np.max(np.abs(euler_lagrange_residual(E1, curve, ho))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.3)


def test_euler_lagrange_non_solution():
    ts = np.linspace(0.0, 1.0, 501)
    curve = PathCurve(ts, (ts**3)[:, None])
    res = euler_lagrange_residual(E1, curve, LagrangianSpec(potential=None))
    at_half = res[np.argmin(np.abs(ts[2:-2] - 0.5))]
    assert abs(at_half) >= 1.0


def test_first_variation_straight_line_zero():
    ts, curve = _line()
    eta = np.sin(np.pi * ts)[:, None].copy()
    eta[0] = 0.0
    eta[-1] = 0.0
    assert abs(first_variation(E1, curve, eta)) < 1e-8


def test_first_variation_geodesic_small():
    geod = classical_geodesic(SPH, [np.pi / 2, 0.3], [0.4, 0.5], T=1.0, dt=1e-3)
    rng = make_stream(SEED, 0)
    tt = geod.times / geod.times[-1]
    for _ in range(10):
        eta = np.zeros_like(geod.points)
        for mode in range(1, 4):
            eta += rng.normal(0.0, 1.0, (1, 2)) * np.sin(mode * np.pi * tt)[:, None]
        eta[0] = 0.0
        eta[-1] = 0.0
        assert abs(first_variation(SPH, geod, eta)) <= 1e-3


def test_first_variation_non_geodesic_arc():
    ts = np.linspace(0.0, 1.0, 801)
    arc = PathCurve(ts, np.stack([np.cos(ts), np.sin(ts)], axis=-1), "euclidean:2")
    bump = np.sin(np.pi * ts)
    eta = np.stack([bump * np.cos(ts), bump * np.sin(ts)], axis=-1)
    eta[0] = 0.0
    eta[-1] = 0.0
    assert abs(first_variation(E2, arc, eta)) >= 0.1


def test_first_variation_rejects_moving_endpoints():
    ts, curve = _line()
    eta = np.ones_like(curve.points)
    with pytest.raises(ParameterError):
        first_variation(E1, curve, eta)


def test_straight_line_minimizes_energy():
    ts, line = _line(400)
    E0 = energy_functional(E1, line)
    rng = make_stream(SEED, 1)
    for _ in range(100):
        eta = sum(rng.normal(0.0, 0.3) * np.sin(m * np.pi * ts)
                  for m in range(1, 5))
        curve = PathCurve(ts, (ts + eta)[:, None])
        assert energy_functional(E1, curve) > E0 + 1e-9


def test_stochastic_energy_constant_drift():
    b = 1.5
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, b),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=20_000, seed=SEED)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-3.0, 5.5), 17, min_count=200)
    est, se = stochastic_energy(ens, E1, cfg)
    assert abs(est - 2.25) <= 3.0 * se


def test_stochastic_energy_deterministic_reduction():
    # eps = 0: every path is the common ODE path; the stochastic energy
    # reduces to the classical energy functional of that path
    drift = lambda t, x: np.full_like(x, 1.0 + 0.5 * t)
    spec = ItoProcessSpec(drift=drift, diffusion_const=0.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.005, N=64, seed=SEED + 9)
    cfg = EstimatorConfig.regular((0.0, 1.0), 20, (-0.2, 1.7), 16, min_count=2)
    est, _ = stochastic_energy(ens, E1, cfg)
    curve = PathCurve(ens.times, ens.paths[0])
    exact = energy_functional(E1, curve)
    # the Euler path differs from the continuum curve at O(dt)
    assert abs(exact - (1.0 + 0.5 + 1.0 / 12.0)) < 5e-3
    assert abs(est - exact) < 0.02


def test_stochastic_energy_additive_over_halves():
    b = 0.5
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, b),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=20_000, seed=SEED + 1)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-3.0, 4.0), 14, min_count=200)
    full, se_full = stochastic_energy(ens, E1, cfg)
    half1, se1 = stochastic_energy(ens.restrict(0, 50), E1, cfg)
    half2, se2 = stochastic_energy(ens.restrict(50, 100), E1, cfg)
    combined_se = np.sqrt(se_full**2 + se1**2 + se2**2)
    assert abs(full - (half1 + half2)) <= 3.0 * combined_se + 1e-3


def test_stochastic_energy_jensen_bound():
    b = 0.6
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, b),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=10_000, seed=SEED + 2)
    cfg = EstimatorConfig.regular((0.0, 1.0), 1, (-3.0, 4.0), 14, min_count=200)
    est, se = stochastic_energy(ens, E1, cfg)
    disp = np.linalg.norm(ens.paths[:, -1, :].mean(axis=0) - 0.0)
    assert est >= disp**2 / 1.0 - 3.0 * se


def test_geodesic_criterion_zero_and_constant_drift():
    cfg = EstimatorConfig.regular((0.2, 0.8), 1, (-2.0, 2.5), 9, min_count=200)
    zero = lambda t, x: np.zeros_like(x)
    ens0 = simulate_ito(ItoProcessSpec(drift=zero, diffusion_const=1.0,
                                       dimension=1), 0.0, T=1.0, dt=0.01,
                        N=10_000, seed=SEED + 3)
    crit = stochastic_geodesic_criterion(E1, zero, ens0, cfg)
    assert crit.analytic_residual <= 1e-12
    assert crit.max_z <= 3.5
    const = lambda t, x: np.full_like(x, 0.7)
    ensc = simulate_ito(ItoProcessSpec(drift=const, diffusion_const=1.0,
                                       dimension=1), 0.0, T=1.0, dt=0.01,
                        N=10_000, seed=SEED + 4)
    critc = stochastic_geodesic_criterion(E1, const, ensc, cfg)
    assert critc.analytic_residual <= 1e-12
    assert critc.max_z <= 3.5


def test_geodesic_criterion_closed_form_drift():
    w = lambda t, x: x / (1.0 + t)
    ens = simulate_ito(ItoProcessSpec(drift=w, diffusion_const=1.0, dimension=1),
                       0.0, T=1.0, dt=0.01, N=20_000, seed=SEED + 5)
    cfg = EstimatorConfig.regular((0.3, 0.7), 1, (-2.5, 2.5), 10, min_count=200)
    crit = stochastic_geodesic_criterion(E1, w, ens, cfg)
    assert crit.analytic_residual <= 1e-10
    assert crit.max_z <= 3.5


def test_geodesic_criterion_skips_a_nan_probe():
    # w = x^2 has residual 2x^3 + 1, largest at an end probe; a NaN at the
    # middle probe drops that probe alone, not the other probes of its time,
    # and a warning counts the dropped residuals, one per probe time
    ens = simulate_ito(ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0,
                                      dimension=1), 0.0, T=1.0, dt=0.01, N=2000,
                       seed=SEED + 6)
    cfg = EstimatorConfig.regular((0.3, 0.7), 1, (-2.0, 2.0), 8, min_count=50)
    lo, hi = np.nanpercentile(ens.paths, [15, 85], axis=(0, 1))
    mid = np.linspace(lo[0], hi[0], 5)[2]
    w = lambda t, x: x**2
    w_nan = lambda t, x: np.where(x == mid, np.nan, x**2)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*probe residuals are NaN")
        clean = stochastic_geodesic_criterion(E1, w, ens, cfg).analytic_residual
    with np.errstate(invalid="ignore"), \
            pytest.warns(UserWarning, match=r"^3 of 15 probe residuals are NaN"):
        crit = stochastic_geodesic_criterion(E1, w_nan, ens, cfg)
    assert clean > 1.0
    assert crit.analytic_residual == clean


def test_curve_roundtrip_through_ensemble_csv(tmp_path):
    from fractoid.stochastic import PathEnsemble
    ts, curve = _line(64)
    ens = PathEnsemble(ts, curve.points[None, :, :], seed=0)
    p = tmp_path / "curve.csv"
    ens.write_csv(p)
    back = PathEnsemble.read_csv(p)
    assert np.array_equal(back.paths[0], curve.points)
