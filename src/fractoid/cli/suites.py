"""Named verification suites.

Each suite bundles acceptance checks with pinned tolerances; every check
appears in exactly one suite.  Reports are deterministic for a fixed
(config, seed): the canonical JSON excludes runtimes (kept in the
human-readable table) so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .. import dirac as dirac_mod
from .. import geodesic as geo_mod
from .. import whitenoise as wn
from ..errors import ConfigError, EstimationError
from ..geometry import (
    MetricChart,
    christoffel_batch,
    get_chart,
    laplace_beltrami,
    ricci,
    vector_jacobian_fd,
)
from ..meanderiv import (
    EstimatorConfig,
    covariant_mean_derivative,
    estimate_velocity_fields,
    quadratic_variation_matrix,
)
from ..nelson import (
    PotentialField,
    WaveFunctionGrid,
    feynman_kac_semigroup,
    free_propagator,
    newton_nelson_residual,
)
from ..stochastic import (
    ItoProcessSpec,
    fractal_scaling,
    make_stream,
    parallel_transport,
    simulate_ito,
)
from .config import ExperimentConfig


@dataclass
class SuiteCheck:
    name: str
    value: float
    target: float
    tolerance: float
    passed: bool
    runtime: float
    note: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[SuiteCheck] = field(default_factory=list)

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate check names in a suite report")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [{
                "name": c.name,
                "value": c.value,
                "target": c.target,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "note": c.note,
            } for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"suite: {self.suite}",
                 f"{'check':40s} {'value':>14s} {'target':>12s} {'tol':>10s} "
                 f"{'status':>6s} {'time[s]':>8s}"]
        for c in self.checks:
            lines.append(f"{c.name:40s} {c.value:14.6g} {c.target:12.6g} "
                         f"{c.tolerance:10.3g} {'PASS' if c.passed else 'FAIL':>6s} "
                         f"{c.runtime:8.2f}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        jpath = out / f"report-{self.suite}.json"
        tpath = out / f"report-{self.suite}.txt"
        jpath.write_text(self.to_json() + "\n", encoding="utf8")
        tpath.write_text(self.to_table() + "\n", encoding="utf8")
        return jpath, tpath


class _Recorder:
    def __init__(self):
        self.checks: list[SuiteCheck] = []
        self._t0 = time.perf_counter()

    def add(self, name, value, target, tolerance, passed=None, note=""):
        t1 = time.perf_counter()
        runtime = t1 - self._t0
        self._t0 = t1
        if passed is None:
            passed = abs(value - target) <= tolerance
        self.checks.append(SuiteCheck(name=name, value=float(value),
                                      target=float(target),
                                      tolerance=float(tolerance),
                                      passed=bool(passed), runtime=runtime,
                                      note=note))


# --- oracles -----------------------------------------------------------------

def _strip_analytic(chart: MetricChart) -> MetricChart:
    """The same chart with the analytic metric derivative removed, so every
    derivative goes through finite differences (the oracle path)."""
    return replace(chart, diag_derivative=None)


def divergence_form_laplacian(chart: MetricChart, f, x, h: float = 1e-4) -> float:
    """Independent Laplace-Beltrami oracle:
    (1/sqrt|g|) d_mu (sqrt|g| g^{mu nu} d_nu f)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]

    def flux(p):
        g = chart.metric(p)
        ginv = np.linalg.inv(g)
        root = np.sqrt(abs(np.linalg.det(g)))
        grad = vector_jacobian_fd(f, p)
        return root * ginv @ grad

    total = 0.0
    for mu in range(n):
        step = h * max(1.0, abs(x[mu]))
        xp = x.copy(); xp[mu] += step
        xm = x.copy(); xm[mu] -= step
        total += (flux(xp)[mu] - flux(xm)[mu]) / (2.0 * step)
    g = chart.metric(x)
    return float(total / np.sqrt(abs(np.linalg.det(g))))


def schrodinger_expm_oracle(x_grid: np.ndarray, potential, t: float) -> np.ndarray:
    """exp(-t H) for H = -(1/2) Lap_h + V on a truncated grid, from a dense
    eigendecomposition H = Q diag(lam) Q^T; H is real symmetric, so this is
    its exact exponential up to rounding."""
    n = len(x_grid)
    h = x_grid[1] - x_grid[0]
    lap = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1)) / h**2
    H = -0.5 * lap + np.diag(potential(x_grid[:, None]))
    lam, Q = np.linalg.eigh(H)
    return (Q * np.exp(-t * lam)) @ Q.T


# --- suites ------------------------------------------------------------------

def _suite_sphere_geometry(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    probes = {
        "polar2": [np.array([0.7, 0.4]), np.array([2.0, 1.1]), np.array([3.5, 5.0])],
        "sphere2": [np.array([0.6, 0.3]), np.array([np.pi / 3, 2.0]),
                    np.array([2.2, 4.4])],
        "hyperbolic2": [np.array([0.4, 0.2]), np.array([1.1, 2.5]),
                        np.array([2.0, 0.7])],
    }
    worst_gamma = worst_ric = 0.0
    for name, pts in probes.items():
        chart = get_chart(name)
        oracle_chart = _strip_analytic(chart)
        for x in pts:
            a = christoffel_batch(chart, x)
            b = christoffel_batch(oracle_chart, x)
            worst_gamma = max(worst_gamma, float(np.max(np.abs(a - b))))
            worst_ric = max(worst_ric, float(np.max(np.abs(
                ricci(chart, x) - ricci(oracle_chart, x)))))
    rec.add("christoffel_vs_fd_oracle", worst_gamma, 0.0, 1e-4)
    rec.add("ricci_vs_fd_oracle", worst_ric, 0.0, 1e-4)

    sph = get_chart("sphere2")
    hyp = get_chart("hyperbolic2")
    dev = 0.0
    for x in probes["sphere2"]:
        dev = max(dev, float(np.max(np.abs(ricci(sph, x) - sph.metric(x)))))
    rec.add("sphere_ricci_equals_metric", dev, 0.0, 1e-4)
    dev = 0.0
    for x in probes["hyperbolic2"]:
        dev = max(dev, float(np.max(np.abs(ricci(hyp, x) + hyp.metric(x)))))
    rec.add("hyperbolic_ricci_equals_minus_metric", dev, 0.0, 1e-4)

    worst_lb = 0.0
    cases = [
        ("polar2", lambda p: p[..., 0] ** 2 * np.cos(p[..., 1])),
        ("sphere2", lambda p: np.cos(p[..., 0])),
        ("hyperbolic2", lambda p: np.cosh(p[..., 0]) * np.sin(p[..., 1])),
    ]
    for name, fn in cases:
        chart = get_chart(name)
        for x in probes[name]:
            lb = laplace_beltrami(chart, fn, x)
            oracle = divergence_form_laplacian(chart, fn, x)
            worst_lb = max(worst_lb, abs(lb - oracle))
    rec.add("laplace_beltrami_vs_divergence_oracle", worst_lb, 0.0, 1e-4)

    theta0 = np.pi / 3
    steps = 10_000
    loop = np.stack([np.full(steps + 1, theta0),
                     np.linspace(0.0, 2.0 * np.pi, steps + 1)], axis=-1)
    v0 = np.array([1.0, 0.0])
    transported = parallel_transport(sph, loop, v0)
    g_end = sph.metric(loop[-1])
    v_end = transported[-1]
    cosang = float(v0 @ g_end @ v_end
                   / np.sqrt((v0 @ g_end @ v0) * (v_end @ g_end @ v_end)))
    angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
    rec.add("holonomy_angle_latitude_pi3", angle, np.pi, 1e-3)
    norms = np.einsum("si,sij,sj->s", transported, sph.metric(loop), transported)
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    rec.add("holonomy_norm_drift", drift, 0.0, 1e-4)
    return SuiteReport(suite="sphere-geometry", checks=rec.checks)


def _suite_wiener_meanderiv(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0

    # quadratic-variation law, flat 3-D, eps^2 = 1
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=3)
    ens = simulate_ito(spec, np.zeros(3), T=0.04, dt=1e-3, N=cfg.n_paths, seed=seed)
    qcfg = EstimatorConfig.regular((0.0, 0.04), 1, (-0.6, 0.6), 2, dim=3,
                                   min_count=cfg.min_count)
    qv = quadratic_variation_matrix(ens, qcfg)
    mask = qv.mask
    diag = np.arange(3)
    vals = qv.values[mask]
    ses = qv.se[mask]
    rec.add("qv_diagonal_max_rel_dev",
            float(np.max(np.abs(vals[:, diag, diag] - 1.0))), 0.0, 0.02)
    off = ~np.eye(3, dtype=bool)
    rec.add("qv_offdiagonal_max_z",
            float(np.max(np.abs(vals[:, off]) / ses[:, off])), 0.0, 3.0)

    # mean-derivative recovery on a Wiener ensemble from 0
    wspec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                           diffusion_const=1.0, dimension=1)
    dt_w = 0.0125
    wens = simulate_ito(wspec, 0.0, T=1.0, dt=dt_w, N=cfg.n_paths, seed=seed + 1)
    # single-grid-step time bins centered exactly on the target times, so the
    # conditional law has one sharp t per bin
    edges = []
    for t_star in (0.25, 0.5, 0.75):
        edges += [t_star - dt_w / 2.0, t_star + dt_w / 2.0]
    mcfg = EstimatorConfig(time_edges=edges,
                           space_edges=(np.linspace(-2.4, 2.4, 17),),
                           min_count=cfg.min_count, lag=cfg.lag)
    fld = estimate_velocity_fields(wens, mcfg)
    worst = {"backward": 0.0, "forward": 0.0, "current": 0.0, "osmotic": 0.0}
    for tb, t in ((0, 0.25), (2, 0.5), (4, 0.75)):
        m = fld.mask[tb]
        if not np.any(m):
            continue
        x = fld.cond_mean[tb, m, 0]    # conditional mean, the exact target point
        worst["backward"] = max(worst["backward"], float(np.max(
            np.abs(fld.backward[tb, m, 0] - x / t) / fld.backward_se[tb, m, 0])))
        worst["forward"] = max(worst["forward"], float(np.max(
            np.abs(fld.forward[tb, m, 0]) / fld.forward_se[tb, m, 0])))
        worst["current"] = max(worst["current"], float(np.max(
            np.abs(fld.current[tb, m, 0] - x / (2 * t)) / fld.velocity_se[tb, m, 0])))
        worst["osmotic"] = max(worst["osmotic"], float(np.max(
            np.abs(fld.osmotic[tb, m, 0] + x / (2 * t)) / fld.velocity_se[tb, m, 0])))
    rec.add("meanderiv_backward_max_z", worst["backward"], 0.0, 3.0)
    rec.add("meanderiv_forward_max_z", worst["forward"], 0.0, 3.0)
    rec.add("meanderiv_current_max_z", worst["current"], 0.0, 3.0)
    rec.add("meanderiv_osmotic_max_z", worst["osmotic"], 0.0, 3.0)

    # covariant estimator cross-check: X = x^2 on a driftless flat ensemble
    chart = get_chart("euclidean:1")
    cens = simulate_ito(wspec, 0.0, T=1.0, dt=0.01, N=min(cfg.n_paths, 20000),
                        seed=seed + 2)
    ccfg = EstimatorConfig.regular((0.35, 0.65), 1, (-2.0, 2.0), 16,
                                   min_count=cfg.min_count)
    cov = covariant_mean_derivative(chart, cens, lambda t, x: x**2, ccfg,
                                    direction="forward")
    m = cov.monte_carlo.mask
    z_ito = np.abs(cov.monte_carlo.values[m] - 1.0) / cov.monte_carlo.se[m]
    rec.add("covariant_ito_correction_max_z", float(np.max(z_ito)), 0.0, 3.0)
    centers = ccfg.x_centers[0]
    combined = []
    for i, xc_i in enumerate(centers):
        if not m[0, i]:
            continue
        se_an = abs(2.0 * xc_i) * cov.drift.se[0, i, 0]
        se_tot = float(np.sqrt(cov.monte_carlo.se[0, i, 0] ** 2 + se_an**2))
        combined.append(abs(cov.monte_carlo.values[0, i, 0]
                            - cov.analytic[0, i, 0]) / se_tot)
    rec.add("covariant_mc_vs_analytic_max_z", float(np.max(combined)), 0.0, 3.0)
    return SuiteReport(suite="wiener-meanderiv", checks=rec.checks)


def _suite_nelson_ho(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0
    omega = cfg.omega
    spec = ItoProcessSpec(drift=lambda t, x: -omega * x, diffusion_const=1.0,
                          dimension=1)
    x0 = make_stream(seed, 1 << 32).normal(0.0, np.sqrt(0.5 / omega),
                                           (cfg.n_paths, 1))
    ens = simulate_ito(spec, x0, T=3.0, dt=0.01, N=cfg.n_paths, seed=seed)
    mcfg = EstimatorConfig.regular((0.0, 3.0), 1, (-2.0, 2.0), 8,
                                   min_count=max(cfg.min_count, 500), lag=cfg.lag)
    chart = get_chart("euclidean:1")
    try:
        res = newton_nelson_residual(ens, force=lambda x: -x, mass=1.0,
                                     chart=chart, include_ricci=False,
                                     config=mcfg, epsilon=1.0)
    except EstimationError as exc:
        rec.add("newton_nelson_median_relative_residual", float("nan"), 0.0, 0.10,
                passed=False, note=f"insufficient samples: {exc}")
        return SuiteReport(suite="nelson-ho", checks=rec.checks)
    sel = (np.abs(res.bin_centers[:, 0]) >= 0.2) \
        & (np.abs(res.bin_centers[:, 0]) <= 1.5) & (res.bin_counts >= 500)
    if not np.any(sel):
        rec.add("newton_nelson_median_relative_residual", float("nan"), 0.0, 0.10,
                passed=False, note="insufficient samples: no bins with >= 500 "
                "samples in 0.2 <= |x| <= 1.5")
        return SuiteReport(suite="nelson-ho", checks=rec.checks)
    med = float(np.median(res.relative_residual[sel]))
    rec.add("newton_nelson_median_relative_residual", med, 0.0, 0.10,
            note=f"{int(sel.sum())} qualifying bins")
    return SuiteReport(suite="nelson-ho", checks=rec.checks)


def _suite_geodesic_variational(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0
    e1 = get_chart("euclidean:1")
    sph = get_chart("sphere2")

    # Euler-Lagrange residual of integrated geodesics: order 2 across three
    # step sizes (the residual is measured with finite differences, so the
    # stencil truncation dominates the RK4 path error)
    free = geo_mod.LagrangianSpec(potential=None, mass=1.0)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        geod = geo_mod.classical_geodesic(sph, [1.1, 0.2], [0.3, 0.45],
                                          T=1.0, dt=dt)
        curve = geo_mod.PathCurve(geod.times, geod.points, geod.chart_name)
        errs.append(float(np.max(np.abs(
            geo_mod.euler_lagrange_residual(sph, curve, free)))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    rec.add("euler_lagrange_convergence_order", float(np.mean(orders)), 2.0, 0.3)

    # first variation at a sphere geodesic, 10 smooth random perturbations
    geod = geo_mod.classical_geodesic(sph, [np.pi / 2, 0.3], [0.4, 0.5],
                                      T=1.0, dt=1e-3)
    rng = make_stream(seed, 3)
    tt = geod.times / geod.times[-1]
    worst = 0.0
    for _ in range(10):
        eta = np.zeros_like(geod.points)
        for mode in range(1, 4):
            eta += rng.normal(0.0, 1.0, (1, 2)) * np.sin(mode * np.pi * tt)[:, None]
        eta[0] = 0.0
        eta[-1] = 0.0
        worst = max(worst, abs(geo_mod.first_variation(sph, geod, eta)))
    rec.add("geodesic_first_variation_max", worst, 0.0, 1e-3)

    # stochastic energy of a constant-drift ensemble: ||b||^2 T
    b = 0.8
    spec = ItoProcessSpec(drift=lambda t, x: np.full_like(x, b),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=min(cfg.n_paths, 20000),
                       seed=seed + 40)
    ecfg = EstimatorConfig.regular((0.0, 1.0), 1, (-3.0, 4.5), 15, min_count=200)
    est, se = geo_mod.stochastic_energy(ens, e1, ecfg)
    rec.add("stochastic_energy_drift_z",
            abs(est - b**2 * 1.0) / se, 0.0, 3.0,
            note=f"estimate {est:.4f} vs {b**2:.4f}")

    # closed-form stochastic geodesic w = x/(1+t)
    w = lambda t, x: x / (1.0 + t)
    gens = simulate_ito(ItoProcessSpec(drift=w, diffusion_const=1.0, dimension=1),
                        0.0, T=1.0, dt=0.01, N=min(cfg.n_paths, 20000), seed=seed + 5)
    gcfg = EstimatorConfig.regular((0.3, 0.7), 1, (-2.5, 2.5), 10, min_count=200)
    crit = geo_mod.stochastic_geodesic_criterion(e1, w, gens, gcfg)
    rec.add("stochastic_geodesic_analytic_residual",
            crit.analytic_residual, 0.0, 1e-10)
    rec.add("stochastic_geodesic_mc_max_z", crit.max_z, 0.0, 3.0)
    return SuiteReport(suite="geodesic-variational", checks=rec.checks)


def _suite_whitenoise_cov(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0
    lat = wn.SpaceTimeLattice(t_extent=1.0, dt=0.125, half_width=1.0, dx=0.25, d=2)
    n_samples = 10_000
    bump = wn.make_test_function("bump(0.0,0.35)")
    bump_arr = bump(lat.mesh())
    norm2 = wn.lattice_inner_product(lat, bump_arr, bump_arr)
    cov_same, _ = wn.covariance_check(lat, bump_arr, bump_arr, n_samples, seed)
    rec.add("pw_variance_rel_dev", abs(cov_same - norm2) / norm2, 0.0, 0.05)

    mesh0 = lat.mesh()
    left = ((mesh0[..., 1] <= -0.2) & (mesh0[..., 2] <= 0.2)).astype(float)
    right = (mesh0[..., 1] >= 0.2).astype(float)
    if float(np.sum(left * right)) != 0.0:
        raise ConfigError("disjoint-support test functions overlap")
    _, z_disjoint = wn.covariance_check(lat, left, right, n_samples, seed + 1)
    rec.add("pw_disjoint_support_z", abs(z_disjoint), 0.0, 3.0)

    # orthonormal family: normalized Fourier modes on the lattice
    mesh = lat.mesh()
    tt, xx, yy = mesh[..., 0], mesh[..., 1], mesh[..., 2]
    fams = [np.ones(lat.shape),
            np.sin(2.0 * np.pi * tt),
            np.sin(np.pi * xx),
            np.sin(np.pi * yy)]
    fams = [f / np.sqrt(wn.lattice_inner_product(lat, f, f)) for f in fams]
    W = wn.paley_wiener_samples(lat, fams, n_samples, seed + 2)
    gram = W.T @ W / n_samples
    se = np.sqrt((1.0 + np.eye(len(fams))) / n_samples)
    zmat = np.abs(gram - np.eye(len(fams))) / se
    rec.add("pw_orthonormal_family_max_z", float(np.max(zmat)), 0.0, 3.0)
    return SuiteReport(suite="whitenoise-cov", checks=rec.checks)


def _suite_dirac_algebra(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    g = dirac_mod.build_gammas()
    eye4 = np.eye(4, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = g.gammas[mu] @ g.gammas[nu] + g.gammas[nu] @ g.gammas[mu]
            worst = max(worst, float(np.max(np.abs(
                anti - 2.0 * dirac_mod.ETA_GAMMA[mu, nu] * eye4))))
    rec.add("gamma_anticommutators", worst, 0.0, 0.0, passed=worst == 0.0)
    g5err = float(np.max(np.abs(g.gamma5 @ g.gamma5 - eye4)))
    for mu in range(4):
        g5err = max(g5err, float(np.max(np.abs(
            g.gamma5 @ g.gammas[mu] + g.gammas[mu] @ g.gamma5))))
    rec.add("gamma5_identities", g5err, 0.0, 0.0, passed=g5err == 0.0)

    rng = make_stream(cfg.seed or 0, 6)
    worst = 0.0
    for _ in range(25):
        worst = max(worst, dirac_mod.clifford_relation_check(
            rng.normal(size=4), rng.normal(size=4), g))
    rec.add("clifford_relation_residual", worst, 0.0, 1e-12)

    p_vec = np.array([0.3, -0.2, 0.5])
    m = 1.0
    p0 = float(np.sqrt(np.sum(p_vec**2) + m**2))
    rec.add("klein_gordon_onshell_residual",
            dirac_mod.klein_gordon_residual(np.concatenate([[p0], p_vec]), m),
            0.0, 1e-12)
    spinor = dirac_mod.dirac_plane_wave(p_vec, m, g)
    rec.add("dirac_plane_wave_residual", spinor.residual(g), 0.0, 1e-12)
    rec.add("dirac_nullspace_dimension",
            dirac_mod.plane_wave_null_space(p_vec, m, g).shape[1], 2.0, 0.0)

    errs = []
    for n in (32, 64, 128):
        L = 2.0 * np.pi
        h = L / n
        axis = np.arange(n) * h
        T, X = np.meshgrid(axis, axis, indexing="ij")
        scal = np.sin(T) * np.cos(2.0 * X)
        u0 = np.array([1.0, 0.5, -0.5, 0.25], dtype=complex)
        fld = u0[:, None, None] * scal
        d2 = dirac_mod.dirac_operator_fd(
            dirac_mod.dirac_operator_fd(fld, g, [h, h]), g, [h, h])
        exact = u0[:, None, None] * (3.0 * scal)     # d_t^2 - d_x^2 of sin(t)cos(2x)
        errs.append(float(np.max(np.abs(d2 - exact))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    rec.add("dirac_squared_convergence_order", float(np.mean(orders)), 2.0, 0.3)
    return SuiteReport(suite="dirac-algebra", checks=rec.checks)


def _suite_fractal_dim(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0
    K = 4096
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=1.0 / K, N=256, seed=seed)
    rep = fractal_scaling(ens, scales=[1, 2, 4, 8, 16, 32])
    rec.add("fractal_dimension_wiener", rep.fitted_dimension, 2.0, 0.1)

    ts = np.arange(K + 1) / K
    from ..stochastic import PathEnsemble
    line = PathEnsemble(ts, np.tile(ts[None, :, None], (4, 1, 1)), seed=0)
    rep_line = fractal_scaling(line, scales=[1, 2, 4, 8, 16])
    rec.add("fractal_dimension_line", rep_line.fitted_dimension, 1.0, 0.01)

    dens = simulate_ito(spec, 0.0, T=1.0, dt=1.0 / 16, N=20_000, seed=seed + 7)
    rep_d = fractal_scaling(dens, scales=[1, 2, 4, 8])
    rec.add("diffusion_coefficient_rel_dev",
            abs(rep_d.diffusion_coefficient - 0.5) / 0.5, 0.0, 0.05)
    return SuiteReport(suite="fractal-dim", checks=rec.checks)


def _suite_feynman_kac(cfg: ExperimentConfig) -> SuiteReport:
    rec = _Recorder()
    seed = cfg.seed or 0
    grid = np.linspace(-8.0, 8.0, 400)
    h = grid[1] - grid[0]
    V = PotentialField(lambda x: 0.5 * np.sum(x**2, axis=-1), name="harmonic")
    phi = lambda x: np.exp(-np.sum(x**2, axis=-1) / 2.0)
    t = 0.5
    U = schrodinger_expm_oracle(grid, V, t)
    phi_vec = phi(grid[:, None])
    oracle_vec = U @ phi_vec
    allowance = 5e-3
    worst = 0.0
    for i, approx in enumerate((-0.8, 0.0, 0.6)):
        j = int(np.argmin(np.abs(grid - approx)))
        x0 = float(grid[j])           # probe exactly on a grid node
        mc, se = feynman_kac_semigroup(V, phi, t, x0, N=100_000,
                                       seed=seed + 10 + i, dt=1e-3)
        margin = 3.0 * se + allowance
        worst = max(worst, abs(mc - float(oracle_vec[j])) - margin)
    rec.add("feynman_kac_vs_expm_margin", worst, 0.0, 0.0, passed=worst <= 0.0,
            note="|mc - oracle| - (3 se + 5e-3), worst probe")

    axes = (np.linspace(-12.0, 12.0, 1537),)
    psi0 = WaveFunctionGrid(axes, np.exp(-axes[0] ** 2 / 2.0).astype(complex))
    out = free_propagator(psi0, 0.5)
    a = 1.0 + 2.0j * 0.5
    exact = a**-0.5 * np.exp(-axes[0] ** 2 / (2.0 * a))
    l2 = float(np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * psi0.spacings[0]))
    rec.add("free_propagator_l2_error", l2, 0.0, 1e-3)
    rec.add("free_propagator_norm_drift",
            abs(out.l2_norm() / psi0.l2_norm() - 1.0), 0.0, 1e-3)
    return SuiteReport(suite="feynman-kac", checks=rec.checks)


_SUITES = {
    "sphere-geometry": _suite_sphere_geometry,
    "wiener-meanderiv": _suite_wiener_meanderiv,
    "nelson-ho": _suite_nelson_ho,
    "geodesic-variational": _suite_geodesic_variational,
    "whitenoise-cov": _suite_whitenoise_cov,
    "dirac-algebra": _suite_dirac_algebra,
    "fractal-dim": _suite_fractal_dim,
    "feynman-kac": _suite_feynman_kac,
}

# Path counts matching the stated runtimes; n_paths = 0 in the config means
# "use the suite default".
DEFAULT_PATHS = {
    "wiener-meanderiv": 100_000,
    "nelson-ho": 100_000,
}


def check_suite(name: str) -> None:
    """A ConfigError that lists the suites, unless name is one."""
    if name not in _SUITES:
        raise ConfigError(f"unknown suite '{name}'; available: " + ", ".join(_SUITES))


def run_suite(name: str, cfg: ExperimentConfig) -> SuiteReport:
    check_suite(name)
    if cfg.n_paths == 0:
        cfg = replace(cfg, n_paths=DEFAULT_PATHS.get(name, 10_000))
    return _SUITES[name](cfg)
