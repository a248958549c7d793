"""Chart registry, Christoffel symbols, curvature, Laplace-Beltrami,
torsion and the Leibniz rule, checked against independent oracles."""

import numpy as np
import pytest

from fractoid.errors import ConfigError, DomainError, SingularMetricError
from fractoid.geometry import (
    MetricChart,
    chart_from_json,
    christoffel,
    christoffel_batch,
    get_chart,
    laplace_beltrami,
    leibniz_residual,
    levi_civita_field,
    register_chart,
    ricci,
    torsion,
)
from fractoid.geometry import charts as charts_module
from fractoid.stochastic import simulate_manifold_diffusion


def brute_force_ricci(chart, x, h=1e-4):
    """Independent oracle: Riemann contraction with plain loops and
    one-step central differences of Gamma."""
    x = np.asarray(x, dtype=float)
    n = chart.dimension

    def gamma(p):
        return christoffel_batch(chart, p)

    dG = np.zeros((n, n, n, n))
    for m in range(n):
        step = h * max(1.0, abs(x[m]))
        xp = x.copy(); xp[m] += step
        xm = x.copy(); xm[m] -= step
        dG[m] = (gamma(xp) - gamma(xm)) / (2.0 * step)
    G = gamma(x)
    ric = np.zeros((n, n))
    for s in range(n):
        for nu in range(n):
            total = 0.0
            for r in range(n):
                total += dG[r][r, nu, s] - dG[nu][r, r, s]
                for lam in range(n):
                    total += G[r, r, lam] * G[lam, nu, s] \
                        - G[r, nu, lam] * G[lam, r, s]
            ric[s, nu] = total
    return ric


# --- charts and registry -----------------------------------------------------

def test_registry_names():
    for name, dim in [("euclidean:3", 3), ("polar2", 2), ("sphere2", 2),
                      ("hyperbolic2", 2), ("minkowski:1+3", 4)]:
        chart = get_chart(name)
        assert chart.dimension == dim
        assert sum(chart.signature) == dim


def test_only_constant_metric_charts_are_flat():
    flat = {"euclidean:1": True, "euclidean:3": True, "minkowski:1+3": True,
            "polar2": False, "sphere2": False, "hyperbolic2": False}
    for name, expected in flat.items():
        chart = get_chart(name)
        assert chart.is_flat is expected, name
        gamma = christoffel_batch(chart, np.full(chart.dimension, 0.7))
        assert bool(np.max(np.abs(gamma)) == 0.0) is expected, name
    # a constant JSON metric is not declared flat; its connection is still zero
    const = chart_from_json({"name": "euclidean:2", "dimension": 2, "signature": [0, 2],
                             "diagonal_entries": ["1", "1"]})
    assert not const.is_flat
    assert np.max(np.abs(christoffel_batch(const, np.array([0.3, 0.2])))) == 0.0


def test_unknown_chart_lists_alternatives():
    with pytest.raises(ConfigError, match="sphere2"):
        get_chart("sphere3")


@pytest.mark.parametrize("name,points", [
    ("polar2", [[0.5, 0.3], [2.0, 1.0]]),
    ("sphere2", [[0.3, 0.1], [1.5, 4.0]]),
    ("hyperbolic2", [[0.3, 0.1], [1.5, 4.0]]),
    ("minkowski:1+3", [[0.0, 1.0, 2.0, 3.0]]),
])
def test_metric_symmetric_and_signature(name, points):
    chart = get_chart(name)
    for x in points:
        g = chart.metric(x)
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert abs(np.linalg.det(g)) > 1e-10
        eig = np.linalg.eigvalsh(g)
        assert (int(np.sum(eig < 0)), int(np.sum(eig > 0))) == chart.signature


def test_valid_region_boundaries():
    sph = get_chart("sphere2")
    assert sph.is_valid([0.06, 1.0])
    assert not sph.is_valid([0.01, 1.0])
    assert not sph.is_valid([np.pi - 0.01, 1.0])
    polar = get_chart("polar2")
    assert not polar.is_valid([1e-4, 0.0])
    with pytest.raises(DomainError):
        christoffel(sph, [0.01, 0.0])


def test_is_valid_gives_one_bool_per_point_whatever_valid_returns(monkeypatch):
    monkeypatch.setattr(charts_module, "_CUSTOM", {})
    register_chart(MetricChart("half-plane", 2, (0, 2), diag=lambda x: np.ones(np.shape(x)),
                               valid=lambda x: (x[..., 0] > 0).astype(int)))
    chart = get_chart("half-plane")
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 5.0]])
    ok = chart.is_valid(pts)
    assert ok.dtype == bool and ok.tolist() == [True, False, True]
    # as a mask it selects points; 0/1 ints would pick rows 1, 0 and 1
    assert pts[ok].tolist() == [[1.0, 0.0], [2.0, 5.0]]
    assert chart.is_valid(pts[None]).shape == (1, 3)
    # the boundary retries read the mask too: every accepted step stays inside
    ens = simulate_manifold_diffusion(chart, None, [0.3, 0.0], T=0.5, dt=0.01, N=50, seed=5)
    assert np.all(ens.paths[..., 0] > 0)
    # one truth value for the whole batch is one per point
    everywhere = MetricChart("plane", 2, (0, 2), diag=lambda x: np.ones(np.shape(x)),
                             valid=lambda x: 1)
    assert everywhere.is_valid(pts).tolist() == [True] * 3


def test_custom_chart_from_json():
    spec = {"name": "cone", "dimension": 2, "signature": [0, 2],
            "diagonal_entries": ["1", "0.25*x0^2"]}
    chart = chart_from_json(spec)
    g = chart.metric([2.0, 0.5])
    assert np.allclose(g, np.diag([1.0, 1.0]))
    # finite-difference christoffel on the custom chart: cone Gamma^r_pp = -r/4
    gam = christoffel_batch(chart, np.array([2.0, 0.5]))
    assert abs(gam[0, 1, 1] + 0.5) < 1e-6


def test_custom_chart_rejects_bad_expression():
    bad = {"name": "evil", "dimension": 1, "signature": [0, 1],
           "diagonal_entries": ["__import__('os')"]}
    with pytest.raises(ConfigError):
        chart_from_json(bad)
    with pytest.raises(ConfigError):
        chart_from_json({"name": "short", "dimension": 2, "signature": [0, 2],
                         "diagonal_entries": ["1"]})


# --- christoffel -------------------------------------------------------------

def test_christoffel_euclidean_zero():
    chart = get_chart("euclidean:3")
    c = christoffel(chart, [0.3, -1.0, 2.0])
    assert np.max(np.abs(c.gamma)) == 0.0


def test_christoffel_polar_plane():
    c = christoffel(get_chart("polar2"), [2.0, 0.7])
    assert abs(c.gamma[0, 1, 1] - (-2.0)) < 1e-10
    assert abs(c.gamma[1, 0, 1] - 0.5) < 1e-10
    assert abs(c.gamma[1, 1, 0] - 0.5) < 1e-10


def test_christoffel_sphere():
    c = christoffel(get_chart("sphere2"), [np.pi / 4, 0.0])
    assert abs(c.gamma[0, 1, 1] - (-0.5)) < 1e-10
    assert abs(c.gamma[1, 0, 1] - 1.0) < 1e-10


def test_christoffel_analytic_vs_fd_paths():
    from dataclasses import replace
    for name in ("polar2", "sphere2", "hyperbolic2"):
        chart = get_chart(name)
        stripped = replace(chart, diag_derivative=None)
        for x in ([0.8, 0.4], [1.7, 2.0]):
            a = christoffel_batch(chart, np.asarray(x))
            b = christoffel_batch(stripped, np.asarray(x))
            assert np.max(np.abs(a - b)) < 1e-4


def test_christoffel_is_exactly_symmetric_in_its_lower_indices():
    # Gamma^k_{ik} and Gamma^k_{ki} come from one d_i g_kk and one factor
    # g^kk / 2, so they are equal to the bit, with analytic or
    # finite-difference metric derivatives
    warped = chart_from_json({"name": "warped3", "dimension": 3, "signature": [0, 3],
                              "diagonal_entries": ["1 + x1^2", "exp(x2)", "cosh(x0) * x1"]})
    charts = [get_chart(name) for name in ("euclidean:3", "polar2", "sphere2",
                                           "hyperbolic2", "minkowski:1+3")] + [warped]
    rng = np.random.default_rng(7)
    for chart in charts:
        g = christoffel_batch(chart, rng.uniform(0.3, 1.2, (64, chart.dimension)))
        assert np.array_equal(g, g.swapaxes(-1, -2)), chart.name


def test_degenerate_metric_raises():
    spec = {"name": "flatline", "dimension": 2, "signature": [0, 2],
            "diagonal_entries": ["1", "x0^2"]}
    chart = chart_from_json(spec)
    with pytest.raises(SingularMetricError):
        christoffel_batch(chart, np.array([0.0, 1.0]))


# --- ricci -------------------------------------------------------------------

def test_ricci_flat_zero():
    r = ricci(get_chart("euclidean:2"), [0.7, -0.3])
    assert np.max(np.abs(r)) < 1e-9


def test_ricci_sphere_equals_metric():
    chart = get_chart("sphere2")
    x = np.array([np.pi / 3, 0.5])
    r = ricci(chart, x)
    assert np.max(np.abs(r - chart.metric(x))) < 1e-4
    assert np.max(np.abs(r - brute_force_ricci(chart, x))) < 1e-4


def test_ricci_hyperbolic_minus_metric():
    chart = get_chart("hyperbolic2")
    x = np.array([0.9, 1.2])
    r = ricci(chart, x)
    assert np.max(np.abs(r + chart.metric(x))) < 1e-4
    assert np.max(np.abs(r - brute_force_ricci(chart, x))) < 1e-4


def test_ricci_symmetry():
    for name, x in [("polar2", [1.3, 0.4]), ("sphere2", [1.0, 2.0]),
                    ("hyperbolic2", [0.7, 0.1])]:
        r = ricci(get_chart(name), np.asarray(x, dtype=float))
        assert np.max(np.abs(r - r.T)) < 1e-8


# --- laplace-beltrami --------------------------------------------------------

def test_laplace_beltrami_1d_parabola():
    chart = get_chart("euclidean:1")
    val = laplace_beltrami(chart, lambda p: p[..., 0] ** 2, [0.4])
    assert abs(val - 2.0) < 1e-6


def test_laplace_beltrami_sphere_harmonic():
    val = laplace_beltrami(get_chart("sphere2"),
                           lambda p: np.cos(p[..., 0]), [1.0, 0.3])
    assert abs(val - (-2.0 * np.cos(1.0))) < 1e-6


def test_laplace_beltrami_chart_invariance():
    # f = x^2 + y^2 expressed in cartesian and polar coordinates
    cart = laplace_beltrami(get_chart("euclidean:2"),
                            lambda p: p[..., 0] ** 2 + p[..., 1] ** 2,
                            [3.0 * np.cos(1.0), 3.0 * np.sin(1.0)])
    polar = laplace_beltrami(get_chart("polar2"),
                             lambda p: p[..., 0] ** 2, [3.0, 1.0])
    assert abs(cart - 4.0) < 1e-4
    assert abs(polar - 4.0) < 1e-4
    assert abs(cart - polar) < 1e-4


# --- torsion and leibniz -----------------------------------------------------

def test_torsion_levi_civita_zero():
    chart = get_chart("sphere2")
    field = levi_civita_field(chart)
    X = lambda p: np.array([1.0, 0.3])
    Y = lambda p: np.array([0.2, -1.0])
    tau = torsion(field, X, Y, np.array([1.1, 0.5]))
    assert np.max(np.abs(tau.components)) < 1e-9


def test_torsion_artificial_connection():
    gamma = np.zeros((3, 3, 3))
    gamma[2, 0, 1] = 0.7
    field = lambda p: gamma
    e0 = lambda p: np.array([1.0, 0.0, 0.0])
    e1 = lambda p: np.array([0.0, 1.0, 0.0])
    x = np.array([0.1, 0.2, 0.3])
    tau = torsion(field, e0, e1, x)
    assert np.allclose(tau.components, [0.0, 0.0, 0.7], atol=1e-9)
    tau_swapped = torsion(field, e1, e0, x)
    assert np.allclose(tau.components + tau_swapped.components, 0.0, atol=1e-12)


def test_leibniz_residual_constant_and_zero_scalar():
    chart = get_chart("polar2")
    field = levi_civita_field(chart)
    X = lambda p: np.array([1.0, 0.0])
    Y = lambda p: np.array([0.0, 1.0])
    x = np.array([1.5, 0.8])
    assert leibniz_residual(field, lambda p: 1.0, X, Y, x) < 1e-9
    assert leibniz_residual(field, lambda p: 0.0, X, Y, x) < 1e-12


def test_leibniz_residual_coordinate_scalar():
    chart = get_chart("polar2")
    field = levi_civita_field(chart)
    X = lambda p: np.array([1.0, 0.0])
    Y = lambda p: np.array([0.0, 1.0])
    res = leibniz_residual(field, lambda p: p[..., 0], X, Y, np.array([1.5, 0.8]))
    assert res < 1e-6
