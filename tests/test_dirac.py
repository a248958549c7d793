"""Gamma-matrix algebra, Clifford relation, plane-wave residuals, and the
finite-difference Dirac operator."""

import json

import numpy as np
import pytest

from fractoid.dirac import (
    ETA_CHART,
    ETA_GAMMA,
    build_gammas,
    clifford_connection_check,
    clifford_relation_check,
    dirac_operator_fd,
    dirac_plane_wave,
    klein_gordon_residual,
    plane_wave_null_space,
)
from fractoid.errors import ParameterError
from fractoid.stochastic import make_stream

G = build_gammas()
EYE = np.eye(4, dtype=complex)


def test_all_anticommutators_exact():
    for mu in range(4):
        for nu in range(4):
            anti = G.gammas[mu] @ G.gammas[nu] + G.gammas[nu] @ G.gammas[mu]
            assert np.array_equal(anti, 2.0 * ETA_GAMMA[mu, nu] * EYE)


def test_gamma0_squared_identity():
    assert np.array_equal(G.gammas[0] @ G.gammas[0], EYE)


def test_gamma5_identities():
    assert np.array_equal(G.gamma5 @ G.gamma5, EYE)
    for mu in range(4):
        anti = G.gamma5 @ G.gammas[mu] + G.gammas[mu] @ G.gamma5
        assert np.max(np.abs(anti)) == 0.0
    block = np.zeros((4, 4), dtype=complex)
    block[0, 2] = block[1, 3] = block[2, 0] = block[3, 1] = 1.0
    assert np.array_equal(G.gamma5, block)


def test_klein_gordon_residuals():
    p0 = np.sqrt(0.09 + 1.0)
    assert klein_gordon_residual([p0, 0.3, 0.0, 0.0], 1.0) < 1e-12
    assert klein_gordon_residual([1.0, 1.0, 0.0, 0.0], 0.0) == 0.0
    assert abs(klein_gordon_residual([2.0, 0.0, 0.0, 0.0], 1.0) - 3.0) < 1e-12


def test_dirac_plane_wave_rest_frame():
    u = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    op = G.slash([1.0, 0.0, 0.0, 0.0]) - EYE
    assert np.linalg.norm(op @ u) <= 1e-14
    sp = dirac_plane_wave([0.0, 0.0, 0.0], 1.0, G)
    assert sp.residual(G) <= 1e-14


def test_dirac_plane_wave_boosted_and_wrong_mass():
    sp = dirac_plane_wave([0.6, 0.0, 0.0], 1.0, G)
    assert sp.residual(G) <= 1e-12
    assert sp.residual(G, mass=2.0) >= 0.5


def test_plane_wave_null_space_dimension():
    for p in ([0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.3, -0.2, 0.5]):
        assert plane_wave_null_space(p, 1.0, G).shape[1] == 2


def test_clifford_relation_basis_and_random():
    assert clifford_relation_check([1, 0, 0, 0], [1, 0, 0, 0], G) == 0.0
    assert clifford_relation_check([0, 1, 0, 0], [0, 0, 1, 0], G) == 0.0
    rng = make_stream(7, 0)
    for _ in range(30):
        r = clifford_relation_check(rng.normal(size=4), rng.normal(size=4), G)
        assert r <= 1e-12


def test_clifford_sign_convention_bridge():
    # the chart pairing is exactly minus the gamma-algebra metric
    assert np.array_equal(ETA_CHART, -ETA_GAMMA)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    assert clifford_relation_check(w, w, G) == 0.0
    # pairing with the gamma-algebra metric instead leaves 4 (w, w) I,
    # Frobenius norm 8
    c = G.clifford(w)
    flipped = c @ c + c @ c + 2.0 * float(w @ ETA_GAMMA @ w) * EYE
    assert abs(np.linalg.norm(flipped) - 8.0) < 1e-12


def test_dirac_operator_constant_spinor():
    field = np.ones((4, 16, 16), dtype=complex)
    out = dirac_operator_fd(field, G, [0.1, 0.1])
    assert np.max(np.abs(out)) == 0.0


def test_dirac_operator_plane_wave_symbol():
    n = 64
    L = 2.0 * np.pi
    h = L / n
    t = np.arange(n) * h
    x = np.arange(n) * h
    T, X = np.meshgrid(t, x, indexing="ij")
    p = np.array([3.0, 2.0, 0.0, 0.0])
    phase = np.exp(-1j * (p[0] * T - p[1] * X))
    u = np.array([1.0, 0.3, -0.2, 0.5], dtype=complex)
    field = u[:, None, None] * phase
    out = dirac_operator_fd(field, G, [h, h])
    # discrete symbol: sin(p h)/h replaces p componentwise
    p_eff = np.array([np.sin(p[0] * h) / h, np.sin(p[1] * h) / h, 0.0, 0.0])
    expect = -1j * (G.slash([0, 0, 0, 0]) * 0
                    + p_eff[0] * G.gammas[0] - 0.0 * G.gammas[1]) @ u
    expect = -1j * (p_eff[0] * G.gammas[0] @ u) + 1j * (p_eff[1] * G.gammas[1] @ u)
    got = out[:, 5, 9] / phase[5, 9]
    assert np.max(np.abs(got - expect)) < 1e-12
    # and the discrete symbol approaches the continuum one at O(h^2)
    assert np.max(np.abs(p_eff[:2] - p[:2])) < p[0] ** 3 * h**2 / 6.0 * 1.01


def test_dirac_squared_is_dalembertian():
    prev = None
    for n in (32, 64, 128):
        L = 2.0 * np.pi
        h = L / n
        ax = np.arange(n) * h
        T, X = np.meshgrid(ax, ax, indexing="ij")
        scal = np.sin(T) * np.cos(2.0 * X)
        u0 = np.array([1.0, 0.5, -0.5, 0.25], dtype=complex)
        field = u0[:, None, None] * scal
        d2 = dirac_operator_fd(dirac_operator_fd(field, G, [h, h]), G, [h, h])
        # eta^{mu nu} d_mu d_nu (sin t cos 2x) = (-1 + 4) sin t cos 2x
        exact = u0[:, None, None] * (3.0 * scal)
        err = np.max(np.abs(d2 - exact))
        if prev is not None:
            assert abs(np.log2(prev / err) - 2.0) < 0.3
        prev = err


def test_clifford_connection_cases():
    x = np.array([0.1, 0.2, -0.3, 0.4])
    X = np.array([1.0, 0.5, -0.3, 0.2])
    const = lambda p: np.array([0.3, -0.1, 0.2, 0.5])
    assert clifford_connection_check(const, X, x, G) < 1e-10
    lin = lambda p: np.array([0.3 * p[0] + 0.1 * p[1], -0.2 * p[0],
                              0.5 * p[2], 0.7 * p[3] + 0.2 * p[0]])
    assert clifford_connection_check(lin, X, x, G) <= 1e-8
    quad = lambda p: np.array([p[0] ** 2, p[1] ** 2 - p[0] * p[2],
                               p[2] * p[3], p[3] ** 2])
    assert clifford_connection_check(quad, X, x, G) <= 1e-6


def test_gamma_export_json():
    payload = json.loads(G.to_json())
    assert payload["convention"] == "dirac-basis"
    g1 = np.array([[complex(re, im) for re, im in row]
                   for row in payload["gammas"][1]])
    assert np.array_equal(g1, G.gammas[1])


def test_shape_validation():
    with pytest.raises(ParameterError):
        dirac_operator_fd(np.ones((3, 8, 8)), G, [0.1, 0.1])
    with pytest.raises(ParameterError):
        klein_gordon_residual([1.0, 0.0], 1.0)
    with pytest.raises(ParameterError):
        dirac_plane_wave([0.1, 0.2], 1.0, G)


@pytest.mark.parametrize("p_vec, m, message", [
    ([0.1, 0.2], 1.0, "3-vector"), ([0.1, 0.2, 0.3], 0.0, "positive"),
    ([0.1, 0.2, 0.3], -1.0, "positive")], ids=["2-vector", "massless", "negative-mass"])
def test_plane_wave_null_space_validates_like_the_plane_wave(p_vec, m, message):
    # a 2-vector raised a bare numpy ValueError, and m <= 0 was accepted
    for fn in (plane_wave_null_space, dirac_plane_wave):
        with pytest.raises(ParameterError, match=message):
            fn(p_vec, m, G)


def test_clifford_map_is_the_gamma_combination():
    w = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.array_equal(G.clifford(w), sum(wm * g for wm, g in zip(w, G.gammas)))
    # the slash lowers the index first
    assert np.array_equal(G.slash(w), G.clifford(ETA_GAMMA @ w))
