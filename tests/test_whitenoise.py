"""Lattice white noise, Paley-Wiener integration, covariance structure,
and the signature-aware inner product."""

import numpy as np
import pytest

from fractoid.errors import ParameterError, ResourceError
from fractoid.stochastic import integrator, make_stream
from fractoid.whitenoise import (
    SpaceTimeLattice,
    WhiteNoiseSample,
    covariance_check,
    lattice_inner_product,
    make_test_function,
    paley_wiener_integral,
    paley_wiener_samples,
    sample_white_noise,
    signature_inner_product,
)

SEED = 246
LAT = SpaceTimeLattice(t_extent=1.0, dt=0.25, half_width=1.0, dx=0.5, d=2)


def test_sampling_law_moments():
    lat = SpaceTimeLattice(t_extent=1.0, dt=0.5, half_width=0.5, dx=0.5, d=1)
    n = 10_000
    sigma2 = 1.0 / lat.cell_volume
    cell = np.empty(n)
    other = np.empty(n)
    for i in range(n):
        s = sample_white_noise(lat, seed=SEED + i)
        cell[i] = s.values[0, 0]
        other[i] = s.values[1, 1]
    assert abs(cell.mean()) < 3.0 * np.sqrt(sigma2 / n)
    assert abs(cell.var() / sigma2 - 1.0) < 0.05
    cov = np.mean(cell * other) - cell.mean() * other.mean()
    assert abs(cov) < 3.0 * sigma2 / np.sqrt(n)


def test_sampling_deterministic_and_roundtrip(tmp_path):
    a = sample_white_noise(LAT, seed=SEED)
    b = sample_white_noise(LAT, seed=SEED)
    assert np.array_equal(a.values, b.values)
    p = tmp_path / "noise.bin"
    a.write(p)
    back = WhiteNoiseSample.read(p)
    assert np.array_equal(back.values, a.values)
    assert back.lattice == a.lattice and back.seed == a.seed


def test_read_rejects_truncated_file(tmp_path):
    p = tmp_path / "noise.bin"
    sample_white_noise(LAT, seed=SEED).write(p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ParameterError, match="noise.bin"):
        WhiteNoiseSample.read(p)


@pytest.mark.parametrize("kw, message", [
    (dict(dt=0.3), "t_extent=1.0 is not an integer multiple of dt=0.3"),
    (dict(dx=0.3), "2\\*half_width=2.0 is not an integer multiple of dx=0.3"),
], ids=["dt", "dx"])
def test_lattice_steps_must_divide_the_extents(kw, message):
    # rounded counts gave a (3, 7) lattice whose cells cover t in [0, 0.9]
    # and x in [-1, 1.1]
    with pytest.raises(ParameterError, match=message):
        SpaceTimeLattice(**{**dict(t_extent=1.0, dt=0.25, half_width=1.0, dx=0.25, d=1),
                            **kw})


def test_cell_cap():
    lat = SpaceTimeLattice(t_extent=1.0, dt=0.001, half_width=10.0, dx=0.01,
                           d=3, cell_cap=10_000)
    with pytest.raises(ResourceError):
        sample_white_noise(lat, seed=1)


def test_paley_wiener_zero_and_linearity():
    s = sample_white_noise(LAT, seed=SEED)
    assert paley_wiener_integral(s, np.zeros(LAT.shape)) == 0.0
    bump = make_test_function("bump(0.0,0.4)")(LAT.mesh())
    rng = make_stream(SEED, 5)
    v = rng.normal(size=LAT.shape)
    lhs = paley_wiener_integral(s, 2.0 * bump + 3.0 * v)
    rhs = 2.0 * paley_wiener_integral(s, bump) + 3.0 * paley_wiener_integral(s, v)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_paley_wiener_isometry_variance():
    bump = make_test_function("bump(0.2,0.35)")(LAT.mesh())
    n = 10_000
    vals = np.empty(n)
    for i in range(n):
        s = sample_white_noise(LAT, seed=1_000_000 + i)
        vals[i] = paley_wiener_integral(s, bump)
    norm2 = lattice_inner_product(LAT, bump, bump)
    assert abs(vals.var(ddof=1) / norm2 - 1.0) < 0.05


def test_covariance_disjoint_supports():
    mesh = LAT.mesh()
    left = (mesh[..., 1] <= -0.2).astype(float)
    right = (mesh[..., 1] >= 0.2).astype(float)
    assert float(np.sum(left * right)) == 0.0
    _, z = covariance_check(LAT, left, right, 2000, seed=SEED)
    assert abs(z) <= 3.0


def test_covariance_same_bump():
    bump = make_test_function("bump(0.0,0.35)")(LAT.mesh())
    cov, z = covariance_check(LAT, bump, bump, 2000, seed=SEED + 1)
    assert abs(z) <= 3.0
    assert abs(cov - lattice_inner_product(LAT, bump, bump)) \
        <= 0.2 * lattice_inner_product(LAT, bump, bump)


def test_covariance_overlapping_bumps():
    m = LAT.mesh()
    w = np.exp(-np.sum((m - 0.1) ** 2, axis=-1) / 0.25)
    v = np.exp(-np.sum((m + 0.1) ** 2, axis=-1) / 0.25)
    cov, z = covariance_check(LAT, w, v, 3000, seed=SEED + 2)
    assert abs(z) <= 3.0
    assert cov > 0.0


def test_covariance_needs_enough_samples():
    with pytest.raises(ParameterError):
        covariance_check(LAT, np.ones(LAT.shape), np.ones(LAT.shape), 10, seed=1)


def test_test_function_values_of_the_wrong_shape_are_rejected():
    # the callable's (4, 4, 4, 1) values broadcast against g's (4, 4, 4) to a
    # (4, 4, 4, 4) product, which summed to 3.107 in place of 0.874
    f = lambda m: np.exp(-np.sum(m**2, axis=-1, keepdims=True))
    g = np.exp(-np.sum(LAT.mesh() ** 2, axis=-1))
    match = (r"^test function returned shape \(4, 4, 4, 1\) for points of shape "
             r"\(4, 4, 4, 3\); expected \(4, 4, 4\)$")
    with pytest.raises(ParameterError, match=match):
        lattice_inner_product(LAT, f, g)
    with pytest.raises(ParameterError, match=match):
        paley_wiener_samples(LAT, [f], 10, SEED)


def test_gaussian_isometry_orthonormal_family():
    mesh = LAT.mesh()
    fams = [np.ones(LAT.shape), np.sin(2 * np.pi * mesh[..., 0]),
            np.sin(np.pi * mesh[..., 1]), np.sin(np.pi * mesh[..., 2])]
    fams = [f / np.sqrt(lattice_inner_product(LAT, f, f)) for f in fams]
    gram_exact = np.array([[lattice_inner_product(LAT, a, b) for b in fams]
                           for a in fams])
    assert np.max(np.abs(gram_exact - np.eye(4))) < 1e-12
    n = 4000
    W = np.empty((n, 4))
    sigma = 1.0 / np.sqrt(LAT.cell_volume)
    for i in range(n):
        noise = make_stream(SEED + 3, i).normal(0.0, sigma, size=LAT.shape)
        W[i] = [np.sum(f * noise) * LAT.cell_volume for f in fams]
    gram = W.T @ W / n
    se = np.sqrt((1.0 + np.eye(4)) / n)
    assert np.max(np.abs(gram - np.eye(4)) / se) <= 3.0


@pytest.mark.parametrize("per_block", [7, None], ids=["7-sample blocks", "default"])
def test_paley_wiener_samples_sum_each_sample_alone(per_block, monkeypatch):
    # a row sum over a block of lattices has the bits of np.sum over the
    # one sample's lattice, whatever the block size
    if per_block is not None:
        monkeypatch.setattr(integrator, "CHUNK_VALUES", per_block * LAT.n_cells)
    fns = [make_test_function("bump(0.0,0.4)")(LAT.mesh()),
           make_stream(SEED, 9).normal(size=LAT.shape)]
    n = 30
    sigma = 1.0 / np.sqrt(LAT.cell_volume)
    ref = np.empty((n, 2))
    for i in range(n):
        noise = make_stream(SEED + 4, i).normal(0.0, sigma, size=LAT.shape)
        ref[i] = [np.sum(f * noise) * LAT.cell_volume for f in fns]
    assert paley_wiener_samples(LAT, fns, n, SEED + 4).tobytes() == ref.tobytes()


def test_refinement_consistency():
    # halving dx changes Var(W_w) for a fixed smooth bump by <= 2%
    def variance_on(lat):
        bump = make_test_function("bump(0.0,0.4)")(lat.mesh())
        return lattice_inner_product(lat, bump, bump)

    coarse = SpaceTimeLattice(t_extent=1.0, dt=0.125, half_width=1.0, dx=0.25, d=2)
    fine = SpaceTimeLattice(t_extent=1.0, dt=0.125, half_width=1.0, dx=0.125, d=2)
    v1 = variance_on(coarse)
    v2 = variance_on(fine)
    assert abs(v2 / v1 - 1.0) <= 0.02


def test_signature_inner_product_examples():
    assert signature_inner_product([1, 0, 0, 0, 0], [1, 0, 0, 0, 0], 1) == 1.0
    assert signature_inner_product([0, 0, 0, 0, 1], [0, 0, 0, 0, 1], 1) == -1.0
    assert signature_inner_product([1, 0, 0], [0, 1, 0], 1) == 0.0
    with pytest.raises(ParameterError):
        signature_inner_product([1, 2], [1, 2, 3], 1)
    with pytest.raises(ParameterError):
        signature_inner_product([1, 2], [1, 2], 5)


def test_test_function_registry():
    bump = make_test_function("bump(0.5,0.1)")
    box = make_test_function("indicator(0.0,0.5)")
    mesh = LAT.mesh()
    assert bump(mesh).shape == LAT.shape
    vals = box(mesh)
    assert set(np.unique(vals)) <= {0.0, 1.0}
    with pytest.raises(Exception):
        make_test_function("unknown(1)")
