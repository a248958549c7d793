"""Bit-exact regression pins for every sampler that draws from counter
streams, for the chart geometry those samplers run on, and for the bin
estimators that condition on the sampled paths.

Each case hashes the raw float64 bytes of a small run.  The digests were
recorded with numpy 2.4 on x86-64 and must not change when the integrators
or the chart representation are refactored: streams are keyed by
(seed, path) or, for Feynman-Kac, by (seed, block), and a boundary retry
redraws from the path's own stream.  The geometry cases pin Christoffel
symbols (analytic and finite-difference metric derivatives) and the
isometric frame transport, whose 2-d inverse and polar factor are closed
form, and the pointwise finite-difference operators built on the chart
connection: Laplace-Beltrami, Ricci, Jacobians, the Euler-Lagrange and
Clifford-connection residuals, and the Ricci correction of the Newton-Nelson
target.  A batch of points must give these operators' per-point bits.  Each
estimator case pins its per-bin counts, values and conditioning means in
one digest and its standard errors in a second, so a change to the variance
reduction alone shows in the latter.
A numpy upgrade that changes its normal sampler
or its vectorised math kernels would change them legitimately;
`python tests/test_pinned_digests.py` with src/ on PYTHONPATH prints the
current digests.
"""

import hashlib

import numpy as np
import pytest

from fractoid import whitenoise as wn
from fractoid.dirac import clifford_connection_check
from fractoid.geodesic import (
    LagrangianSpec,
    classical_geodesic,
    euler_lagrange_residual,
    stochastic_energy,
    stochastic_geodesic_criterion,
)
from fractoid.geometry import (
    chart_from_json,
    christoffel_batch,
    get_chart,
    laplace_beltrami,
    laplacian_fd,
    leibniz_residual,
    levi_civita_field,
    ricci,
    ricci_operator,
    richardson_derivative,
    torsion,
    vector_jacobian_fd,
)
from fractoid.meanderiv import (
    EstimatorConfig,
    covariant_mean_derivative,
    estimate_velocity_fields,
    quadratic_variation_matrix,
    relativistic_mean_derivatives,
    ricci_correction,
    spacelike_fraction,
)
from fractoid.nelson import feynman_kac_semigroup, quadratic_variation_law
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    frame_bundle_simulate,
    generator_apply,
    integrator,
    make_stream,
    orthonormal_frame,
    simulate_ito,
    simulate_manifold_diffusion,
    simulate_stratonovich,
)
from fractoid.stochastic.manifold import transport_matrix_isometric

SEED = 2718

# a JSON chart has no analytic metric derivative: finite differences
CONE = {"name": "cone", "dimension": 2, "signature": [0, 2],
        "diagonal_entries": ["1", "0.25*x0^2 + 0.1"]}
# a 3-d JSON chart whose every entry varies
WARP3 = {"name": "warp3", "dimension": 3, "signature": [0, 3],
         "diagonal_entries": ["1 + 0.1*x2^2", "x0^2 + 0.5", "exp(0.3*x1)*(1 + 0.2*x0^2)"]}


def _points(lo, hi, n=64):
    """n fixed points, uniform in the box [lo, hi)."""
    rng = np.random.default_rng(SEED)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((n, len(lo)))


def _ito():
    spec = ItoProcessSpec(drift=lambda t, x: -x + np.sin(t), diffusion_const=0.8,
                          dimension=2)
    # N > 4096: the paths span two 4096-path blocks
    return simulate_ito(spec, [0.3, -0.1], T=0.05, dt=0.01, N=4500, seed=SEED).paths


def _stratonovich():
    def G(t, x):
        return np.stack([np.stack([x[:, 0], np.ones(len(x))], axis=-1),
                         np.stack([np.zeros(len(x)), x[:, 1]], axis=-1)], axis=1)

    return simulate_stratonovich(lambda t, x: np.cos(x), G, [1.0, 0.5], T=0.2,
                                 dt=0.01, N=64, seed=SEED).paths


def _sphere_near_pole():
    # start close to the pole so reject-and-resample fires
    return simulate_manifold_diffusion(get_chart("sphere2"), None, [0.12, 0.0],
                                       T=0.1, dt=0.002, N=200, seed=SEED).paths


def _minkowski():
    chart = get_chart("minkowski:1+3")
    return simulate_manifold_diffusion(chart, lambda t, x: 0.1 * x, np.zeros(4),
                                       T=0.05, dt=0.01, N=32, seed=SEED).paths


def _frame_bundle():
    chart = get_chart("sphere2")
    x0 = np.array([0.15, 0.3])
    fb = frame_bundle_simulate(chart, x0, FrameState(x0, orthonormal_frame(chart, x0)),
                               T=0.1, dt=0.002, N=100, seed=SEED, report_every=20)
    return np.concatenate([fb.base_paths.ravel(), fb.frames.ravel()])


def _christoffel():
    cases = [("polar2", [0.2, -3.0], [4.0, 3.0]),
             ("hyperbolic2", [0.1, -3.0], [2.5, 3.0]),
             ("sphere2", [0.1, -3.0], [3.0, 3.0]),
             ("minkowski:1+3", [-2.0] * 4, [2.0] * 4)]
    out = [christoffel_batch(get_chart(name), _points(lo, hi)).ravel()
           for name, lo, hi in cases]
    out.append(christoffel_batch(chart_from_json(CONE),
                                 _points([0.2, -3.0], [3.0, 3.0])).ravel())
    return np.concatenate(out)


def _transport():
    out = []
    for name, lo, hi in (("sphere2", [0.3, -3.0], [2.8, 3.0]),
                         ("hyperbolic2", [0.3, -3.0], [2.0, 3.0])):
        x_from = _points(lo, hi)
        x_to = x_from + 0.05 * np.random.default_rng(SEED + 1).normal(size=x_from.shape)
        out.append(transport_matrix_isometric(get_chart(name), x_from, x_to).ravel())
    return np.concatenate(out)


def _manifold_json():
    return simulate_manifold_diffusion(chart_from_json(CONE), None, [1.0, 0.0],
                                       T=0.1, dt=0.002, N=100, seed=SEED).paths


def _operator_charts():
    """(chart, lo, hi): the charts the pointwise operators are pinned on."""
    return ((get_chart("polar2"), [0.3, -3.0], [3.0, 3.0]),
            (get_chart("sphere2"), [0.2, -3.0], [2.9, 3.0]),
            (get_chart("hyperbolic2"), [0.1, -3.0], [2.0, 3.0]),
            (chart_from_json(CONE), [0.2, -3.0], [3.0, 3.0]),
            (chart_from_json(WARP3), [-1.0] * 3, [1.0] * 3))


def _geometry_operators():
    f = lambda p: np.sin(p[..., 0]) * np.cos(p[..., -1]) + p[..., 0] ** 2 * p[..., -1]
    out = []
    for chart, lo, hi in _operator_charts():
        for x in _points(lo, hi, 6):
            out += [laplace_beltrami(chart, f, x), ricci_operator(chart, x).ravel()]

    V = lambda p: np.stack([np.sin(p[..., 0] * p[..., 1]),
                            np.exp(0.3 * p[..., 0]) - p[..., 1] ** 3], axis=-1)
    W = lambda p: np.stack([np.cos(p[..., 1]), p[..., 0] * p[..., 1]], axis=-1)
    pts = _points([0.5, -1.0], [2.5, 1.0], 16)
    out += [vector_jacobian_fd(V, pts[0]).ravel(), vector_jacobian_fd(V, pts).ravel(),
            laplacian_fd(V, pts[1]), richardson_derivative(V, pts[2], 1, 1e-3)]

    sph = get_chart("sphere2")
    field = levi_civita_field(sph)
    for x in pts[3:6]:
        out += [generator_apply(sph, None, f, x), generator_apply(sph, W, f, x),
                torsion(field, V, W, x).components,
                leibniz_residual(field, f, V, W, x)]

    geod = classical_geodesic(sph, [1.1, 0.2], [0.3, 0.45], T=0.2, dt=0.01)
    spec = LagrangianSpec(potential=lambda x: np.sin(x[..., 0]) * x[..., 1] ** 2, mass=1.3)
    out.append(euler_lagrange_residual(sph, geod, spec).ravel())

    omega = lambda x: np.array([np.sin(x[0]), x[1] * x[2], np.exp(0.2 * x[3]), x[0] ** 2])
    for x in _points([-1.0] * 4, [1.0] * 4, 3):
        out.append(clifford_connection_check(omega, [0.3, -0.5, 0.2, 1.1], x))

    # the criterion's analytic residual on a curved chart, and the
    # quadratic-variation target eps^2 g^{-1}
    w = lambda t, x: np.stack([0.1 * np.sin(x[..., 0]) + t, 0.2 * x[..., 1]], axis=-1)
    crit = stochastic_geodesic_criterion(sph, w, _ensemble("sphere2"), _sphere_cfg())
    law = quadratic_variation_law(_ensemble("sphere2"), _sphere_cfg(), chart=sph)
    out += [crit.analytic_residual, law.target.ravel()]
    return _bins(*out)


def _ricci_correction():
    # the curvature term of the Newton-Nelson target on the sphere's bins
    field = estimate_velocity_fields(_ensemble("sphere2"), _sphere_cfg())
    return _bins(ricci_correction(get_chart("sphere2"), field, hbar_over_m=0.7))


def _feynman_kac():
    # N > 4096: two blocks, each with its own (seed, block) stream
    est = feynman_kac_semigroup(lambda x: 0.5 * np.sum(x**2, axis=-1),
                                lambda x: np.exp(-np.sum(x**2, axis=-1)),
                                0.05, [0.2], N=5000, seed=SEED, dt=0.01)
    return np.array(est)


def _covariance_check():
    lat = wn.SpaceTimeLattice(t_extent=0.5, dt=0.1, half_width=0.5, dx=0.25, d=1)
    bump = wn.make_test_function("bump(0.1,0.3)")
    box = wn.make_test_function("indicator(0.0,0.5)")
    return np.array(wn.covariance_check(lat, bump, box, 300, SEED))


# --- estimators: each case returns (count + values + cond_mean, se) ---------

def _bins(*arrays):
    """Raveled float64 concatenation with every NaN made the same NaN, so
    the digest does not depend on how an empty bin's NaN was produced."""
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return np.where(np.isnan(flat), np.nan, flat)


_ENSEMBLES = {}


def _ensemble(name):
    if name not in _ENSEMBLES:
        if name == "ou":
            spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0,
                                  dimension=1)
            x0 = make_stream(SEED, 1 << 32).normal(0.0, np.sqrt(0.5), (3000, 1))
            ens = simulate_ito(spec, x0, T=0.4, dt=0.01, N=3000, seed=SEED)
        elif name == "ou2":
            spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.7,
                                  dimension=2)
            x0 = make_stream(SEED, 1 << 32).normal(0.0, 0.5, (2000, 2))
            ens = simulate_ito(spec, x0, T=0.2, dt=0.01, N=2000, seed=SEED)
        elif name == "minkowski":
            # coarse steps so both causal classes are populated
            ens = simulate_manifold_diffusion(get_chart("minkowski:1+3"), None,
                                              np.zeros(4), T=4.0, dt=0.5, N=800,
                                              seed=SEED)
        else:
            ens = simulate_manifold_diffusion(get_chart("sphere2"), None, [1.35, 0.0],
                                              T=0.1, dt=0.005, N=600, seed=SEED)
        _ENSEMBLES[name] = ens
    return _ENSEMBLES[name]


def _ou_cfg(lag=1):
    return EstimatorConfig.regular((0.0, 0.4), 4, (-1.5, 1.5), 6, min_count=20,
                                   lag=lag)


def _sphere_cfg(lag=1):
    return EstimatorConfig.regular((0.0, 0.1), 2, [(1.25, 1.45), (-0.3, 0.3)],
                                   [2, 1], dim=2, min_count=20, lag=lag)


def _binned(f):
    return _bins(f.count, f.values, f.cond_mean), _bins(f.se)


def _velocity(lag):
    f = estimate_velocity_fields(_ensemble("ou"), _ou_cfg(lag))
    return (_bins(f.count, f.forward, f.backward, f.current, f.osmotic, f.cond_mean),
            _bins(f.forward_se, f.backward_se, f.velocity_se))


def _quadratic_variation():
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-1.0, 1.0), 3, dim=2, min_count=20)
    parts = [_binned(quadratic_variation_matrix(_ensemble("ou2"), cfg, direction=d))
             for d in ("forward", "backward")]
    return _bins(*(p[0] for p in parts)), _bins(*(p[1] for p in parts))


def _relativistic():
    cfg = EstimatorConfig(time_edges=[0.0, 2.0, 4.0],
                          space_edges=(np.linspace(0.0, 4.0, 3),
                                       *[np.linspace(-4.0, 4.0, 2)] * 3),
                          min_count=10)
    parts = [_binned(f) for f in relativistic_mean_derivatives(_ensemble("minkowski"), cfg)]
    return _bins(*(p[0] for p in parts)), _bins(*(p[1] for p in parts))


def _covariant(out):
    (mc, mc_se), (dr, dr_se) = _binned(out.monte_carlo), _binned(out.drift)
    return _bins(mc, out.analytic, dr), _bins(mc_se, dr_se)


def _covariant_euclidean():
    X = lambda t, x: np.sin(x) + t
    parts = [_covariant(covariant_mean_derivative(get_chart("euclidean:1"), _ensemble("ou"),
                                                  X, _ou_cfg(), direction=d))
             for d in ("forward", "backward")]
    return _bins(*(p[0] for p in parts)), _bins(*(p[1] for p in parts))


def _covariant_sphere():
    X = lambda t, x: np.stack([np.ones_like(x[..., 0]), 0.5 * x[..., 0]], axis=-1)
    ens = _ensemble("sphere2")
    parts = [_covariant(covariant_mean_derivative(get_chart("sphere2"), ens, X,
                                                  _sphere_cfg(lag=2), direction=d))
             for d in ("forward", "backward")]
    return _bins(*(p[0] for p in parts)), _bins(*(p[1] for p in parts))


def _stochastic_energy():
    # both values mix bin values with bin standard errors
    energies = [stochastic_energy(_ensemble("ou"), get_chart("euclidean:1"), _ou_cfg()),
                stochastic_energy(_ensemble("sphere2"), get_chart("sphere2"), _sphere_cfg())]
    return _bins([]), _bins(energies)


def _spacelike_fraction():
    # integer counts of spacelike increments over their total, per lag
    fractions = [spacelike_fraction(_ensemble("minkowski"), lag) for lag in (1, 2)]
    return _bins(fractions), _bins([])


ESTIMATOR_CASES = {
    "velocity_fields_lag1": lambda: _velocity(1),
    "velocity_fields_lag2": lambda: _velocity(2),
    "quadratic_variation_2d": _quadratic_variation,
    "relativistic_minkowski": _relativistic,
    "covariant_euclidean": _covariant_euclidean,
    "covariant_sphere": _covariant_sphere,
    "stochastic_energy": _stochastic_energy,
    "spacelike_fraction": _spacelike_fraction,
}


CASES = {
    "simulate_ito": _ito,
    "simulate_stratonovich": _stratonovich,
    "manifold_sphere_near_pole": _sphere_near_pole,
    "manifold_minkowski": _minkowski,
    "frame_bundle_sphere": _frame_bundle,
    "christoffel_charts": _christoffel,
    "transport_isometric": _transport,
    "manifold_json_chart": _manifold_json,
    "feynman_kac": _feynman_kac,
    "covariance_check": _covariance_check,
    "geometry_operators": _geometry_operators,
    "ricci_correction": _ricci_correction,
}

# sha256 of the float64 bytes, recorded before the integrator core refactor
DIGESTS = {
    "simulate_ito": "80240b4d17ac44eee47921629281e2e6c31b1e0e726918af5a3a598b1c9df28f",
    "simulate_stratonovich": "6abbfe1d337a361e80f908fc06b6bbe97e157cbf824d083c611859c0f51fada6",
    "manifold_sphere_near_pole":
        "6512598c4e5b3a6a48962704604d481cd94d90ee197f498c06b89297842769d4",
    "manifold_minkowski": "908efb3309212aec2379699d86f94ae22c64dc320f40a86d3fa3fc6c3d1dbdd3",
    # re-recorded when the frame transport took its polar factor in closed
    # form instead of by SVD: largest relative change 2.0e-13
    "frame_bundle_sphere": "fec53c79c89b80c69da29560322ffea7b000fc740d4b01d65495af98a83cebff",
    # re-recorded when the standard error moved to squares about the first
    # weight: the estimate kept its bits, the se moved by 9.8e-16 relative
    "feynman_kac": "d978abb361b726045d0e6d6101fd257908c57eddbf919c0009232d7df9bb04ad",
    "covariance_check": "395bd1b111d306f38bc5ef7ca6daf58e0b83170635c0dd259c0630790b3d3dff",
    # recorded before charts carried their metric as a diagonal
    "christoffel_charts": "b5ab9d6ccc4673b48fbbecd3ef80e757c7e7cd70a603d5e07b5dd04b5158e320",
    # re-recorded with the closed-form 2-d inverse and polar factor that
    # replaced LAPACK's solve and SVD: largest relative change 2.1e-13
    "transport_isometric": "d315a36054c3a984cc027d1f1bdabaff685a160d3f81e929bf6705398578b42d",
    "manifold_json_chart": "6466fc5d42f00b87a2c96c6b6ab75b33384e55467468c2ccb2ae09c082efc1b6",
    # recorded before the finite-difference stencils became one pair of
    # primitives and the inverse metric its diagonal
    "geometry_operators": "b8710382873f9315d6dc051eb59f461f7335ebec89a63090051d04bb1d7ad7a0",
    # recorded before ricci_correction took its Ricci operators in one batch
    "ricci_correction": "630107c45cf7e0cb5dc72c01a1a45c35e38e1cc4c837ed9fc19992f80e5c4c6f",
}


# (count + values + cond_mean, se) per estimator case.  The first digest was
# recorded before the estimators shared one bin index; the second when the
# per-bin variance moved to squares about each bin's first sample in one
# sweep.  Largest relative change of the se, per case: velocity_fields_lag1
# 7.9e-15, velocity_fields_lag2 7.6e-15, quadratic_variation_2d 1.03e-14,
# relativistic_minkowski 1.8e-15, covariant_euclidean 9.4e-15,
# covariant_sphere 2.4e-15, stochastic_energy 6.5e-16
ESTIMATOR_DIGESTS = {
    "covariant_euclidean":
        ("fbc0fa516b6f2c3bba64b31ce39647b0e86b0c599d9904c26ccb7c333e41725d",
         "8ba4082dc0a4a5cb520f1fa80c77cc844a7b4ef43007e8efb9413054bd74e5d9"),
    # re-recorded when transport_steps moved to the closed-form 2-d
    # inverse: largest relative change 2.3e-14 (values), 6.9e-16 (se)
    "covariant_sphere":
        ("472228cd8cf9bd4f98a9c4b9ad59d1b177f72830e4c0b006f49e160d612628da",
         "0dc304a7794586134eb74954d93eae0b632593da00de5b1d43c7a2dd6f37e208"),
    "quadratic_variation_2d":
        ("a486467ce0a03221c1825222ab5f9f6763fe0e20ad3d646cf56c873ad5e3c353",
         "20d77f4de3a94526c1302bebf6cbf0898b81ee5db43ec946540655f85b849207"),
    "relativistic_minkowski":
        ("029e49e81ff7d4375fbbaef50db1c694e5e3770c291f52b589d7352a02b45648",
         "1c81d00b3f0a9fa5b008d446eecf5a917acd54dd03a57e8697c4b8f53fac22c6"),
    "spacelike_fraction":
        ("619299f1cef43f0e55e9dc791968771d0220c0e4f3b9daa136cb570853b11dde",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "stochastic_energy":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "cec1beaec6539610673fa38eeef235d058652a69b29e881efd923273ac5ca144"),
    "velocity_fields_lag1":
        ("857f1844525e83ef206f63b21467d47d9f603ff0d1c3f6e2c97e840b303dc341",
         "e0995aedf7f2b65d075b7c91a04b5e0ee77ea1b96f05db59d129bb28e0821b3a"),
    "velocity_fields_lag2":
        ("dc6cd66ce0223828825a37a13c40ec16a23c2841503047a52ec4f86abdaa1368",
         "44421f594d52679ca71d7916036ae35a7b72add3d9d63ac2137f1d0b74c3c536"),
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()
                          ).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    assert digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ESTIMATOR_CASES))
def test_pinned_estimator_digest(name):
    bins, se = ESTIMATOR_CASES[name]()
    assert (digest(bins), digest(se)) == ESTIMATOR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ESTIMATOR_CASES))
def test_estimator_digest_independent_of_block_size(name, monkeypatch):
    # the pinned ensembles hold at most 3000 paths, one block at the default
    # size; 7-path blocks make every sum cross hundreds of block boundaries
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
    bins, se = ESTIMATOR_CASES[name]()
    assert (digest(bins), digest(se)) == ESTIMATOR_DIGESTS[name]


@pytest.mark.parametrize("case", range(5),
                         ids=["polar2", "sphere2", "hyperbolic2", "cone", "warp3"])
def test_pointwise_operators_batch_bits(case):
    # a (2, 3, n) batch gives the stacked per-point values, byte for byte
    chart, lo, hi = _operator_charts()[case]
    pts = _points(lo, hi, 6)
    F = lambda p: np.stack([np.sin(p[..., 0]) * p[..., -1], np.exp(0.2 * p[..., -1])],
                           axis=-1)
    for op in (lambda x: ricci(chart, x), lambda x: ricci_operator(chart, x),
               lambda x: laplacian_fd(F, x)):
        batch = op(pts.reshape(2, 3, -1))
        single = np.stack([op(x) for x in pts])
        assert batch.shape == (2, 3) + single.shape[1:]
        assert batch.tobytes() == single.tobytes()


def test_feynman_kac_se_stable_under_large_offset():
    # E[w^2] - mean^2 cancelled to se = 0 at an offset of 1e8; squares about
    # the first weight keep the exact sqrt(t / N) = 1.105e-2.  The
    # estimates are the bits recorded before the variance changed.
    zero = lambda x: np.zeros(x.shape[:-1])
    (plain, se_plain), (shifted, se_shifted) = (
        feynman_kac_semigroup(zero, lambda x, c=c: c + x[..., 0], 1.0, [0.0],
                              N=8192, seed=1234, dt=0.01)
        for c in (0.0, 1e8))
    assert (plain.hex(), shifted.hex()) == ("-0x1.0924c60accfe1p-8",
                                            "0x1.7d783fffbdb6dp+26")
    assert abs(se_plain - np.sqrt(1.0 / 8192)) <= 0.05 * np.sqrt(1.0 / 8192)
    assert se_shifted == pytest.approx(se_plain, rel=1e-6)


if __name__ == "__main__":
    for name in sorted(CASES):
        print(name, digest(CASES[name]()))
    for name in sorted(ESTIMATOR_CASES):
        print(name, tuple(digest(part) for part in ESTIMATOR_CASES[name]()))
