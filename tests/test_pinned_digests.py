"""Bit-exact regression pins for every sampler that draws from counter
streams, for the chart geometry those samplers run on, and for the bin
estimators that condition on the sampled paths.

Each case hashes the raw float64 bytes of a small run.  The digests were
recorded with numpy 2.4 on x86-64 and must not change when the integrators
or the chart representation are refactored: streams are keyed by
(seed, path) or, for Feynman-Kac, by (seed, block), and a boundary retry
redraws from the path's own stream.  The geometry cases pin Christoffel
symbols (analytic and finite-difference metric derivatives) and the
isometric frame transport, whose bits also depend on how the BLAS build
solves diagonal systems.  Each estimator case pins its per-bin counts,
values and conditioning means in one digest and its standard errors in a
second, so a change to the variance reduction alone shows in the latter.
A numpy upgrade that changes its normal sampler
or its vectorised math kernels would change them legitimately;
`python tests/test_pinned_digests.py` with src/ on PYTHONPATH prints the
current digests.
"""

import hashlib

import numpy as np
import pytest

from fractoid import whitenoise as wn
from fractoid.geodesic import stochastic_energy
from fractoid.geometry import chart_from_json, christoffel_batch, get_chart
from fractoid.meanderiv import (
    EstimatorConfig,
    covariant_mean_derivative,
    estimate_velocity_fields,
    quadratic_variation_matrix,
    relativistic_mean_derivatives,
)
from fractoid.nelson import feynman_kac_semigroup
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    frame_bundle_simulate,
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
    energies = [stochastic_energy(_ensemble("ou"), get_chart("euclidean:1"), None,
                                  _ou_cfg()),
                stochastic_energy(_ensemble("sphere2"), get_chart("sphere2"), None,
                                  _sphere_cfg())]
    return _bins([]), _bins(energies)


ESTIMATOR_CASES = {
    "velocity_fields_lag1": lambda: _velocity(1),
    "velocity_fields_lag2": lambda: _velocity(2),
    "quadratic_variation_2d": _quadratic_variation,
    "relativistic_minkowski": _relativistic,
    "covariant_euclidean": _covariant_euclidean,
    "covariant_sphere": _covariant_sphere,
    "stochastic_energy": _stochastic_energy,
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
}

# sha256 of the float64 bytes, recorded before the integrator core refactor
DIGESTS = {
    "simulate_ito": "80240b4d17ac44eee47921629281e2e6c31b1e0e726918af5a3a598b1c9df28f",
    "simulate_stratonovich": "6abbfe1d337a361e80f908fc06b6bbe97e157cbf824d083c611859c0f51fada6",
    "manifold_sphere_near_pole":
        "6512598c4e5b3a6a48962704604d481cd94d90ee197f498c06b89297842769d4",
    "manifold_minkowski": "908efb3309212aec2379699d86f94ae22c64dc320f40a86d3fa3fc6c3d1dbdd3",
    "frame_bundle_sphere": "0dab543473fda0bac7ee5531aafdb54ffe3470ed3bcca36023f8717a5b7eabc9",
    "feynman_kac": "cbaa4526d24897a58697140399a09ee21bc61d096b48c7cc99e071f0068b5ca4",
    "covariance_check": "395bd1b111d306f38bc5ef7ca6daf58e0b83170635c0dd259c0630790b3d3dff",
    # recorded before charts carried their metric as a diagonal
    "christoffel_charts": "b5ab9d6ccc4673b48fbbecd3ef80e757c7e7cd70a603d5e07b5dd04b5158e320",
    "transport_isometric": "a083a692e1ab5b822d98bb08758bb368612f368a596477b691897c6062ae5054",
    "manifold_json_chart": "6466fc5d42f00b87a2c96c6b6ab75b33384e55467468c2ccb2ae09c082efc1b6",
}


# (count + values + cond_mean, se) per estimator case.  The first digest was
# recorded before the estimators shared one bin index; the second after the
# per-bin variance moved to a second pass about the bin mean, which changed
# these standard errors by at most 3.6e-15 relative
ESTIMATOR_DIGESTS = {
    "covariant_euclidean":
        ("fbc0fa516b6f2c3bba64b31ce39647b0e86b0c599d9904c26ccb7c333e41725d",
         "fac52c4576967365265cfa3743edc1f8f0d70b5bec47ebe1652dcc2d4507191e"),
    "covariant_sphere":
        ("3a252a7049cc507e14770eac076fe5a3d1e31b1608a99058e3e96961d3521903",
         "eb1549f7f784d4db6ff8e90f02d506adcbb445d7ce86b6c186f40785d81cf375"),
    "quadratic_variation_2d":
        ("a486467ce0a03221c1825222ab5f9f6763fe0e20ad3d646cf56c873ad5e3c353",
         "d8fa32bf72172ed8962f8b56d87bcdd66574f9f4ec818c6a59ae7b2b3e4546b7"),
    "relativistic_minkowski":
        ("029e49e81ff7d4375fbbaef50db1c694e5e3770c291f52b589d7352a02b45648",
         "e57fd085ee5bee101f9df3c4b53b6152653a61ac63bcdf17457b381cdbb98fd6"),
    "stochastic_energy":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "07497a06886e963dac487d54b7d4c5173810f13c7845ededba18ce921106c02d"),
    "velocity_fields_lag1":
        ("857f1844525e83ef206f63b21467d47d9f603ff0d1c3f6e2c97e840b303dc341",
         "8fb5fb9f12e2349189d585c0022884e1d1079a2940345f36e0199b0c1305939b"),
    "velocity_fields_lag2":
        ("dc6cd66ce0223828825a37a13c40ec16a23c2841503047a52ec4f86abdaa1368",
         "9c935a727c345891c71c8f82f0c4a41ab94cec297a7dfb81c7783bf993c9ced1"),
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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(name, digest(CASES[name]()))
    for name in sorted(ESTIMATOR_CASES):
        print(name, tuple(digest(part) for part in ESTIMATOR_CASES[name]()))
