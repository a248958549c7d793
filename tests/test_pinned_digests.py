"""Bit-exact regression pins for every sampler that draws from counter
streams.

Each case hashes the raw float64 bytes of a small run.  The digests were
recorded with numpy 2.4 on x86-64 and must not change when the integrators
are refactored: streams are keyed by (seed, path) or, for Feynman-Kac, by
(seed, block), and a boundary retry redraws from the path's own stream.
A numpy upgrade that changes its normal sampler or its vectorised math
kernels would change them legitimately; `python tests/test_pinned_digests.py`
with src/ on PYTHONPATH prints the current digests.
"""

import hashlib

import numpy as np
import pytest

from fractoid import whitenoise as wn
from fractoid.geometry import get_chart
from fractoid.nelson import feynman_kac_semigroup
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    frame_bundle_simulate,
    orthonormal_frame,
    simulate_ito,
    simulate_manifold_diffusion,
    simulate_stratonovich,
)

SEED = 2718


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


CASES = {
    "simulate_ito": _ito,
    "simulate_stratonovich": _stratonovich,
    "manifold_sphere_near_pole": _sphere_near_pole,
    "manifold_minkowski": _minkowski,
    "frame_bundle_sphere": _frame_bundle,
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
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()
                          ).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    assert digest(CASES[name]()) == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(name, digest(CASES[name]()))
