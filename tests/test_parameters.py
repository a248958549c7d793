"""A NaN, infinite or out-of-range number where a parameter needs a finite
positive one (errors.check_positive, or step_count for a span and its
step), and a registry argument that is not a number, raise an error naming
them, not a bare numpy or Python error, a false message or a silently
accepted value."""

import numpy as np
import pytest

from fractoid.dirac import build_gammas, dirac_plane_wave
from fractoid.errors import ConfigError, ParameterError
from fractoid.geodesic import LagrangianSpec, classical_geodesic
from fractoid.geometry import get_chart
from fractoid.nelson.feynman_kac import feynman_kac_semigroup
from fractoid.nelson.wavefunctions import (NelsonProcessSpec, WaveFunctionGrid,
                                           make_wavefunction)
from fractoid.stochastic import (ItoProcessSpec, simulate_ito, simulate_manifold_diffusion,
                                 wiener_increments)
from fractoid.whitenoise import SpaceTimeLattice, make_test_function

NAN, INF = float("nan"), float("inf")
AXIS = np.linspace(-1.0, 1.0, 5)
SPEC = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x), diffusion_const=1.0, dimension=1)
ONE = lambda x: np.ones(len(x))
ZERO_FIELD = lambda t, x: np.zeros_like(x)


def nelson_spec(epsilon=1.0, hbar=1.0, mass=1.0):
    return NelsonProcessSpec(ZERO_FIELD, ZERO_FIELD, epsilon, hbar=hbar, mass=mass)


CASES = {
    # accepted silently before
    "lagrangian-mass-nan": (lambda: LagrangianSpec(None, mass=NAN),
                            ParameterError, r"^mass must be positive, got nan$"),
    "wiener-dt-nan": (lambda: wiener_increments(3, NAN, 1, seed=1),
                      ParameterError, r"^dt must be positive, got nan$"),
    "wavefunction-hbar-nan": (lambda: WaveFunctionGrid((AXIS,), np.ones(5), hbar=NAN),
                              ParameterError, r"^hbar must be positive, got nan$"),
    "ito-diffusion-nan": (lambda: ItoProcessSpec(lambda t, x: x, NAN, 1),
                          ParameterError, r"^diffusion_const must be >= 0, got nan$"),
    "lagrangian-mass-inf": (lambda: LagrangianSpec(None, mass=INF),
                            ParameterError, r"^mass must be finite, got inf$"),
    "wiener-dt-inf": (lambda: wiener_increments(3, INF, 1, seed=1),
                      ParameterError, r"^dt must be finite, got inf$"),
    "wavefunction-hbar-inf": (lambda: WaveFunctionGrid((AXIS,), np.ones(5), hbar=INF),
                              ParameterError, r"^hbar must be finite, got inf$"),
    "manifold-epsilon-negative": (
        lambda: simulate_manifold_diffusion(get_chart("sphere2"), None, [1.0, 0.0], T=0.1,
                                            dt=0.05, N=2, seed=1, epsilon=-1.0),
        ParameterError, r"^epsilon must be >= 0, got -1.0$"),
    "nelson-epsilon-hbar-nan": (lambda: nelson_spec(epsilon=NAN, hbar=NAN),
                                ParameterError, r"^epsilon must be positive, got nan$"),
    "nelson-epsilon-hbar-inf": (lambda: nelson_spec(epsilon=INF, hbar=INF),
                                ParameterError, r"^epsilon must be finite, got inf$"),
    # epsilon^2 = hbar/m holds for the negative root
    "nelson-epsilon-negative": (lambda: nelson_spec(epsilon=-1.0),
                                ParameterError, r"^epsilon must be positive, got -1.0$"),
    # a bare ZeroDivisionError before
    "nelson-mass-zero": (lambda: nelson_spec(mass=0.0),
                         ParameterError, r"^mass must be positive, got 0.0$"),
    # a SimulationError at step 1 before
    "ito-diffusion-inf": (lambda: ItoProcessSpec(lambda t, x: x, INF, 1),
                          ParameterError, r"^diffusion_const must be finite, got inf$"),
    # a bare ValueError or OverflowError from the step count before
    "ito-T-nan": (lambda: simulate_ito(SPEC, 0.0, T=NAN, dt=0.1, N=2, seed=1),
                  ParameterError, r"^T=nan and dt=0.1 must be finite$"),
    "ito-T-inf": (lambda: simulate_ito(SPEC, 0.0, T=INF, dt=0.1, N=2, seed=1),
                  ParameterError, r"^T=inf and dt=0.1 must be finite$"),
    "lattice-dt-nan": (lambda: SpaceTimeLattice(1.0, NAN, 1.0, 0.25, d=1),
                       ParameterError, r"dt=nan must be finite"),
    "lattice-half-width-inf": (lambda: SpaceTimeLattice(1.0, 0.125, INF, 0.25, d=1),
                               ParameterError, r"2\*half_width=inf"),
    "feynman-kac-t-nan": (lambda: feynman_kac_semigroup(lambda x: np.zeros(len(x)), ONE,
                                                        NAN, 0.0, 10, seed=1),
                          ParameterError, r"^t=nan and dt=0.001 must be finite$"),
    "geodesic-dt-nan": (lambda: classical_geodesic(get_chart("euclidean:1"), [0.0], [1.0],
                                                   T=1.0, dt=NAN),
                        ParameterError, r"dt=nan must be finite"),
    # numpy's LinAlgError before
    "plane-wave-mass-nan": (lambda: dirac_plane_wave([0.1, 0.2, 0.3], NAN, build_gammas()),
                            ParameterError, r"^mass must be positive, got nan$"),
    "plane-wave-mass-inf": (lambda: dirac_plane_wave([0.1, 0.2, 0.3], INF, build_gammas()),
                            ParameterError, r"^mass must be finite, got inf$"),
    # "times of the curve must be strictly increasing" before
    "geodesic-negative-span": (lambda: classical_geodesic(get_chart("euclidean:1"), [0.0],
                                                          [1.0], T=-1.0, dt=-0.01),
                               ParameterError, r"^T=-1.0 and dt=-0.01 must be positive$"),
    # a bare ValueError from float() before
    "wavefunction-argument": (lambda: make_wavefunction("ho-ground(x)", AXIS),
                              ConfigError, r"'ho-ground\(x\)'.*got 'x'$"),
    "test-function-argument": (lambda: make_test_function("bump(a)"),
                               ConfigError, r"'bump\(a\)'.*got 'a'$"),
}


@pytest.mark.parametrize("case", CASES)
def test_non_finite_or_non_number_parameter_is_named(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()
