"""Every entry point that takes a user function checks the shape of what it
returns at its base points, with one message naming the argument, the shape
it returned, the shape of the points and the shape expected."""

import re

import numpy as np
import pytest

from fractoid.dirac import clifford_connection_check
from fractoid.errors import ParameterError, SimulationError
from fractoid.geodesic import stochastic_geodesic_criterion
from fractoid.geometry import (
    get_chart,
    laplace_beltrami,
    leibniz_residual,
    levi_civita_field,
    torsion,
)
from fractoid.geometry.calculus import commutator_fd, covariant_derivative
from fractoid.meanderiv import EstimatorConfig, covariant_mean_derivative
from fractoid.nelson import (
    WaveFunctionGrid,
    feynman_kac_semigroup,
    grid_schrodinger_apply,
    newton_nelson_residual,
)
from fractoid.stochastic import (
    ItoProcessSpec,
    generator_apply,
    simulate_ito,
    simulate_stratonovich,
)
from fractoid.whitenoise import SpaceTimeLattice, lattice_inner_product

SEED = 1234
E1 = get_chart("euclidean:1")
SPHERE = get_chart("sphere2")
POINT = np.array([1.0, 0.2])
LC = levi_civita_field(SPHERE)
GOOD = lambda p: np.stack([np.sin(p[..., 1]), p[..., 0] * p[..., 1]], axis=-1)
SCALAR = lambda p: np.cos(p[..., 0]) * p[..., 1]
COLUMN = lambda p: p[..., :1]          # one component where the chart has two
CFG = EstimatorConfig.regular((0.0, 1.0), 1, (-2.0, 2.0), 8, min_count=500)
LAT = SpaceTimeLattice(t_extent=1.0, dt=0.25, half_width=1.0, dx=0.5, d=2)

# entry point and argument -> (error class, message, call on the stationary
# OU ensemble of conftest); the first four were checked before, each in its
# own way, and the rest were not checked
ROWS = {
    "simulate_ito-drift": (
        SimulationError, "drift returned shape (3,) for points of shape (3, 1); "
        "expected (3, 1)",
        lambda ens: simulate_ito(ItoProcessSpec(lambda t, x: -x[:, 0], 1.0, 1), 0.0,
                                 T=0.1, dt=0.01, N=3, seed=SEED)),
    "simulate_stratonovich-diffusion_field": (
        ParameterError, "diffusion_field returned shape (3, 2) for points of shape "
        "(3, 2); expected (3, 2, 2)",
        lambda ens: simulate_stratonovich(lambda t, x: -x, lambda t, x: np.ones_like(x),
                                          [0.0, 0.0], T=0.1, dt=0.01, N=3, seed=SEED)),
    "feynman_kac_semigroup-V": (
        ParameterError, "V returned shape (10, 1) for points of shape (10, 1); "
        "expected (10,)",
        lambda ens: feynman_kac_semigroup(np.zeros_like, lambda x: x[:, 0], 0.01, 0.0,
                                          N=10, seed=SEED, dt=0.01)),
    "lattice_inner_product-test_function": (
        ParameterError, "test function returned shape (4, 4, 4, 1) for points of "
        "shape (4, 4, 4, 3); expected (4, 4, 4)",
        lambda ens: lattice_inner_product(LAT, lambda m: m[..., :1], np.ones(LAT.shape))),
    "covariant_mean_derivative-X": (
        ParameterError, "X returned shape (4096,) for points of shape (4096, 1); "
        "expected (4096, 1)",
        lambda ens: covariant_mean_derivative(E1, ens, lambda t, x: x[:, 0], CFG)),
    # the (6,) force broadcast against the (6, 1) Ricci term to a (6, 6)
    # target with no error: a median relative residual of 1.27, not 0.084
    "newton_nelson_residual-force": (
        ParameterError, "force returned shape (6,) for points of shape (6, 1); "
        "expected (6, 1)",
        lambda ens: newton_nelson_residual(ens, lambda x: -x[..., 0], 1.0, E1,
                                           include_ricci=False, config=CFG)),
    "stochastic_geodesic_criterion-w": (
        ParameterError, "w returned shape (5,) for points of shape (5, 1); "
        "expected (5, 1)",
        lambda ens: stochastic_geodesic_criterion(E1, lambda t, x: -x[..., 0], ens, CFG)),
    "laplace_beltrami-f": (
        ParameterError, "f returned shape (1,) for points of shape (2,); expected ()",
        lambda ens: laplace_beltrami(SPHERE, COLUMN, POINT)),
    "generator_apply-w": (
        ParameterError, "w returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: generator_apply(SPHERE, COLUMN, SCALAR, POINT)),
    "generator_apply-z": (
        ParameterError, "z returned shape (1,) for points of shape (2,); expected ()",
        lambda ens: generator_apply(SPHERE, GOOD, COLUMN, POINT)),
    "covariant_derivative-X": (
        ParameterError, "X returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: covariant_derivative(LC, COLUMN, [1.0, 0.0], POINT)),
    "commutator_fd-X": (
        ParameterError, "X returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: commutator_fd(COLUMN, GOOD, POINT)),
    "commutator_fd-Y": (
        ParameterError, "Y returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: commutator_fd(GOOD, COLUMN, POINT)),
    "torsion-X": (
        ParameterError, "X returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: torsion(LC, COLUMN, GOOD, POINT)),
    "torsion-Y": (
        ParameterError, "Y returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: torsion(LC, GOOD, COLUMN, POINT)),
    "leibniz_residual-X": (
        ParameterError, "X returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: leibniz_residual(LC, SCALAR, COLUMN, GOOD, POINT)),
    "leibniz_residual-Y": (
        ParameterError, "Y returned shape (1,) for points of shape (2,); expected (2,)",
        lambda ens: leibniz_residual(LC, SCALAR, GOOD, COLUMN, POINT)),
    "clifford_connection_check-omega_field": (
        ParameterError, "omega_field returned shape (3,) for points of shape (4,); "
        "expected (4,)",
        lambda ens: clifford_connection_check(lambda x: x[:3], [1.0, 0.0, 0.0, 0.0],
                                              np.zeros(4))),
    "grid_schrodinger_apply-V": (
        ParameterError, "V returned shape (16, 1) for points of shape (16, 1); "
        "expected (16,)",
        lambda ens: grid_schrodinger_apply(
            WaveFunctionGrid((np.linspace(-1.0, 1.0, 16),), np.ones(16, dtype=complex)),
            np.ones_like)),
}


@pytest.mark.parametrize("row", ROWS)
def test_user_function_of_the_wrong_shape_is_rejected(row, ou_ensemble):
    error, message, call = ROWS[row]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(ou_ensemble)
