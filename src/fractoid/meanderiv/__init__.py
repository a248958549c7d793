"""Nelson mean-derivative machinery: estimators, velocities, accelerations."""

from .acceleration import (
    AccelerationField,
    acceleration_decomposed,
    mean_acceleration,
    ricci_correction,
)
from .covariant import CovariantMeanDerivative, covariant_mean_derivative
from .estimators import (
    BinnedMatrixField,
    BinnedVectorField,
    EstimatorConfig,
    MeanDerivativeField,
    estimate_backward,
    estimate_forward,
    estimate_velocity_fields,
    quadratic_variation_matrix,
    relativistic_mean_derivatives,
    spacelike_fraction,
    velocity_fields,
    write_field_csv,
)

__all__ = [
    "AccelerationField",
    "BinnedMatrixField",
    "BinnedVectorField",
    "CovariantMeanDerivative",
    "EstimatorConfig",
    "MeanDerivativeField",
    "acceleration_decomposed",
    "covariant_mean_derivative",
    "estimate_backward",
    "estimate_forward",
    "estimate_velocity_fields",
    "mean_acceleration",
    "quadratic_variation_matrix",
    "relativistic_mean_derivatives",
    "ricci_correction",
    "spacelike_fraction",
    "velocity_fields",
    "write_field_csv",
]
