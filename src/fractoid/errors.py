"""Exception hierarchy shared by all fractoid modules, and call_checked."""

import numpy as np


class FractoidError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FractoidError):
    """An argument violates a documented precondition."""


class DomainError(FractoidError):
    """A coordinate point lies outside a chart's valid region."""


class SingularMetricError(FractoidError):
    """The metric is numerically degenerate (|det g| below threshold)."""


class SimulationError(FractoidError):
    """A simulation produced non-finite state."""


class BoundaryError(SimulationError):
    """A diffusion step could not be kept inside the valid region."""


class InstabilityError(SimulationError):
    """An integrator invariant drifted beyond its tolerance."""


class EstimationError(FractoidError):
    """An estimator could not produce any populated bins."""


class ResolutionError(FractoidError):
    """A grid is too coarse to resolve an oscillatory kernel."""


class ResourceError(FractoidError):
    """A requested allocation exceeds the configured cap."""


class ConfigError(FractoidError):
    """An experiment configuration is invalid or incomplete."""


def call_checked(fn, name: str, shape: tuple, *args, error=ParameterError):
    """fn(*args) as a float array of the given shape, else error naming fn as
    name, the points (the last of args) and both shapes; for user functions."""
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != shape:
        raise error(f"{name} returned shape {out.shape} for points of shape "
                    f"{np.shape(args[-1])}; expected {shape}")
    return out
