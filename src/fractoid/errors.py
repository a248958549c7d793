"""Exception hierarchy shared by all fractoid modules, and the input checks
they share: call_checked, check_positive (the one parameter rule; a time
span and its step go through integrator.step_count) and parse_registry_name."""

import re

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


def check_positive(name: str, value, zero: bool = False) -> float:
    """value as a float when it is a finite number above 0 (at least 0 with
    zero), else a ParameterError naming the parameter and its value."""
    v = float(value)
    if np.isinf(v):
        raise ParameterError(f"{name} must be finite, got {value}")
    if not (v >= 0.0 if zero else v > 0.0):   # NaN fails both
        raise ParameterError(f"{name} must be {'>= 0' if zero else 'positive'}, got {value}")
    return v


_REGISTRY_NAME = re.compile(r"^([a-z\-]+)\(([^)]*)\)$")


def parse_registry_name(name: str, registry: str) -> tuple[str, list[float]]:
    """(kind, args) of a registry name "kind(a,b,...)" whose arguments are
    numbers, else a ConfigError naming the registry and the name."""
    m = _REGISTRY_NAME.match(name.strip())
    if not m:
        raise ConfigError(f"bad {registry} name '{name}'; expected form name(args)")
    kind, argstr = m.groups()
    try:
        return kind, [float(a) for a in argstr.split(",")] if argstr.strip() else []
    except ValueError:
        raise ConfigError(f"{registry} '{name}': arguments must be numbers, "
                          f"got '{argstr}'") from None
