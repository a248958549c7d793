"""Coordinate charts with diagonal, signature-aware metric fields.

Every chart's metric is diagonal in its coordinates, and a chart offers it
only as that diagonal.  A chart carries the diagonal as a plain function
of the coordinate point, together with the signature, an optional analytic
derivative of the diagonal, a validity predicate and a flatness flag.
Charts are immutable.

Callables are vectorized over points of shape ``(..., n)``:

* ``diag(x)`` returns ``(..., n)`` with ``diag[..., i] = g_ii``;
* ``diag_derivative(x)`` returns ``(..., n, n)`` with
  ``deriv[..., k, i] = d g_ii / d x^k``.  ``None`` means the derivative is
  taken by central differences of ``diag``
  (:func:`fractoid.geometry.calculus.diag_derivative`).

``inverse_diag(x)`` returns the ``(..., n)`` entries ``g^ii = 1 / g_ii``
and raises :class:`SingularMetricError` where ``|det g| <= DET_FLOOR``.
``metric(x)`` builds the dense ``(..., n, n)`` matrix, only on demand.
``is_flat`` marks the constant-metric charts, whose connection vanishes
and whose parallel transport is the identity.  Only the ``euclidean:n`` and
``minkowski:1+3`` constructors set it; a JSON chart never does.

Registered chart names: ``euclidean:n`` (any n >= 1), ``polar2``,
``sphere2``, ``hyperbolic2``, ``minkowski:1+3``.  Custom diagonal metrics
can be loaded from a JSON description, see :func:`chart_from_json`.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, DomainError, SingularMetricError

DET_FLOOR = 1e-10

# Pole / origin exclusions keep finite-difference stencils and diffusion
# steps away from coordinate singularities.
SPHERE_POLE_MARGIN = 0.05
POLAR_MIN_RADIUS = 1e-3
HYPERBOLIC_MIN_THETA = 0.05


def diag_matrix(d: np.ndarray) -> np.ndarray:
    """(..., n, n) matrices with the (..., n) entries of d on the diagonal."""
    out = np.zeros(d.shape + d.shape[-1:])
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


@dataclass(frozen=True)
class MetricChart:
    """A single coordinate chart with a diagonal metric field.

    signature is the pair (n_minus, n_plus): the count of negative and
    positive diagonal entries.  Lorentzian charts use (1, d) with the time
    coordinate first, i.e. the (-, +, +, +) convention.
    """

    name: str
    dimension: int
    signature: tuple[int, int]
    diag: Callable[[np.ndarray], np.ndarray]
    diag_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    valid: Callable[[np.ndarray], np.ndarray] = field(default=lambda x: np.ones(np.shape(x)[:-1], dtype=bool))
    is_flat: bool = False

    def metric(self, x) -> np.ndarray:
        """The dense metric g_ij at points of shape (..., n)."""
        return diag_matrix(self.diag(np.asarray(x, dtype=float)))

    def checked_diag(self, x) -> np.ndarray:
        """diag(x), raising SingularMetricError if |det g| <= DET_FLOOR anywhere."""
        d = self.diag(np.asarray(x, dtype=float))
        if np.any(np.abs(np.prod(d, axis=-1)) <= DET_FLOOR):
            raise SingularMetricError(
                f"metric of chart '{self.name}' is degenerate (|det| <= {DET_FLOOR:g})"
            )
        return d

    def inverse_diag(self, x) -> np.ndarray:
        """The inverse metric's diagonal 1 / g_ii at points of shape (..., n)."""
        return 1.0 / self.checked_diag(x)

    def is_valid(self, x) -> np.ndarray:
        """One bool per point of x (..., n), shape x.shape[:-1], whatever valid returns."""
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(self.valid(x), dtype=bool), x.shape[:-1])

    def require_valid(self, x) -> np.ndarray:
        """Return x as an array, raising DomainError if any point is outside."""
        x = np.asarray(x, dtype=float)
        ok = self.is_valid(x)
        if not np.all(ok):
            raise DomainError(f"point outside valid region of chart '{self.name}'")
        return x

    @property
    def is_lorentzian(self) -> bool:
        return self.signature[0] > 0

    def signature_matrix(self) -> np.ndarray:
        """diag(-1,...,-1,+1,...,+1) with n_minus leading entries."""
        p, q = self.signature
        return np.diag(np.concatenate([-np.ones(p), np.ones(q)]))


def _flat(name: str, entries: list[float]) -> MetricChart:
    """A constant diagonal metric; negative entries lead."""
    d = np.asarray(entries, dtype=float)
    n = len(d)
    n_minus = int(np.sum(d < 0))
    return MetricChart(
        name=name,
        dimension=n,
        signature=(n_minus, n - n_minus),
        diag=lambda x: np.broadcast_to(d, np.shape(x)[:-1] + (n,)).copy(),
        is_flat=True,
    )


def _warped2(name: str, warp, warp_derivative, valid) -> MetricChart:
    """Coordinates (u, phi) with g = diag(1, warp(u)); warp_derivative is
    d warp / du."""
    def diag(x):
        u = x[..., 0]
        return np.stack([np.ones_like(u), warp(u)], axis=-1)

    def deriv(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 1] = warp_derivative(x[..., 0])
        return out

    return MetricChart(name=name, dimension=2, signature=(0, 2), diag=diag,
                       diag_derivative=deriv, valid=valid)


def _polar2() -> MetricChart:
    # coordinates (r, phi); g = diag(1, r^2)
    return _warped2("polar2", lambda r: r**2, lambda r: 2.0 * r,
                    lambda x: x[..., 0] >= POLAR_MIN_RADIUS)


def _sphere2() -> MetricChart:
    # coordinates (theta, phi) on the unit sphere; g = diag(1, sin^2 theta)
    return _warped2("sphere2", lambda th: np.sin(th) ** 2, lambda th: np.sin(2.0 * th),
                    lambda x: (x[..., 0] >= SPHERE_POLE_MARGIN)
                    & (x[..., 0] <= math.pi - SPHERE_POLE_MARGIN))


def _hyperbolic2() -> MetricChart:
    # coordinates (theta, phi); g = diag(1, sinh^2 theta)
    return _warped2("hyperbolic2", lambda th: np.sinh(th) ** 2,
                    lambda th: np.sinh(2.0 * th),
                    lambda x: x[..., 0] >= HYPERBOLIC_MIN_THETA)


_CUSTOM: dict[str, MetricChart] = {}


def register_chart(chart: MetricChart) -> None:
    _CUSTOM[chart.name] = chart


def available_charts() -> list[str]:
    return ["euclidean:<n>", "polar2", "sphere2", "hyperbolic2", "minkowski:1+3"] + sorted(_CUSTOM)


def get_chart(name: str) -> MetricChart:
    """Resolve a chart by registry name."""
    if name in _CUSTOM:
        return _CUSTOM[name]
    if name == "polar2":
        return _polar2()
    if name == "sphere2":
        return _sphere2()
    if name == "hyperbolic2":
        return _hyperbolic2()
    if name == "minkowski:1+3":
        return _flat("minkowski:1+3", [-1.0, 1.0, 1.0, 1.0])
    if name.startswith("euclidean:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad euclidean chart name '{name}'") from None
        if n < 1:
            raise ConfigError(f"euclidean dimension must be >= 1, got {n}")
        return _flat(f"euclidean:{n}", [1.0] * n)
    raise ConfigError(
        f"unknown chart '{name}'; available: {', '.join(available_charts())}"
    )


# --- custom diagonal metrics from expression strings ------------------------

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "exp": np.exp,
    "log": np.log,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _compile_expression(expr: str, dimension: int):
    """Compile one diagonal-entry expression into a vectorized callable.

    Grammar: +, -, *, /, ^ (power), sin, cos, sinh, cosh, exp, log and the
    coordinate symbols x0..x{n-1}.  Anything else is rejected.
    """
    src = expr.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse metric expression '{expr}': {exc}") from None

    names = {f"x{i}" for i in range(dimension)}

    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric constant in '{expr}'")
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
            continue
        if isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Name):
            if node.id in names or node.id in _ALLOWED_FUNCS:
                continue
            raise ConfigError(f"unknown symbol '{node.id}' in metric expression '{expr}'")
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_FUNCS \
                    and not node.keywords and len(node.args) == 1:
                continue
            raise ConfigError(f"disallowed call in metric expression '{expr}'")
        raise ConfigError(f"disallowed syntax in metric expression '{expr}'")

    code = compile(tree, "<metric>", "eval")

    def fn(x):
        env = {f"x{i}": x[..., i] for i in range(dimension)}
        env.update(_ALLOWED_FUNCS)
        val = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - whitelisted AST
        return np.broadcast_to(np.asarray(val, dtype=float), x.shape[:-1])

    return fn


def chart_from_json(spec) -> MetricChart:
    """Build a diagonal-metric chart from a JSON description.

    Accepts a dict, a JSON string, or a path to a JSON file with keys
    {name, dimension, signature, diagonal_entries}.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            with open(spec, encoding="utf8") as fh:
                spec = json.load(fh)
    for key in ("name", "dimension", "signature", "diagonal_entries"):
        if key not in spec:
            raise ConfigError(f"custom chart description missing '{key}'")
    n = int(spec["dimension"])
    sig = tuple(int(s) for s in spec["signature"])
    if len(sig) != 2 or sig[0] < 0 or sig[1] < 0 or sig[0] + sig[1] != n:
        raise ConfigError(f"bad signature {sig} for dimension {n}")
    entries = spec["diagonal_entries"]
    if len(entries) != n:
        raise ConfigError(f"expected {n} diagonal entries, got {len(entries)}")
    fns = [_compile_expression(e, n) for e in entries]

    def diag(x):
        return np.stack([f(x) for f in fns], axis=-1)

    return MetricChart(name=str(spec["name"]), dimension=n, signature=sig, diag=diag)
