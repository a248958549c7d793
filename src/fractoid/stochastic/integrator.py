"""The serial integrator core behind every path simulator.

The Ito, Stratonovich, chart and frame-bundle simulators differ only in
their step.  Everything else lives here once: the T/dt grid, start points,
per-path noise, the non-finite check, reject-and-resample at chart
boundaries and the reporting grid.

Paths run one block of BLOCK_SIZE at a time.  Path p draws all K of its
Wiener increments up front from make_stream(seed, p), and a boundary retry
continues that same stream, so every sampled value depends only on the
seed and the path index.
"""

from __future__ import annotations

import numpy as np

from ..errors import BoundaryError, ParameterError, SimulationError
from .rng import make_stream

BLOCK_SIZE = 4096
MAX_BOUNDARY_RETRIES = 100


def initial_points(x0, n_paths: int, dim: int, chart=None) -> np.ndarray:
    """(n_paths, dim) start points from one shared point or one per path;
    on a chart every start must lie in the valid region, where the metric
    diagonal must have the chart's signature (negative entries first)."""
    if n_paths < 1:
        raise ParameterError("N must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim == 1:
        if x0.shape[0] != dim:
            raise ParameterError(f"x0 has dimension {x0.shape[0]}, expected {dim}")
        x0 = np.broadcast_to(x0, (n_paths, dim))
    elif x0.shape != (n_paths, dim):
        raise ParameterError(f"x0 must be ({n_paths}, {dim}), got {x0.shape}")
    if chart is not None:
        chart.require_valid(x0)
        d = chart.diag(x0)
        negative = np.arange(dim) < chart.signature[0]
        if not np.all(np.where(negative, d < 0, d > 0)):
            raise ParameterError(f"chart '{chart.name}': the metric diagonal at x0 does "
                                 f"not have the signature {chart.signature} "
                                 "(negative entries first)")
    return x0


class Integrator:
    """Runs one scheme's step over all paths on the grid 0, dt, ..., T.

    name labels the scheme in error messages, n_noise is the number of
    driving Wiener increments per step, and chart, when given, bounds the
    positions a step may accept.
    """

    def __init__(self, name: str, T: float, dt: float, seed: int, n_noise: int,
                 chart=None):
        if T <= 0 or dt <= 0:
            raise ParameterError("T and dt must be positive")
        K = int(round(T / dt))
        if K < 1 or abs(K * dt - T) > 1e-9 * max(1.0, T):
            raise ParameterError(f"T={T} is not an integer multiple of dt={dt}")
        self.name = name
        self.K = K
        self.dt = dt
        self.sqdt = np.sqrt(dt)
        self.times = np.arange(K + 1) * dt
        self.seed = seed
        self.n_noise = n_noise
        self.chart = chart

    def drift(self, fn, k: int, x: np.ndarray) -> np.ndarray:
        """fn(t_k, x) as a float array of the positions' shape."""
        b = np.asarray(fn(self.times[k], x), dtype=float)
        if b.shape != x.shape:
            raise SimulationError(f"drift returned shape {b.shape}, expected {x.shape}")
        return b

    def run(self, step, *starts: np.ndarray, report_every: int = 1, at_report=None):
        """Advance every path and return (report times, states at them).

        starts holds one (N, ...) array per state component, positions
        first.  step(k, dW, *state) returns the state after step k, where dW
        is the block's (B, n_noise) increments for that step; it passes its
        candidate positions through accept().  The states are recorded at
        t = 0, every report_every steps and at T, after at_report(*state),
        if given, has mapped them.
        """
        if report_every < 1:
            raise ParameterError("report_every must be >= 1")
        K = self.K
        report = [0] + list(range(report_every, K + 1, report_every))
        if report[-1] != K:
            report.append(K)
        n_paths = len(starts[0])
        out = [np.empty((n_paths, len(report)) + s.shape[1:]) for s in starts]
        for lo in range(0, n_paths, BLOCK_SIZE):
            hi = min(lo + BLOCK_SIZE, n_paths)
            self._lo = lo
            self._streams = [make_stream(self.seed, p) for p in range(lo, hi)]
            dW = np.stack([s.normal(0.0, self.sqdt, (K, self.n_noise))
                           for s in self._streams])
            state = tuple(s[lo:hi].copy() for s in starts)
            for o, s in zip(out, state):
                o[lo:hi, 0] = s
            j = 1
            for k in range(K):
                self._k, self._x, self._dW = k, state[0], dW[:, k]
                state = step(k, self._dW, *state)
                if k + 1 == report[j]:
                    if at_report is not None:
                        state = at_report(*state)
                    for o, s in zip(out, state):
                        o[lo:hi, j] = s
                    j += 1
        return np.array(report) * self.dt, out

    def check_finite(self, values: np.ndarray, what: str = "state") -> None:
        """Raise SimulationError naming the first path of the block whose
        (B, ...) values in the current step are not all finite."""
        bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=-1)
        if np.any(bad):
            raise SimulationError(f"{self.name} produced non-finite {what} on path "
                                  f"{self._lo + int(np.argmax(bad))} at step {self._k + 1}")

    def accept(self, cand: np.ndarray, redraw=None) -> np.ndarray:
        """Check the current step's candidate positions; return them accepted.

        A non-finite candidate raises SimulationError.  On a chart, a path
        whose candidate leaves the valid region draws fresh increments from
        its own stream into the step's dW, and redraw(p, dW[p]) recomputes
        its candidate; past MAX_BOUNDARY_RETRIES rounds a BoundaryError
        names the path.
        """
        self.check_finite(cand)
        step = self._k + 1
        if self.chart is None:
            return cand
        bad = ~np.asarray(self.chart.is_valid(cand), dtype=bool)
        retries = 0
        while np.any(bad):
            retries += 1
            if retries > MAX_BOUNDARY_RETRIES:
                p = int(np.argmax(bad))
                raise BoundaryError(
                    f"path {self._lo + p} stuck at {self._x[p]} near the boundary of "
                    f"chart '{self.chart.name}' (step {step})")
            for p in np.nonzero(bad)[0]:
                self._dW[p] = self._streams[p].normal(0.0, self.sqdt, (self.n_noise,))
                cand[p] = redraw(p, self._dW[p])
            bad = ~np.asarray(self.chart.is_valid(cand), dtype=bool)
        return cand
