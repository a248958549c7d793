"""The serial integrator core behind every path simulator.

The Ito, Stratonovich, chart and frame-bundle simulators differ only in
their step.  Everything else lives here once: the T/dt grid, start points,
per-path noise, the non-finite check, reject-and-resample at chart
boundaries and the reporting grid.

Paths run one block of BLOCK_PATHS at a time, through :func:`path_blocks`,
the walk every ensemble consumer reads the paths with.  Path p draws all K
of its Wiener increments up front from the stream make_stream(seed, p), and
a boundary retry continues that same stream, so every sampled value depends
only on the seed and the path index.  The block's increments come from one
generator re-keyed per path (rng.stream_normals); a path's first boundary
retry rebuilds its stream on demand, skips the K rows already drawn and
keeps the stream for the path's later retries in the block.

Work that needs no other block, such as a block's Feynman-Kac weights or
its bin index, runs on one ordered thread pool, :func:`map_blocks`.  The
integrator itself stays serial: its per-path draws hold the GIL.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice

import numpy as np

from ..errors import BoundaryError, ParameterError, SimulationError, call_checked
from .rng import make_stream, stream_normals

BLOCK_PATHS = 4096   # paths per block; sets memory, not values
MAX_BOUNDARY_RETRIES = 100


def path_blocks(n_paths: int):
    """Row slices that walk n_paths paths in order, BLOCK_PATHS at a time;
    the one way the simulators, the estimators and their consumers group
    paths."""
    for lo in range(0, n_paths, BLOCK_PATHS):
        yield slice(lo, min(lo + BLOCK_PATHS, n_paths))


def worker_count() -> int:
    """Threads of the block pool: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, items, window: int):
    """Yield fn(item) for each item, in item order, with fn running on a
    pool of min(window, worker_count()) threads.

    At most window items are submitted ahead of the one the caller holds, so
    a caller may hand fn window + 1 buffers in turn and reuse one as soon as
    it asks for the next result.  The first item in order whose fn raises
    raises its error here, and the items not yet started are cancelled.
    The pool shuts down when the walk ends, fails or is closed.
    """
    # here, not at module level: the import loads logging (~11 ms)
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    pool = ThreadPoolExecutor(min(window, worker_count()))
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, window + 1))
        while pending:
            result = pending.popleft().result()
            yield result
            # the caller is done with result: one more item may start
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
    finally:
        pool.shutdown(cancel_futures=True)


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
        outside = ~np.asarray(chart.is_valid(x0), dtype=bool)
        if np.any(outside):
            raise ParameterError(f"chart '{chart.name}': start {x0[outside][0].tolist()} "
                                 "lies outside the valid region")
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
        return call_checked(fn, "drift", x.shape, self.times[k], x, error=SimulationError)

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
        for rows in path_blocks(n_paths):
            self._lo = rows.start
            self._retry_streams = {}
            dW = np.empty((rows.stop - rows.start, K, self.n_noise))
            for i, normals in enumerate(stream_normals(self.seed, range(n_paths)[rows],
                                                       self.sqdt, dW.shape[1:])):
                dW[i] = normals
            state = tuple(s[rows].copy() for s in starts)
            for o, s in zip(out, state):
                o[rows, 0] = s
            j = 1
            for k in range(K):
                self._k, self._x, self._dW = k, state[0], dW[:, k]
                state = step(k, self._dW, *state)
                if k + 1 == report[j]:
                    if at_report is not None:
                        state = at_report(*state)
                    for o, s in zip(out, state):
                        o[rows, j] = s
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
                self._dW[p] = self._retry_stream(int(p)).normal(0.0, self.sqdt,
                                                               (self.n_noise,))
                cand[p] = redraw(p, self._dW[p])
            bad = ~np.asarray(self.chart.is_valid(cand), dtype=bool)
        return cand

    def _retry_stream(self, p: int) -> np.random.Generator:
        """Path p of the block's own stream, past the K rows run() drew
        from it; built on the path's first retry and kept for the block."""
        stream = self._retry_streams.get(p)
        if stream is None:
            stream = make_stream(self.seed, self._lo + p)
            stream.normal(0.0, self.sqdt, (self.K, self.n_noise))
            self._retry_streams[p] = stream
        return stream
