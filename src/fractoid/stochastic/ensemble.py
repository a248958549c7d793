"""PathEnsemble: N discretized sample paths on a uniform time grid.

Persistence goes through :mod:`fractoid.persistence`: a CSV table
``path_id,step,t,x0,...,x{n-1}`` with one row per (path, step) in path-major
order, plus a JSON manifest holding chart, seed, dt, T, N and the meta
entries.  Both sides stream the table in blocks of about ROW_CHUNK rows
(the writer's hold whole paths), so neither holds more of it than one block
beside the paths.  The reader rejects a manifest without chart, seed or N or
with N < 1, a row out of path-major order (missing, repeated, swapped or
with a non-integer id), a row whose t differs from path 0's at the same
step, and a path count other than N, naming the row.
``write_npz``/``read_npz`` keep a binary column format that round-trips
bit-exactly; its reader rejects what it cannot load as by ``read_arrays``,
a ``meta`` that is not a JSON object and a ``seed`` that is not one integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..errors import ParameterError
from ..persistence import (ROW_CHUNK, float_text, manifest_for, read_arrays,
                           read_manifest, read_table, write_manifest, write_table)

GRID_UNIFORMITY_TOL = 1e-12


def _check_grid(times, name) -> None:
    """A time grid must be finite, strictly increasing and uniform within
    GRID_UNIFORMITY_TOL; name leads the error message."""
    if not np.all(np.isfinite(times)):          # NaN passes the comparisons below
        raise ParameterError(f"{name} contains non-finite times")
    diffs = np.diff(times)
    if len(diffs) and (np.any(diffs <= 0)
                       or np.max(np.abs(diffs - diffs[0])) > GRID_UNIFORMITY_TOL):
        raise ParameterError(f"{name} must be strictly increasing and uniform")


@dataclass
class PathEnsemble:
    times: np.ndarray                 # (K+1,)
    paths: np.ndarray                 # (N, K+1, dim)
    seed: int
    chart_name: str = "euclidean:1"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.paths = np.asarray(self.paths, dtype=float)
        if self.paths.ndim != 3:
            raise ParameterError("paths must have shape (N, K+1, dim)")
        if self.times.shape != (self.paths.shape[1],):
            raise ParameterError("times length must match the path grid")
        _check_grid(self.times, "time grid")
        from .integrator import path_blocks
        # block by block, so the check holds no ensemble-sized mask
        for rows in path_blocks(self.n_paths):
            if not np.isfinite(self.paths[rows]).all():
                p, k = np.argwhere(~np.isfinite(self.paths[rows]))[0, :2]
                raise ParameterError("paths contain non-finite coordinates, first on "
                                     f"path {rows.start + p} at step {k}")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    @property
    def dimension(self) -> int:
        return self.paths.shape[2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def restrict(self, k0: int, k1: int) -> "PathEnsemble":
        """Sub-ensemble over the step index range [k0, k1]."""
        return PathEnsemble(self.times[k0:k1 + 1], self.paths[:, k0:k1 + 1, :],
                            seed=self.seed, chart_name=self.chart_name, meta=dict(self.meta))

    def reversed_time(self) -> "PathEnsemble":
        """The time-reversed ensemble, re-indexed on the same grid."""
        return PathEnsemble(self.times, self.paths[:, ::-1, :],
                            seed=self.seed, chart_name=self.chart_name, meta=dict(self.meta))

    # --- persistence ---------------------------------------------------

    def manifest(self) -> dict:
        out = {
            "chart": self.chart_name,
            "seed": int(self.seed),
            "dt": self.dt,
            "T": self.t_final,
            "N": self.n_paths,
        }
        out.update(self.meta)
        return out

    def write_csv(self, path) -> None:
        n, k1, dim = self.paths.shape
        per = max(1, ROW_CHUNK // k1)           # whole paths per block
        # the step and t fields of each step as one text, formatted once
        step_t = np.array([f"{k},{t}" for k, t in enumerate(float_text(self.times))],
                          dtype=object)

        def blocks():
            for p in range(0, n, per):
                m = min(per, n - p)
                yield [np.repeat(np.arange(p, p + m), k1), np.tile(step_t, m),
                       *self.paths[p:p + m].reshape(-1, dim).T]

        write_table(path, ["path_id", "step", "t"] + [f"x{i}" for i in range(dim)],
                    blocks())
        write_manifest(manifest_for(path), self.manifest())

    @classmethod
    def read_csv(cls, path) -> "PathEnsemble":
        """The ensemble of a CSV table written by write_csv.  Row r must hold
        (path r // (K+1), step r % (K+1)); path 0's rows give K+1 and the
        time grid, and every other row must repeat path 0's t at its step."""
        manifest = read_manifest(manifest_for(path),
                                 {"chart": str, "seed": int, "N": int})
        n = manifest["N"]
        if n < 1:
            raise ParameterError(f"{manifest_for(path)}: key 'N' must be at least 1, "
                                 f"found {n}")
        blocks = read_table(path)
        head = []                               # path 0's rows and the block that ends them
        for block in blocks:
            head.append(block)
            if np.any(block[:, 0] != 0):
                break
        head = np.concatenate(head)
        if head.shape[1] < 4:
            raise ParameterError(f"{path} holds no path coordinates")
        later = np.flatnonzero(head[:, 0] != 0)
        # at least 1, so a first row of another path fails the row check below
        k1 = max(int(later[0]) if later.size else len(head), 1)
        times, total = head[:k1, 2].copy(), n * k1
        paths = np.empty((total, head.shape[1] - 3))
        r = 0
        for block in chain([head[:k1], head[k1:]], blocks):
            pid, step = np.divmod(np.arange(r, r + len(block)), k1)
            bad = np.flatnonzero((block[:, 0] != pid) | (block[:, 1] != step))
            if bad.size:
                i = bad[0]
                raise ParameterError(f"{path}: row {r + i} holds (path {block[i, 0]:.17g}, "
                                     f"step {block[i, 1]:.17g}), expected "
                                     f"(path {pid[i]}, step {step[i]})")
            if r + len(block) > total:
                raise ParameterError(f"{path}: row {total} begins path {n}, but its "
                                     f"manifest says N = {n}")
            if r == 0:                          # path 0's rows, which set the grid
                _check_grid(times, f"{path}: the time grid of path 0")
            off = np.flatnonzero(block[:, 2] != times[step])
            if off.size:
                i = off[0]
                raise ParameterError(f"{path}: path {pid[i]} has t = {block[i, 2]} at step "
                                     f"{step[i]}, path 0 has t = {times[step[i]]}")
            paths[r:r + len(block)] = block[:, 3:]
            r += len(block)
        if r < total:
            raise ParameterError(f"{path} ends at row {r}, but its manifest's N = {n} "
                                 f"paths of {k1} rows need {total}")
        known = {"chart", "seed", "dt", "T", "N"}
        meta = {k: v for k, v in manifest.items() if k not in known}
        return cls(times, paths.reshape(n, k1, -1), seed=int(manifest["seed"]),
                   chart_name=manifest["chart"], meta=meta)

    def write_npz(self, path) -> None:
        np.savez(path, times=self.times, paths=self.paths,
                 seed=np.int64(self.seed),
                 chart=np.array(self.chart_name),
                 meta=np.array(json.dumps(self.meta, sort_keys=True)))

    @classmethod
    def read_npz(cls, path) -> "PathEnsemble":
        data = read_arrays(path, ("times", "paths", "seed", "chart", "meta"))
        try:
            meta = json.loads(str(data["meta"]))
        except ValueError as exc:
            raise ParameterError(f"{path}: meta is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParameterError(f"{path}: meta must hold a JSON object, found "
                                 f"{type(meta).__name__}")
        seed = data["seed"]
        if seed.shape != () or seed.dtype.kind not in "iu":
            raise ParameterError(f"{path}: seed must be one integer, found "
                                 f"{seed.dtype} of shape {seed.shape}")
        try:
            return cls(data["times"], data["paths"], seed=int(seed),
                       chart_name=str(data["chart"]), meta=meta)
        except ParameterError as exc:
            raise ParameterError(f"{path}: {exc}") from exc
