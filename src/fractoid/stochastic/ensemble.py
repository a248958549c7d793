"""PathEnsemble: N discretized sample paths on a uniform time grid.

Persistence goes through :mod:`fractoid.persistence`: a CSV table
``path_id,step,t,x0,...,x{n-1}`` with one row per (path, step), plus a JSON
manifest holding chart, seed, dt, T, N and the meta entries.  The reader
rejects a manifest without chart, seed or N, a path count other than N, a
missing or repeated (path, step) row, and a row whose t differs from path
0's at the same step.  ``write_npz``/``read_npz`` keep a binary column
format that round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..persistence import (float_text, manifest_for, read_manifest, read_table,
                           write_manifest, write_table)

GRID_UNIFORMITY_TOL = 1e-12


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
        if not np.all(np.isfinite(self.times)):     # NaN passes the grid checks
            raise ParameterError("time grid contains non-finite times")
        if not np.all(np.isfinite(self.paths)):
            raise ParameterError("paths contain non-finite coordinates")
        diffs = np.diff(self.times)
        if len(diffs) and (np.any(diffs <= 0)
                           or np.max(np.abs(diffs - diffs[0])) > GRID_UNIFORMITY_TOL):
            raise ParameterError("time grid must be strictly increasing and uniform")

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
        write_table(path, ["path_id", "step", "t"] + [f"x{i}" for i in range(dim)],
                    [np.repeat(np.arange(n), k1), np.tile(np.arange(k1), n),
                     np.tile(float_text(self.times), n),
                     *self.paths.reshape(-1, dim).T])
        write_manifest(manifest_for(path), self.manifest())

    @classmethod
    def read_csv(cls, path) -> "PathEnsemble":
        manifest = read_manifest(manifest_for(path),
                                 {"chart": str, "seed": int, "N": int})
        raw = read_table(path)
        if raw.shape[1] < 4:
            raise ParameterError(f"{path} holds no path coordinates")
        pid, step = raw[:, :2].astype(int).T
        if pid.min() < 0 or step.min() < 0:
            raise ParameterError(f"{path} has a negative path_id or step")
        n, k1 = pid.max() + 1, step.max() + 1
        if n != manifest["N"]:
            raise ParameterError(f"{path} holds {n} paths, its manifest says "
                                 f"{manifest['N']}")
        # every (path, step) row exactly once, or np.empty leaks into the paths
        seen = np.bincount(pid * k1 + step, minlength=n * k1)
        if np.any(seen != 1):
            bad = int(np.flatnonzero(seen != 1)[0])
            raise ParameterError(f"{path}: row (path {bad // k1}, step {bad % k1}) "
                                 f"appears {seen[bad]} times, expected once")
        dim = raw.shape[1] - 3
        times = np.empty(k1)
        times[step[pid == 0]] = raw[pid == 0, 2]
        off = np.flatnonzero(raw[:, 2] != times[step])
        paths = np.empty((n, k1, dim))
        paths[pid, step, :] = raw[:, 3:]
        known = {"chart", "seed", "dt", "T", "N"}
        meta = {k: v for k, v in manifest.items() if k not in known}
        # built before a foreign t is reported: it rejects a non-finite t of path 0
        ensemble = cls(times, paths, seed=int(manifest["seed"]),
                       chart_name=manifest["chart"], meta=meta)
        if off.size:
            i = off[0]
            raise ParameterError(f"{path}: path {pid[i]} has t = {raw[i, 2]} at step "
                                 f"{step[i]}, path 0 has t = {times[step[i]]}")
        return ensemble

    def write_npz(self, path) -> None:
        np.savez(path, times=self.times, paths=self.paths,
                 seed=np.int64(self.seed),
                 chart=np.array(self.chart_name),
                 meta=np.array(json.dumps(self.meta, sort_keys=True)))

    @classmethod
    def read_npz(cls, path) -> "PathEnsemble":
        with np.load(path, allow_pickle=False) as data:
            return cls(data["times"], data["paths"], seed=int(data["seed"]),
                       chart_name=str(data["chart"]),
                       meta=json.loads(str(data["meta"])))
