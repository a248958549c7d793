"""PathEnsemble: N discretized sample paths on a uniform time grid.

Persistence: CSV with header ``path_id,step,t,x0,...,x{n-1}`` plus a JSON
manifest, and an optional binary (.npz) column format that round-trips
bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ParameterError

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
        diffs = np.diff(self.times)
        if len(diffs) and (np.any(diffs <= 0)
                           or np.max(np.abs(diffs - diffs[0])) > GRID_UNIFORMITY_TOL):
            raise ParameterError("time grid must be strictly increasing and uniform")
        if not np.all(np.isfinite(self.paths)):
            raise ParameterError("paths contain non-finite coordinates")

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

    def write_csv(self, path, manifest_path=None) -> None:
        path = Path(path)
        dim = self.dimension
        header = "path_id,step,t," + ",".join(f"x{i}" for i in range(dim))
        n, k1 = self.paths.shape[:2]
        pid = np.repeat(np.arange(n), k1)
        step = np.tile(np.arange(k1), n)
        t = np.tile(self.times, n)
        cols = [pid, step, t] + [self.paths[:, :, i].ravel() for i in range(dim)]
        with open(path, "w", encoding="utf8") as fh:
            fh.write(header + "\n")
            for row in zip(*cols):
                fh.write("%d,%d," % (row[0], row[1])
                         + ",".join("%.17g" % v for v in row[2:]) + "\n")
        mpath = Path(manifest_path) if manifest_path else path.with_suffix(".manifest.json")
        with open(mpath, "w", encoding="utf8") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read_csv(cls, path, manifest_path=None) -> "PathEnsemble":
        path = Path(path)
        mpath = Path(manifest_path) if manifest_path else path.with_suffix(".manifest.json")
        with open(mpath, encoding="utf8") as fh:
            manifest = json.load(fh)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if raw.shape[0] == 0 or raw.shape[1] < 4:
            raise ParameterError(f"{path} holds no path samples")
        pid = raw[:, 0].astype(int)
        step = raw[:, 1].astype(int)
        if pid.min() < 0 or step.min() < 0:
            raise ParameterError(f"{path} has a negative path_id or step")
        n = pid.max() + 1
        k1 = step.max() + 1
        if n != manifest.get("N", n):
            raise ParameterError(f"{path} holds {n} paths, its manifest says {manifest['N']}")
        # every (path, step) row exactly once, or np.empty leaks into the paths
        seen = np.bincount(pid * k1 + step, minlength=n * k1)
        if np.any(seen != 1):
            bad = int(np.flatnonzero(seen != 1)[0])
            raise ParameterError(f"{path}: row (path {bad // k1}, step {bad % k1}) "
                                 f"appears {seen[bad]} times, expected once")
        dim = raw.shape[1] - 3
        times = np.empty(k1)
        times[step[pid == 0]] = raw[pid == 0, 2]
        paths = np.empty((n, k1, dim))
        paths[pid, step, :] = raw[:, 3:]
        known = {"chart", "seed", "dt", "T", "N"}
        meta = {k: v for k, v in manifest.items() if k not in known}
        return cls(times, paths, seed=int(manifest["seed"]),
                   chart_name=manifest["chart"], meta=meta)

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
