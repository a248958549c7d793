"""The benchmark's three workloads, each a closed loop through fractoid's
public API: one caller makes sequential calls, and the next call starts when
the previous one returns.

A workload builds its inputs from the seed once (``setup``) and then runs
passes over them (``run``).  A pass wraps every layer call in a tracer span
and records each pass rule in a :class:`Checks`.  Why each workload exists,
and which layer metric should move which end-to-end metric, is in README.md
beside this file.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fractoid.cli.config import ExperimentConfig
from fractoid.cli.suites import run_suite
from fractoid.geometry import MetricChart, get_chart
from fractoid.meanderiv import (
    EstimatorConfig,
    MeanDerivativeField,
    estimate_velocity_fields,
    mean_acceleration,
    write_field_csv,
)
from fractoid.nelson.dynamics import RELATIVE_FLOOR
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    PathEnsemble,
    frame_bundle_simulate,
    make_stream,
    orthonormal_frame,
    simulate_ito,
    simulate_manifold_diffusion,
)

FLOAT_BYTES = 8
SCRATCH_DIR = ".perfbench_tmp"   # under the checkout root; emptied after each pass


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    note: str = ""


class Checks:
    """Pass-rule outcomes of one pass.  A layer exception is a failed check."""

    def __init__(self):
        self.results: list[Check] = []

    def add(self, name: str, passed: bool, value: float = math.nan, note: str = ""):
        self.results.append(Check(name, bool(passed), float(value), note))

    def fail_missing(self, names: tuple[str, ...], exc: BaseException) -> None:
        """Record every expected check not yet recorded as failed by exc."""
        seen = {c.name for c in self.results}
        missing = [n for n in names if n not in seen] or ["error"]
        for name in missing:
            self.add(name, False, note=f"{type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.results)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str, Path], object]
    run: Callable[[object, object, Checks], None]
    checks: tuple[str, ...] = ()
    # traced runs only: work that is a reference, not part of a pass
    baseline: Callable[[object, object], None] | None = None


# --- flat-ensemble -----------------------------------------------------------
# The nelson-ho closure at suite size: stationary OU paths, binned velocity
# fields, composed mean acceleration, Newton-Nelson residual against -x.

FLAT_T, FLAT_DT = 3.0, 0.01
NELSON_TOL = 0.10
NELSON_MIN_COUNT = 500


def _ou_drift(t, x):
    return -x


@dataclass(frozen=True)
class FlatInputs:
    seed: int
    n_paths: int
    spec: ItoProcessSpec
    x0: np.ndarray
    config: EstimatorConfig
    sizes: dict


def flat_setup(seed: int, size: str, scratch: Path) -> FlatInputs:
    n = {"full": 100_000, "tiny": 20_000}[size]
    k = round(FLAT_T / FLAT_DT)
    spec = ItoProcessSpec(drift=_ou_drift, diffusion_const=1.0, dimension=1)
    x0 = make_stream(seed, 1 << 32).normal(0.0, math.sqrt(0.5), (n, 1))
    config = EstimatorConfig.regular((0.0, FLAT_T), 1, (-2.0, 2.0), 8,
                                     min_count=NELSON_MIN_COUNT)
    sizes = {"N": n, "K": k, "dim": 1, "dt": FLAT_DT, "bins": 8,
             "computed_bytes": {"paths": n * (k + 1) * FLOAT_BYTES,
                                "quotients_per_direction": n * k * FLOAT_BYTES}}
    return FlatInputs(seed, n, spec, x0, config, sizes)


def in_grid_samples(ens: PathEnsemble, config: EstimatorConfig) -> int:
    """Forward plus backward quotients (lag 1) whose conditioning point lies
    in the bin grid, with the half-open [lo, hi) bins of flat_index."""
    def inside(v, edges):
        return (v >= edges[0]) & (v < edges[-1])

    x_ok = np.ones(ens.paths.shape[:2], dtype=bool)
    for a, edges in enumerate(config.space_edges):
        x_ok &= inside(ens.paths[:, :, a], edges)
    t_ok = inside(ens.times, config.time_edges)
    per_step = np.count_nonzero(x_ok, axis=0) * t_ok
    return int(per_step[:-1].sum() + per_step[1:].sum())


def _estimate(ens: PathEnsemble, config: EstimatorConfig, tr) -> MeanDerivativeField:
    with tr.span("meanderiv.estimate_velocity_fields", cpu=True, memory=True) as sp:
        fld = estimate_velocity_fields(ens, config)
    if tr.enabled:
        samples = 2 * ens.n_paths * ens.n_steps
        sp["samples"] = samples
        sp["in_grid_ratio"] = in_grid_samples(ens, config) / samples
        sp["populated_ratio"] = np.count_nonzero(fld.mask) / fld.mask.size
    return fld


def flat_run(inp: FlatInputs, tr, checks: Checks) -> None:
    with tr.span("stochastic.simulate_ito", cpu=True) as sp:
        ens = simulate_ito(inp.spec, inp.x0, T=FLAT_T, dt=FLAT_DT, N=inp.n_paths,
                           seed=inp.seed)
    sp["path_steps"] = ens.n_paths * ens.n_steps
    fld = _estimate(ens, inp.config, tr)
    with tr.span("meanderiv.mean_acceleration") as sp:
        accel = mean_acceleration(fld, 1.0)
    mask = accel.mask
    sp["valid_ratio"] = np.count_nonzero(mask) / max(np.count_nonzero(fld.mask), 1)

    # the nelson-ho pass rule, evaluated at the conditional means
    centers = np.stack(np.meshgrid(*inp.config.x_centers, indexing="ij"), axis=-1)
    pts = np.broadcast_to(centers, inp.config.shape + (1,))[mask].copy()
    known = np.isfinite(fld.cond_mean[mask]).all(axis=-1)
    pts[known] = fld.cond_mean[mask][known]
    target = -pts
    rel = (np.linalg.norm(accel.values[mask] - target, axis=-1)
           / np.maximum(np.linalg.norm(target, axis=-1), RELATIVE_FLOOR))
    sel = ((np.abs(pts[:, 0]) >= 0.2) & (np.abs(pts[:, 0]) <= 1.5)
           & (fld.count[mask] >= NELSON_MIN_COUNT))
    median = float(np.median(rel[sel])) if np.any(sel) else math.nan
    checks.add("nelson_median_relative_residual", median <= NELSON_TOL, median,
               note=f"{int(sel.sum())} qualifying bins")


def flat_threads1(inp: FlatInputs, tr) -> None:
    """Single-worker simulate_ito: the baseline the thread pool must beat."""
    before = os.environ.get("FRACTOID_THREADS")
    os.environ["FRACTOID_THREADS"] = "1"
    try:
        with tr.span("stochastic.simulate_ito.threads1"):
            simulate_ito(inp.spec, inp.x0, T=FLAT_T, dt=FLAT_DT, N=inp.n_paths,
                         seed=inp.seed)
    finally:
        if before is None:
            del os.environ["FRACTOID_THREADS"]
        else:
            os.environ["FRACTOID_THREADS"] = before


# --- sphere-io ---------------------------------------------------------------
# The README's CLI example (simulate -> estimate) through the library calls
# behind it, plus a frame-bundle lift on the same chart.  The example's
# 2000 paths and a 500-path lift make a pass of 15-20 s, one pass per run;
# half of each fits three passes into a run, whose median is steadier.

SPHERE_T, SPHERE_DT = 5.0, 0.005
FRAME_T, FRAME_DT = 1.0, 1e-3
FRAME_DEFECT_TOL = 1e-6


@dataclass(frozen=True)
class SphereInputs:
    seed: int
    chart: MetricChart
    n_paths: int
    n_frames: int
    x0: np.ndarray
    frame0: FrameState
    config: EstimatorConfig
    scratch: Path
    sizes: dict


def sphere_setup(seed: int, size: str, scratch: Path) -> SphereInputs:
    n, n_frames = {"full": (1000, 250), "tiny": (200, 50)}[size]
    chart = get_chart("sphere2")
    x0 = np.array([math.pi / 2, 0.0])
    fx0 = np.array([math.pi / 2, 0.3])
    frame0 = FrameState(fx0, orthonormal_frame(chart, fx0))
    config = EstimatorConfig.regular((0.0, 5.0), 4, (-2.0, 2.0), 16, dim=2,
                                     min_count=200)
    k, k_frame = round(SPHERE_T / SPHERE_DT), round(FRAME_T / FRAME_DT)
    sizes = {"N": n, "K": k, "dim": 2, "dt": SPHERE_DT, "csv_rows": n * (k + 1),
             "frame_N": n_frames, "frame_K": k_frame, "frame_dt": FRAME_DT,
             "computed_bytes": {"paths": n * (k + 1) * 2 * FLOAT_BYTES,
                                "frame_increments": n_frames * k_frame * 2 * FLOAT_BYTES}}
    return SphereInputs(seed, chart, n, n_frames, x0, frame0, config, scratch, sizes)


def sphere_run(inp: SphereInputs, tr, checks: Checks) -> None:
    inp.scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=inp.scratch))
    try:
        with tr.span("stochastic.simulate_manifold_diffusion") as sp:
            ens = simulate_manifold_diffusion(inp.chart, None, inp.x0, T=SPHERE_T,
                                              dt=SPHERE_DT, N=inp.n_paths, seed=inp.seed)
        sp["path_steps"] = ens.n_paths * ens.n_steps
        csv = tmp / "ensemble.csv"
        with tr.span("stochastic.write_csv") as sp:
            ens.write_csv(csv)
        sp["bytes"] = csv.stat().st_size
        with tr.span("stochastic.read_csv") as sp:
            back = PathEnsemble.read_csv(csv)
        sp["bytes"] = csv.stat().st_size
        checks.add("csv_roundtrip_bit_equal",
                   np.array_equal(back.paths, ens.paths)
                   and np.array_equal(back.times, ens.times))
        fld = _estimate(back, inp.config, tr)
        populated = fld.mask
        finite = all(np.all(np.isfinite(a[populated]))
                     for a in (fld.forward, fld.backward, fld.current, fld.osmotic,
                               fld.velocity_se))
        n_pop = int(np.count_nonzero(populated))
        checks.add("populated_bins_finite", n_pop > 0 and finite, n_pop)
        with tr.span("meanderiv.write_field_csv"):
            write_field_csv(fld, tmp / "meanderiv.csv")
        with tr.span("stochastic.frame_bundle_simulate", memory=True) as sp:
            fb = frame_bundle_simulate(inp.chart, inp.frame0.base_point, inp.frame0,
                                       T=FRAME_T, dt=FRAME_DT, N=inp.n_frames,
                                       seed=inp.seed)
        sp["path_steps"] = inp.n_frames * inp.sizes["frame_K"]
        defect = fb.max_orthonormality_defect(inp.chart)
        checks.add("frame_orthonormality_defect", defect <= FRAME_DEFECT_TOL, defect)
    finally:
        shutil.rmtree(tmp)


# --- suites ------------------------------------------------------------------
# The six verification suites no other workload covers: many small calls.

SUITES = ("sphere-geometry", "geodesic-variational", "whitenoise-cov",
          "dirac-algebra", "fractal-dim", "feynman-kac")

# The suites' Monte Carlo gates are 3-sigma tests, which the library's
# acceptance gate runs at seed 1234.  At any other seed each one raises a
# false alarm now and then: the largest of ten |z| exceeds 3 with
# probability 2.7 %, and six of 60 random seeds failed one of these five
# gates.  The benchmark runs at every seed it is given, so it holds them at
# MC_Z_LIMIT sigma instead: a false alarm below 1e-5 per gate, while a real
# bias, whose z grows with the sample count, still fails.  Every other check
# keeps the suite's own rule.  Each gate maps to the standard error of its
# value (1 for a z-score).
MC_Z_LIMIT = 5.0
MC_GATES = {
    "geodesic-variational.stochastic_energy_drift_z": 1.0,
    "geodesic-variational.stochastic_geodesic_mc_max_z": 1.0,
    "whitenoise-cov.pw_disjoint_support_z": 1.0,
    "whitenoise-cov.pw_orthonormal_family_max_z": 1.0,
    # relative deviation of a variance from 10 000 Gaussian samples
    "whitenoise-cov.pw_variance_rel_dev": math.sqrt(2 / 10_000),
}


def suite_check_passed(name: str, passed: bool, value: float) -> bool:
    """The suite's verdict, or for a Monte Carlo gate the MC_Z_LIMIT rule."""
    if name in MC_GATES:
        return value <= MC_Z_LIMIT * MC_GATES[name]
    return passed


@dataclass(frozen=True)
class SuiteInputs:
    configs: tuple[tuple[str, ExperimentConfig], ...]
    sizes: dict


def suites_setup(seed: int, size: str, scratch: Path) -> SuiteInputs:
    """The suites have fixed sizes, so ``size`` changes nothing here."""
    configs = tuple((name, ExperimentConfig(suite=name, seed=seed)) for name in SUITES)
    return SuiteInputs(configs, {"suites": list(SUITES)})


def suites_run(inp: SuiteInputs, tr, checks: Checks) -> None:
    with tr.span("cli.run_suite") as sp:
        for name, cfg in inp.configs:
            try:
                with tr.span(f"cli.run_suite.{name}"):
                    report = run_suite(name, cfg)
            except Exception as exc:  # a raising suite is one failed check
                checks.add(f"{name}.error", False, note=f"{type(exc).__name__}: {exc}")
                continue
            for c in report.checks:
                key = f"{name}.{c.name}"
                passed = suite_check_passed(key, c.passed, c.value)
                if passed and not c.passed:
                    print(f"note: {key} = {c.value:.4g} fails the suite's 3-sigma "
                          f"rule at this seed, within {MC_Z_LIMIT:g} sigma",
                          file=sys.stderr)
                checks.add(key, passed, c.value, c.note)
        sp["checks"] = len(checks.results)


WORKLOADS = {w.name: w for w in (
    Workload("flat-ensemble", flat_setup, flat_run,
             checks=("nelson_median_relative_residual",), baseline=flat_threads1),
    Workload("sphere-io", sphere_setup, sphere_run,
             checks=("csv_roundtrip_bit_equal", "populated_bins_finite",
                     "frame_orthonormality_defect")),
    Workload("suites", suites_setup, suites_run),
)}
