"""fractoid benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload flat-ensemble --seed 1234 \
        --seconds 35 --trace 0

With ``--trace 0`` the passes run untraced and the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` one more pass
runs under the tracer and the line carries the per-layer metrics instead.
Spans and provenance are printed as JSON lines before it.  The program under
test is the fractoid source in ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class Measurement:
    walls: list[float]          # untraced pass times
    attempted: int
    failed: int
    traced_wall: float | None = None
    tracer: object = None


def run_pass(workload, inputs, tracer):
    """One pass; returns (seconds, Checks).  Exceptions become failed checks."""
    from workloads import Checks   # imports fractoid, so only once src is on the path
    checks = Checks()
    tracer.run_id += 1
    t0 = time.perf_counter()
    with tracer.span("pass"):
        try:
            workload.run(inputs, tracer, checks)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            checks.fail_missing(workload.checks, exc)
    wall = time.perf_counter() - t0
    for c in checks.results:
        if not c.passed:
            print(f"check failed: {workload.name}/{c.name} = {c.value} {c.note}",
                  file=sys.stderr)
    return wall, checks


def measure(workload, inputs, seconds: float, trace: bool) -> Measurement:
    """Untraced passes until the next one would overrun ``seconds`` (at least
    one); with trace, then one traced pass and the workload's baseline."""
    off = Tracer(enabled=False)
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        wall, checks = run_pass(workload, inputs, off)
        walls.append(wall)
        print(f"pass {len(walls)}: {wall:.3f} s", file=sys.stderr)
        attempted += len(checks.results)
        failed += checks.failed
        if time.perf_counter() - start + wall > seconds:
            break
    m = Measurement(walls, attempted, failed)
    if trace:
        m.tracer = Tracer(enabled=True)
        m.traced_wall, checks = run_pass(workload, inputs, m.tracer)
        m.attempted += len(checks.results)
        m.failed += checks.failed
        if workload.baseline is not None:
            m.tracer.run_id += 1
            m.attempted += 1
            try:
                workload.baseline(inputs, m.tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                m.failed += 1
    return m


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(m.walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "check_pass_ratio": (m.attempted - m.failed) / max(m.attempted, 1),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    out = m.tracer.metrics()
    root = m.tracer.spans[0]                  # the traced pass
    covered = sum(s["end"] - s["start"] for s in m.tracer.spans if s["parent"] == 0)
    out["bench.trace_overhead_s"] = m.traced_wall - statistics.median(m.walls)
    out["bench.layer_coverage_ratio"] = covered / (root["end"] - root["start"])
    return out


def setup_seconds(workload: str, seed: int, size: str) -> float:
    """Median over fresh interpreters of importing fractoid plus set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload,
                               str(seed), size], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def provenance(args, inputs) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
              .read_text().strip())
    except OSError:
        l3 = None
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "fractoid_threads_set": "FRACTOID_THREADS" in os.environ,
        "l3_cache": l3,
        # byte figures under "computed_bytes" come from array shapes, not
        # from a measurement
        "inputs": inputs.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for smoke tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fractoid" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC}/fractoid and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf8"))
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; available: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_s = setup_seconds(args.workload, args.seed, args.size)
    inputs = workload.setup(args.seed, args.size, ROOT / workloads.SCRATCH_DIR)
    try:
        m = measure(workload, inputs, args.seconds, bool(args.trace))
    finally:
        try:
            (ROOT / workloads.SCRATCH_DIR).rmdir()
        except OSError:
            pass

    if args.trace:
        values, declared = per_layer(m), spec["per_layer"]
        print(json.dumps({"spans": m.tracer.spans}))
    else:
        values, declared = end_to_end(m, setup_s), spec["end_to_end"]
    print(json.dumps({"provenance": provenance(args, inputs)}))
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
               for d in declared}
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
