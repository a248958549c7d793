"""Steadiness runs: run each workload once per seed, one run at a time, and
report for every end-to-end metric its median, quartiles and spread (the
interquartile distance as a share of the median) next to its bound.

    python3 perfbench/steady.py --seeds 1234 1235 1236 1237 1238 \
        1239 1240 1241 1242 1243 --trace-seed 1234 \
        --out perfbench/trajectory/BENCH_1.json

Without --workloads every workload of BENCHMARK.json runs.  --trace-seed
adds one traced run per workload, whose per-layer metrics are stored with
the end-to-end summary.  A spread below a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, provenance)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "steady": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds,
               "trace_seed": args.trace_seed, "workloads": {}}
    ok = True
    for name in names:
        results, elapsed = [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result, prov = run_once(name, seed, seconds, 0)
            elapsed.append(time.perf_counter() - t0)
            results.append(result)
            print(f"{name} seed {seed} ({elapsed[-1]:.1f} s): correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()), flush=True)
        entry = {"provenance": prov,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "all_correct": all(r["correct"] for r in results),
                 "run_elapsed_s": elapsed,
                 "end_to_end": {}}
        ok &= entry["all_correct"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = dict(
                unit=metric["unit"], **summarize(values, metric["bound"]))
            s = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} {'steady' if s['steady'] else 'NOT STEADY'}",
                  flush=True)
        if args.trace_seed is not None:
            traced, _ = run_once(name, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "per_layer": {k: v["value"] for k, v
                                             in traced["metrics"].items()}}
            ok &= traced["correct"]
        summary["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
