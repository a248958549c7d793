"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1234", "--seconds", "1",
                           "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_unit(workload):
    result = _result(_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / workloads.SCRATCH_DIR).exists()


def test_traced_runs_report_every_per_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert result["metrics"]["bench.layer_coverage_ratio"]["value"] >= 0.9
    # every declared metric is measured by some workload, so none is a typo
    unmeasured = [name for name in declared
                  if name != "bench.trace_overhead_s"
                  and all(r["metrics"][name]["value"] == 0 for r in traced.values())]
    assert unmeasured == []


def _fake(run_fn, checks=("rule",)):
    return workloads.Workload("fake", lambda seed, size, scratch: None, run_fn,
                              checks=checks)


def test_failing_pass_rule_is_counted_not_raised():
    m = run.measure(_fake(lambda inp, tr, ch: ch.add("rule", False, 1.0)),
                    None, seconds=0, trace=False)
    metrics = run.end_to_end(m, setup_s=1.0)
    assert (m.attempted, m.failed) == (1, 1)
    assert metrics["check_pass_ratio"] < 1.0


def test_layer_exception_fails_the_remaining_checks():
    def boom(inp, tr, ch):
        ch.add("first", True, 0.0)
        raise RuntimeError("layer failed")

    m = run.measure(_fake(boom, checks=("first", "second", "third")), None,
                    seconds=0, trace=True)
    assert (m.attempted, m.failed) == (6, 4)
    assert run.end_to_end(m, setup_s=1.0)["check_pass_ratio"] == pytest.approx(2 / 6)


def test_monte_carlo_gates_are_held_at_five_sigma_and_nothing_else_is():
    gate = "geodesic-variational.stochastic_geodesic_mc_max_z"
    assert workloads.suite_check_passed(gate, False, 3.49)
    assert not workloads.suite_check_passed(gate, False, 5.01)
    assert not workloads.suite_check_passed(gate, False, float("nan"))
    assert workloads.suite_check_passed("whitenoise-cov.pw_variance_rel_dev", False, 0.06)
    assert not workloads.suite_check_passed("whitenoise-cov.pw_variance_rel_dev",
                                            False, 0.08)
    # a deterministic check keeps the suite's verdict whatever its value
    assert not workloads.suite_check_passed(
        "geodesic-variational.stochastic_geodesic_analytic_residual", False, 0.0)
    # every gate names a check the suites really report
    report = {f"{s}.{c.name}" for s in workloads.SUITES
              for c in workloads.run_suite(
                  s, workloads.ExperimentConfig(suite=s, seed=1234)).checks
              if s in ("geodesic-variational", "whitenoise-cov")}
    assert set(workloads.MC_GATES) <= report


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("suites", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
