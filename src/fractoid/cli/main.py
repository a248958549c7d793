"""Command line entry point.

Usage:
    fractoid simulate|estimate|verify|noise|dirac|report
             [--config FILE] [--set k=v]... [--out DIR] [--seed S] ...

Exit codes: 0 pass, 1 check failure, 2 configuration error,
3 runtime/resource error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..dirac import build_gammas, clifford_relation_check
from ..errors import ConfigError, FractoidError, ParameterError
from ..meanderiv import EstimatorConfig, estimate_velocity_fields, write_field_csv
from ..persistence import NUMBER, check_fields, read_manifest, write_table
from ..stochastic import (
    ItoProcessSpec,
    PathEnsemble,
    make_stream,
    simulate_ito,
    simulate_manifold_diffusion,
)
from ..whitenoise import SpaceTimeLattice, sample_white_noise
from .config import ExperimentConfig, load_config, make_drift, resolve_chart
from .suites import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# what cmd_report reads of each check in a report-*.json
_REPORT_CHECK = {"name": str, "value": NUMBER, "target": NUMBER, "tolerance": NUMBER,
                 "passed": bool}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fractoid",
                                     description="stochastic mechanics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON (or TOML) config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (wins)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="write a path ensemble CSV + manifest")
    common(p_sim)
    p_est = sub.add_parser("estimate", help="estimate mean-derivative fields")
    common(p_est)
    p_est.add_argument("--ensemble", required=True, help="ensemble CSV to read")
    p_ver = sub.add_parser("verify", help="run a named verification suite")
    common(p_ver)
    p_ver.add_argument("--suite", default=None,
                       help="suite name (or config key 'suite')")
    p_noise = sub.add_parser("noise", help="sample white noise to binary + manifest")
    common(p_noise)
    p_dirac = sub.add_parser("dirac", help="export gamma matrices and self-check")
    common(p_dirac)
    p_rep = sub.add_parser("report", help="merge suite reports into CSV tables")
    common(p_rep)
    p_rep.add_argument("--dir", dest="report_dir", default=None,
                       help="directory holding report-*.json files")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    direct = {"seed": args.seed}
    if args.out is not None:
        direct["out_dir"] = args.out
    return load_config(args.config, args.overrides, **direct)


def _out_dir(cfg) -> Path:
    """The output directory, made if missing; a ConfigError names it if it cannot be."""
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory '{cfg.out_dir}': {exc}") from exc
    return Path(cfg.out_dir)


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    if cfg.n_paths < 1:
        raise ConfigError("config key 'n_paths' must be >= 1 for simulate")
    chart = resolve_chart(cfg.chart)
    drift = make_drift(cfg.drift, cfg.omega)
    path = _out_dir(cfg) / "ensemble.csv"
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else _default_start(chart)
    if cfg.chart.startswith("euclidean:"):
        spec = ItoProcessSpec(
            drift=drift if drift is not None else (lambda t, x: np.zeros_like(x)),
            diffusion_const=cfg.epsilon, dimension=chart.dimension)
        ens = simulate_ito(spec, x0, cfg.t_final, cfg.dt, cfg.n_paths, cfg.seed)
    else:
        ens = simulate_manifold_diffusion(chart, drift, x0, cfg.t_final, cfg.dt,
                                          cfg.n_paths, cfg.seed, epsilon=cfg.epsilon)
    ens.meta["drift_name"] = cfg.drift
    ens.write_csv(path)
    print(f"wrote {path}")
    return EXIT_OK


def _default_start(chart) -> np.ndarray:
    if chart.name == "sphere2":
        return np.array([np.pi / 2, 0.0])
    if chart.name in ("hyperbolic2", "polar2"):
        return np.array([1.0, 0.0])
    for candidate in (np.zeros(chart.dimension), np.ones(chart.dimension)):
        if np.all(chart.is_valid(candidate)):
            return candidate
    raise ConfigError(f"no default start point for chart '{chart.name}'; "
                      "set the 'x0' config key")


def cmd_estimate(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    try:
        ens = PathEnsemble.read_csv(args.ensemble)
    except (OSError, ValueError, ParameterError) as exc:   # missing or malformed
        raise ConfigError(f"cannot read ensemble '{args.ensemble}': {exc}") from exc
    est = EstimatorConfig.regular(
        (0.0, ens.t_final), cfg.est_t_bins,
        (cfg.est_x_min, cfg.est_x_max), cfg.est_x_bins, dim=ens.dimension,
        min_count=cfg.min_count, lag=cfg.lag, causal_split=cfg.causal_split)
    field = estimate_velocity_fields(ens, est)
    path = _out_dir(cfg) / "meanderiv.csv"
    write_field_csv(field, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    cfg.suite = args.suite or cfg.suite
    cfg.validate(need_suite=True)
    report = run_suite(cfg.suite, cfg)
    jpath, tpath = report.write(_out_dir(cfg))
    print(report.to_table())
    print(f"wrote {jpath} and {tpath}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_noise(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    lattice = SpaceTimeLattice(t_extent=cfg.lattice_t, dt=cfg.lattice_dt,
                               half_width=cfg.lattice_l, dx=cfg.lattice_dx,
                               d=cfg.lattice_d)
    sample = sample_white_noise(lattice, cfg.seed)
    path = _out_dir(cfg) / "whitenoise.bin"
    sample.write(path)
    print(f"wrote {path} ({lattice.n_cells} cells)")
    return EXIT_OK


def cmd_dirac(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    gammas = build_gammas()
    path = _out_dir(cfg) / "gammas.json"
    path.write_text(gammas.to_json() + "\n", encoding="utf8")
    rng = make_stream(cfg.seed, 0)
    worst = max(clifford_relation_check(rng.normal(size=4), rng.normal(size=4),
                                        gammas) for _ in range(10))
    print(f"wrote {path}; clifford residual <= {worst:.3e}")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _config_from_args(args)
    src = Path(args.report_dir or cfg.out_dir)
    files = sorted(src.glob("report-*.json"))
    if not files:
        raise ConfigError(f"no report-*.json files in {src}")
    rows = []
    seen: dict[str, str] = {}
    for f in files:
        payload = read_manifest(f, {"suite": str, "checks": list})
        for i, chk in enumerate(payload["checks"]):
            check_fields(chk, _REPORT_CHECK, f"{f}: check {i}")
            key = f"{payload['suite']}/{chk['name']}"
            if key in seen:
                raise ConfigError(f"duplicate check '{key}' in {f.name} "
                                  f"and {seen[key]}")
            seen[key] = f.name
            rows.append((payload["suite"], chk["name"], chk["value"],
                         chk["target"], chk["tolerance"],
                         "PASS" if chk["passed"] else "FAIL"))
    rows.sort(key=lambda r: (r[0], r[1]))
    out = _out_dir(cfg)
    columns = [[r[j] for r in rows] for j in range(6)]
    merged, plot = out / "merged.csv", out / "plot.csv"
    write_table(merged, ["suite", "check", "value", "target", "tolerance", "status"],
                [columns])
    write_table(plot, ["x", "value", "tolerance"],
                [[[f"{r[0]}/{r[1]}" for r in rows], columns[2], columns[4]]])
    print(f"wrote {merged} and {plot} ({len(rows)} checks)")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "noise": cmd_noise,
    "dirac": cmd_dirac,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FractoidError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
