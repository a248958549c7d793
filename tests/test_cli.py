"""Configuration handling, CLI subcommands, exit codes, and report merging."""

import json

import numpy as np
import pytest

from fractoid.cli.config import ExperimentConfig, load_config, make_drift
from fractoid.cli import main as cli_main
from fractoid.cli.main import main
from fractoid.cli.suites import SuiteReport, run_suite
from fractoid.errors import ConfigError
from fractoid.stochastic import ItoProcessSpec, simulate_ito


def test_load_config_json_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"chart": "sphere2", "n_paths": 50,
                                    "seed": 7, "dt": 0.02}))
    cfg = load_config(str(cfg_file), ["n_paths=99", "drift=ou"])
    assert cfg.chart == "sphere2"
    assert cfg.n_paths == 99          # --set wins over the file
    assert cfg.drift == "ou"
    assert cfg.seed == 7


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ConfigError, match="nope"):
        load_config(str(cfg_file))
    with pytest.raises(ConfigError, match="--set"):
        load_config(None, ["badpair"])


def test_config_requires_seed():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate()


def test_drift_registry():
    assert make_drift("zero") is None
    ou = make_drift("ou", omega=2.0)
    x = np.array([[1.0], [2.0]])
    assert np.allclose(ou(0.0, x), -2.0 * x)
    const = make_drift("const:0.5,-1.0")
    assert np.allclose(const(0.0, np.zeros((3, 2))), [0.5, -1.0])
    with pytest.raises(ConfigError):
        make_drift("warp")


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    args = ["simulate", "--out", str(tmp_path / "a"), "--seed", "5",
            "--set", "n_paths=20", "--set", "t_final=0.1", "--set", "dt=0.01"]
    assert main(args) == 0
    assert main(["simulate", "--out", str(tmp_path / "b"), "--seed", "5",
                 "--set", "n_paths=20", "--set", "t_final=0.1",
                 "--set", "dt=0.01"]) == 0
    a = (tmp_path / "a" / "ensemble.csv").read_bytes()
    b = (tmp_path / "b" / "ensemble.csv").read_bytes()
    assert a == b


def test_simulate_unknown_chart_exit_2(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path), "--seed", "1",
                 "--set", "chart=sphere3"])
    assert code == 2
    assert "sphere3" in capsys.readouterr().err


@pytest.mark.parametrize("x0", [
    "[1.5,0.0,0.0]",              # wrong length for the 2-d sphere chart
    "[[1.5,0.0],[1.5,0.5]]",      # two rows for three paths
    "[0.0,0.0]",                  # on the pole, outside the chart's valid region
])
def test_simulate_bad_start_exit_2(tmp_path, capsys, x0):
    code = main(["simulate", "--out", str(tmp_path), "--seed", "1",
                 "--set", "chart=sphere2", "--set", f"x0={x0}",
                 "--set", "n_paths=3", "--set", "t_final=0.1", "--set", "dt=0.05"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_simulate_zero_paths_exit_2(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path), "--seed", "1",
                 "--set", "n_paths=0"])
    assert code == 2
    assert "n_paths" in capsys.readouterr().err


def test_simulate_negative_epsilon_on_chart_exit_2(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path), "--seed", "1",
                 "--set", "chart=sphere2", "--set", "epsilon=-1",
                 "--set", "n_paths=5", "--set", "t_final=0.1"])
    assert code == 2
    assert "epsilon must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--seed", "1", "--set", "n_paths=1.5"], "n_paths"),
    (["estimate", "--seed", "1", "--set", "est_x_bins=2.5"], "est_x_bins"),
    (["verify", "--suite", "dirac-algebra", "--set", "seed=1.5"], "seed"),
    (["noise", "--seed", "1", "--set", "lattice_d=1.5"], "lattice_d"),
    (["dirac"], "seed"),                      # the seed is mandatory here too
    (["report", "--set", "out_dir=7"], "out_dir"),
    (["simulate", "--seed", "1", "--set", 'x0=["a",1]'], "x0"),
    (["simulate", "--seed", "1", "--set", "x0=[true,1]"], "x0"),
], ids=["simulate", "estimate", "verify", "noise", "dirac", "report", "x0-string",
        "x0-bool"])
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, argv, key):
    if argv[0] == "estimate":
        # a readable ensemble, so estimate reaches the value it is given
        assert main(["simulate", "--out", str(tmp_path), "--seed", "1",
                     "--set", "n_paths=5", "--set", "t_final=0.05"]) == 0
        capsys.readouterr()
        argv = argv + ["--ensemble", str(tmp_path / "ensemble.csv")]
    if argv[0] != "report":                   # report's --out would override the key
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "t_final", "NaN"),
    ("simulate", "dt", "NaN"),
    ("simulate", "epsilon", "NaN"),
    ("simulate", "t_final", "Infinity"),
    ("simulate", "x0", "[NaN]"),
    ("simulate", "t_final", str(10**400)),    # an integer no float holds
    ("estimate", "est_x_min", "NaN"),
], ids=["t_final", "dt", "epsilon", "t_final-inf", "x0", "t_final-huge-int", "est_x_min"])
def test_config_non_finite_number_exit_2(tmp_path, capsys, command, key, value):
    argv = [command, "--seed", "1", "--set", f"{key}={value}",
            "--out", str(tmp_path / "out")]
    if command == "estimate":
        assert main(["simulate", "--out", str(tmp_path), "--seed", "1",
                     "--set", "n_paths=5", "--set", "t_final=0.05"]) == 0
        capsys.readouterr()
        argv += ["--ensemble", str(tmp_path / "ensemble.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


def test_load_config_type_rules(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"epsilon": 2, "x0": None, "seed": 3}))
    cfg = load_config(str(cfg_file), ["t_final=0.5", "min_count=\"40\""])
    assert (cfg.epsilon, cfg.t_final, cfg.min_count) == (2, 0.5, 40)
    for bad in ("lag=true", "chart=2", "x0=1.0", "epsilon=\"fast\"", 'x0=["a",1]',
                "x0=[true,1]"):
        with pytest.raises(ConfigError, match=bad.split("=")[0]):
            load_config(str(cfg_file), [bad])


def test_estimate_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3",
                 "--set", "n_paths=400", "--set", "drift=ou"]) == 0
    code = main(["estimate", "--ensemble", str(out / "ensemble.csv"),
                 "--out", str(out), "--seed", "3", "--set", "min_count=50"])
    assert code == 0
    header = (out / "meanderiv.csv").read_text().splitlines()[0]
    assert header.startswith("t,x0,count,D+_0")


def test_estimate_bins_time_from_the_ensembles_first_time(tmp_path, capsys):
    # a Wiener ensemble restricted to t in [1, 2]: binning from t = 0 left
    # the two early time bins, 32 of the 64 field rows, without a sample
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=2.0, dt=1.0 / 64, N=2000, seed=5).restrict(64, 128)
    path = tmp_path / "late.csv"
    ens.write_csv(path)
    assert main(["estimate", "--ensemble", str(path), "--out", str(tmp_path),
                 "--seed", "5", "--set", "min_count=20"]) == 0
    rows = np.loadtxt(tmp_path / "meanderiv.csv", delimiter=",", skiprows=1)
    t, count = rows[:, 0], rows[:, 2]
    assert np.array_equal(np.unique(t), [1.125, 1.375, 1.625, 1.875])
    assert all(count[t == c].sum() > 0 for c in np.unique(t))


@pytest.mark.parametrize("damage", ["missing", "corrupt manifest", "manifest without seed",
                                    "list manifest", "list seed", "one row per path"])
def test_estimate_unreadable_ensemble_exit_2(tmp_path, capsys, damage):
    path = tmp_path / "ensemble.csv"
    mpath = tmp_path / "ensemble.manifest.json"
    if damage != "missing":
        assert main(["simulate", "--out", str(tmp_path), "--seed", "3",
                     "--set", "n_paths=4", "--set", "t_final=0.1"]) == 0
    if damage == "one row per path":       # each path's step 0 only: a one-node grid
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [r for r in rows if r.split(",")[1] == "0"])
                        + "\n")
    elif damage != "missing":
        manifest = json.loads(mpath.read_text())
        seed = manifest.pop("seed")
        mpath.write_text({"corrupt manifest": "not json",
                          "manifest without seed": json.dumps(manifest),
                          "list manifest": json.dumps([manifest]),
                          "list seed": json.dumps({**manifest, "seed": [seed]})}[damage])
    code = main(["estimate", "--ensemble", str(path), "--out", str(tmp_path),
                 "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err
    if damage == "list seed":
        assert str(mpath) in err and "'seed'" in err


def test_estimate_ensemble_with_foreign_time_exit_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--seed", "3",
                 "--set", "n_paths=4", "--set", "t_final=0.1"]) == 0
    path = tmp_path / "ensemble.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("3,2,"))
    fields = lines[row].split(",")
    fields[2] = "7.5"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["estimate", "--ensemble", str(path), "--out", str(tmp_path),
                 "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "path 3 has t = 7.5 at step 2" in err


def test_verify_dirac_algebra(tmp_path, capsys):
    code = main(["verify", "--suite", "dirac-algebra", "--seed", "11",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report-dirac-algebra.json").read_text())
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {"gamma_anticommutators"}
    table = (tmp_path / "report-dirac-algebra.txt").read_text()
    assert "PASS" in table


def test_verify_unknown_suite_lists_options(tmp_path, capsys):
    code = main(["verify", "--suite", "made-up", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "dirac-algebra" in err and "nelson-ho" in err
    # the suite name is checked before the output directory is made
    assert main(["verify", "--suite", "made-up", "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_verify_json_byte_identical(tmp_path):
    for sub in ("x", "y"):
        assert main(["verify", "--suite", "dirac-algebra", "--seed", "42",
                     "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "x" / "report-dirac-algebra.json").read_bytes()
    b = (tmp_path / "y" / "report-dirac-algebra.json").read_bytes()
    assert a == b


def test_verify_nelson_ho_undersampled_fails(tmp_path, capsys):
    code = main(["verify", "--suite", "nelson-ho", "--seed", "9",
                 "--set", "n_paths=10", "--out", str(tmp_path)])
    assert code == 1
    payload = json.loads((tmp_path / "report-nelson-ho.json").read_text())
    assert payload["passed"] is False
    assert "insufficient samples" in payload["checks"][0]["note"]


def test_simulate_custom_json_chart(tmp_path):
    chart_file = tmp_path / "cone.json"
    chart_file.write_text(json.dumps({
        "name": "cone", "dimension": 2, "signature": [0, 2],
        "diagonal_entries": ["1", "0.25*x0^2 + 0.1"]}))
    code = main(["simulate", "--seed", "3", "--set", f"chart={chart_file}",
                 "--set", "n_paths=10", "--set", "t_final=0.1",
                 "--set", "x0=[1.0,0.5]", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "ensemble.manifest.json").read_text())
    assert manifest["chart"] == "cone"


def test_simulate_json_chart_signature_mismatch_exit_2(tmp_path, capsys):
    chart_file = tmp_path / "flat.json"
    chart_file.write_text(json.dumps({
        "name": "mislabelled", "dimension": 2, "signature": [1, 1],
        "diagonal_entries": ["1", "1"]}))
    code = main(["simulate", "--seed", "3", "--set", f"chart={chart_file}",
                 "--set", "n_paths=4", "--set", "t_final=0.1",
                 "--set", "x0=[1.0,0.5]", "--out", str(tmp_path)])
    assert code == 2
    assert "mislabelled" in capsys.readouterr().err


def test_noise_and_dirac_commands(tmp_path):
    assert main(["noise", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "whitenoise.bin").exists()
    manifest = json.loads((tmp_path / "whitenoise.manifest.json").read_text())
    assert manifest["seed"] == 4
    assert main(["dirac", "--seed", "4", "--out", str(tmp_path)]) == 0
    gam = json.loads((tmp_path / "gammas.json").read_text())
    assert gam["convention"] == "dirac-basis"


def test_report_merging(tmp_path, capsys):
    src = tmp_path / "reports"
    for suite in ("dirac-algebra", "sphere-geometry"):
        assert main(["verify", "--suite", suite, "--seed", "2",
                     "--out", str(src)]) == 0
    assert main(["report", "--dir", str(src), "--out", str(tmp_path),
                 "--seed", "2"]) == 0
    merged = (tmp_path / "merged.csv").read_text().splitlines()
    assert merged[0] == "suite,check,value,target,tolerance,status"
    suites = [line.split(",")[0] for line in merged[1:]]
    assert suites == sorted(suites)
    assert (tmp_path / "plot.csv").read_text().startswith("x,value,tolerance")


def test_report_single_identity_merge(tmp_path):
    src = tmp_path / "one"
    assert main(["verify", "--suite", "dirac-algebra", "--seed", "2",
                 "--out", str(src)]) == 0
    assert main(["report", "--dir", str(src), "--out", str(tmp_path / "m"),
                 "--seed", "2"]) == 0
    payload = json.loads((src / "report-dirac-algebra.json").read_text())
    merged = (tmp_path / "m" / "merged.csv").read_text().splitlines()
    assert len(merged) - 1 == len(payload["checks"])


def test_report_duplicate_check_error(tmp_path, capsys):
    src = tmp_path / "dups"
    src.mkdir()
    payload = {"suite": "s", "passed": True,
               "checks": [{"name": "c", "value": 1.0, "target": 1.0,
                           "tolerance": 0.1, "passed": True, "note": ""}]}
    (src / "report-a.json").write_text(json.dumps(payload))
    (src / "report-b.json").write_text(json.dumps(payload))
    code = main(["report", "--dir", str(src), "--out", str(tmp_path),
                 "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "report-a.json" in err or "report-b.json" in err


def test_report_malformed_file_exit_2(tmp_path, capsys):
    (tmp_path / "report-a.json").write_text(json.dumps([{"suite": "s"}]))
    code = main(["report", "--dir", str(tmp_path), "--out", str(tmp_path),
                 "--seed", "1"])
    assert code == 2
    assert "report-a.json" in capsys.readouterr().err


@pytest.mark.parametrize("check", [{"name": "c"},
                                   {"name": "c", "value": "1.0", "target": 1.0,
                                    "tolerance": 0.1, "passed": True},
                                   {"name": "c", "value": 1.0, "target": 1.0,
                                    "tolerance": 0.1, "passed": 1},
                                   "c"],
                         ids=["missing keys", "string value", "integer passed",
                              "not an object"])
def test_report_malformed_check_exit_2(tmp_path, capsys, check):
    (tmp_path / "report-a.json").write_text(json.dumps({"suite": "s", "checks": [check]}))
    code = main(["report", "--dir", str(tmp_path), "--out", str(tmp_path),
                 "--seed", "1"])
    assert code == 2
    assert "report-a.json" in capsys.readouterr().err


def test_report_empty_directory_errors(tmp_path, capsys):
    code = main(["report", "--dir", str(tmp_path), "--out", str(tmp_path),
                 "--seed", "1"])
    assert code == 2


def test_verify_values_identical_on_repeat(tmp_path):
    for sub in ("a", "b"):
        assert main(["verify", "--suite", "fractal-dim", "--seed", "6",
                     "--out", str(tmp_path / sub)]) == 0
    a = json.loads((tmp_path / "a" / "report-fractal-dim.json").read_text())
    b = json.loads((tmp_path / "b" / "report-fractal-dim.json").read_text())
    assert a == b


def test_noise_lattice_step_that_does_not_divide_exit_2(tmp_path, capsys):
    assert main(["noise", "--seed", "1", "--set", "lattice_dt=0.3",
                 "--out", str(tmp_path)]) == 2
    assert "dt=0.3" in capsys.readouterr().err
    assert not (tmp_path / "whitenoise.bin").exists()


def test_noise_resource_error_exit_3(tmp_path, capsys):
    code = main(["noise", "--seed", "1", "--out", str(tmp_path),
                 "--set", "lattice_d=4", "--set", "lattice_dx=0.01",
                 "--set", "lattice_dt=0.001"])
    assert code == 3
    assert "cells" in capsys.readouterr().err


def test_suite_report_rejects_duplicate_names():
    from fractoid.cli.suites import SuiteCheck
    chk = SuiteCheck(name="a", value=0.0, target=0.0, tolerance=1.0,
                     passed=True, runtime=0.0)
    with pytest.raises(ConfigError):
        SuiteReport(suite="s", checks=[chk, chk])


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError, match="feynman-kac"):
        run_suite("bogus", ExperimentConfig(seed=1))


_OUT_ARGS = {
    "simulate": ["--set", "n_paths=5", "--set", "t_final=0.1"],
    "estimate": ["--ensemble", "{run}/ensemble.csv", "--set", "min_count=20"],
    "verify": ["--suite", "dirac-algebra"],
    "noise": [],
    "dirac": [],
    "report": ["--dir", "{run}"],
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """An ensemble and a suite report for the commands that read them."""
    run = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--seed", "7", "--set", "chart=sphere2", "--set", "n_paths=50",
                 "--set", "t_final=0.5", "--out", str(run)]) == 0
    assert main(["verify", "--suite", "dirac-algebra", "--seed", "7",
                 "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", _OUT_ARGS)
def test_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, cli_inputs, command,
                                               under, monkeypatch):
    # the directory was made with mkdir, whose FileExistsError or
    # NotADirectoryError ended in a traceback and exit 1; and the output
    # directory is made before the work, so a bad --out costs no suite run
    # and no estimate
    def not_called(*args, **kwargs):
        raise AssertionError("the work ran before the output directory was made")

    monkeypatch.setattr(cli_main, "run_suite", not_called)
    monkeypatch.setattr(cli_main, "estimate_velocity_fields", not_called)
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "sub" if under else blocker
    argv = [command, "--seed", "7", "--out", str(out)]
    argv += [a.format(run=cli_inputs) for a in _OUT_ARGS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot make output directory '{out}': ")
    assert "Traceback" not in err


_UNREADABLE = {
    # a traceback and exit 1 before
    "config-directory": ("run.json", lambda p: p.mkdir()),
    "config-not-utf8": ("run.json", lambda p: p.write_bytes(b'{"seed": 1, \xff}')),
    "config-bad-toml": ("run.toml", lambda p: p.write_text("seed = [\n")),
    "config-number": ("run.json", lambda p: p.write_text("5")),
    "config-null": ("run.json", lambda p: p.write_text("null")),
    # exit 2, but a false "unknown config key" message before
    "config-list": ("run.json", lambda p: p.write_text("[1]")),
    "config-string": ("run.json", lambda p: p.write_text('"seed"')),
    # a report-*.json that is a directory: a traceback and exit 1 before
    "report-directory": ("report-x.json", lambda p: p.mkdir()),
}


@pytest.mark.parametrize("case", _UNREADABLE)
def test_unreadable_config_or_report_exit_2(tmp_path, capsys, case):
    name, make = _UNREADABLE[case]
    path = tmp_path / name
    make(path)
    if case.startswith("report"):
        argv = ["report", "--dir", str(tmp_path), "--seed", "1"]
    else:
        argv = ["dirac", "--seed", "1", "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(path) in err
    assert "Traceback" not in err
