"""Byte-exact pins for every file fractoid writes: the ensemble, field and
wavefunction CSV tables, the white-noise binary, each one's JSON manifest,
and the report command's merged.csv and plot.csv.

Each case writes small seeded objects into a temporary directory and hashes
the exact bytes of every file written.  The digests were recorded before
the writers shared one persistence module and must not change when the
writers are refactored.  The sampled values come from counter streams, so
a numpy upgrade that changes its normal sampler would change them
legitimately; `python tests/test_file_digests.py` with src/ on PYTHONPATH
prints the current digests.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fractoid.cli.main import main
from fractoid.meanderiv import EstimatorConfig, estimate_velocity_fields, write_field_csv
from fractoid.nelson import make_wavefunction
from fractoid.stochastic import ItoProcessSpec, simulate_ito
from fractoid.whitenoise import SpaceTimeLattice, sample_white_noise

SEED = 2718


def _ensemble(out):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.7, dimension=2)
    ens = simulate_ito(spec, [0.3, -0.1], T=0.05, dt=0.01, N=6, seed=SEED)
    ens.meta["drift_name"] = "ou"
    ens.write_csv(out / "ensemble.csv")


def _field(out):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=0.2, dt=0.01, N=400, seed=SEED)
    # the outer space bins stay below min_count, so NaN rows are pinned too
    cfg = EstimatorConfig.regular((0.0, 0.2), 2, (-1.5, 1.5), 5, min_count=30)
    write_field_csv(estimate_velocity_fields(ens, cfg), out / "meanderiv.csv")


def _wavefunction(out):
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.7, 4))
    make_wavefunction("plane-wave(1.3,-0.4)", axes, hbar=0.9,
                      mass=1.1).write_csv(out / "psi.csv")


def _noise(out):
    lat = SpaceTimeLattice(t_extent=0.5, dt=0.125, half_width=0.5, dx=0.25, d=1)
    sample_white_noise(lat, SEED).write(out / "whitenoise.bin")


def _report(out):
    src = out / "reports"
    src.mkdir()
    for suite, checks in (("b-suite", [("z", 1e-300, 0.0, 0.1, True),
                                       ("a", 2.0 / 3.0, 1.0, 0.05, False)]),
                          ("a-suite", [("only", -12345.678, 0.0, 1e6, True)])):
        payload = {"suite": suite, "passed": all(c[4] for c in checks),
                   "checks": [{"name": n, "value": v, "target": t, "tolerance": tol,
                               "passed": p, "note": ""} for n, v, t, tol, p in checks]}
        (src / f"report-{suite}.json").write_text(json.dumps(payload))
    assert main(["report", "--dir", str(src), "--out", str(out), "--seed", "1"]) == 0
    for f in src.iterdir():
        f.unlink()
    src.rmdir()


CASES = {
    "ensemble": _ensemble,
    "field": _field,
    "wavefunction": _wavefunction,
    "noise": _noise,
    "report": _report,
}

# sha256 of each written file's bytes, recorded before the writers shared
# one persistence module
DIGESTS = {
    "ensemble": {
        "ensemble.csv":
            "0137cb8e032d5325d7c820f86ba8a6b8cc7f637943de992dd631955758bbb487",
        "ensemble.manifest.json":
            "2e102a8da6f020804eeab886aee131c90de1dd615805c13aa0cb312c0c8adab0",
    },
    "field": {
        "meanderiv.csv":
            "5cbbd5806cf0d95a734e56aeeb9bdb861095b0deb06d51dc0cc958414acd7242",
        "meanderiv.manifest.json":
            "540f38db41ff20f83b6a9f7ffa7c191853ede395a92acecd8264610fc0260226",
    },
    "noise": {
        "whitenoise.bin":
            "255cfee80d8d1cb4488fcbc5102d4cb91ee620fb4ea504882121e1d3855bda2e",
        "whitenoise.manifest.json":
            "dd16121b0693b10e73ab505e51b97d0ca4d88dc949f05dfda54b1da864e24808",
    },
    "report": {
        "merged.csv":
            "ec7498974b82d06901546362d34072d51527b43053fad405c51d9eea327ad160",
        "plot.csv":
            "551a4be935252b44186fdaa2c60a6ad1b762cb929f51a3459dd73c5a1be6957a",
    },
    "wavefunction": {
        "psi.csv":
            "ce20f223987c177d6fcbf268386c78670ea22032cf6e71b5f9bfb5b160b4c5f0",
        "psi.manifest.json":
            "a1b0f533c58308e2359601ba587127096bf4cd9c18184c431cfa7ab17d89beaa",
    },
}


def written(case) -> dict[str, str]:
    """{file name: sha256 of its bytes} for every file the case writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        CASES[case](out)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_file_digests(case):
    assert written(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": {{')
        for name, sha in written(case).items():
            print(f'        "{name}":\n            "{sha}",')
        print("    },")
