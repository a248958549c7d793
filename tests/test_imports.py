"""Importing fractoid loads no scipy, and neither do the feynman-kac suite's
oracles, the eigendecomposition matrix exponential and the row-blocked free
propagator: only the wavefunction drift interpolation imports scipy, on
first use.  Nor does importing fractoid load concurrent.futures, which
brings logging with it: the block pool imports it on its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractoid

# run in a fresh interpreter: this test process already holds scipy
PROBE = """
import importlib, json, pkgutil, sys
import fractoid, fractoid.cli.main
names = [m.name for m in pkgutil.walk_packages(fractoid.__path__, "fractoid.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy.")),
                  "futures": "concurrent.futures" in sys.modules}))
"""

ORACLE_PROBE = """
import json, sys
import numpy as np
from fractoid.cli.suites import schrodinger_expm_oracle
from fractoid.nelson import PotentialField, WaveFunctionGrid, free_propagator
grid = np.linspace(-4.0, 4.0, 40)
V = PotentialField(lambda x: 0.5 * np.sum(x**2, axis=-1), "harmonic")
assert np.all(np.isfinite(schrodinger_expm_oracle(grid, V, 0.5)))
free_propagator(WaveFunctionGrid((grid,), np.exp(-grid**2 / 2.0).astype(complex)), 0.5)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _run(probe: str):
    """The JSON the probe prints, from a fresh interpreter on this source."""
    src = str(Path(fractoid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def result():
    return _run(PROBE)


def test_importing_fractoid_loads_no_scipy(result):
    assert {"fractoid.cli.main", "fractoid.cli.suites", "fractoid.geometry",
            "fractoid.meanderiv", "fractoid.nelson", "fractoid.nelson.wavefunctions",
            "fractoid.stochastic"} <= set(result["modules"])
    assert result["scipy"] == []


def test_importing_fractoid_loads_no_thread_pool(result):
    assert result["futures"] is False


def test_feynman_kac_oracles_load_no_scipy():
    assert _run(ORACLE_PROBE) == []
