"""Importing fractoid loads no scipy: only the feynman-kac suite's oracle and
the wavefunction drift interpolation import it, on first use.  Nor does it
load concurrent.futures, which brings logging with it: the block pool
imports it on its first call."""

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


@pytest.fixture(scope="module")
def result():
    src = str(Path(fractoid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_importing_fractoid_loads_no_scipy(result):
    assert {"fractoid.cli.main", "fractoid.cli.suites", "fractoid.geometry",
            "fractoid.meanderiv", "fractoid.nelson", "fractoid.nelson.wavefunctions",
            "fractoid.stochastic"} <= set(result["modules"])
    assert result["scipy"] == []


def test_importing_fractoid_loads_no_thread_pool(result):
    assert result["futures"] is False
