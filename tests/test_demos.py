import os
import subprocess
import sys

import pytest

import tvcox

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# 04 (optimizer comparison and cross-validation) takes about 15 s; the
# cross-validation tests cover its path
QUICK_DEMOS = ["01_spline_basis.py", "02_fit_time_varying_effects.py",
               "03_constancy_test.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    package_root = os.path.dirname(os.path.dirname(tvcox.__file__))
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
