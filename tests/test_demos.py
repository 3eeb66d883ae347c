import os
import subprocess
import sys

import pytest

import tvcox

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name):
    package_root = os.path.dirname(os.path.dirname(tvcox.__file__))
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
