"""Every demo script runs to completion against the package."""

import os
import subprocess
import sys

import pytest

from conftest import SUBPROCESS_ENV

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    r = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                       capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert r.returncode == 0, r.stderr
