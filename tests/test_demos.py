"""The demo scripts run as shipped."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_gradients_demo_agrees_with_finite_differences():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "check_gradients.py")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    errors = [float(e) for e in
              re.findall(r"max relative error (\S+)$", done.stdout, flags=re.M)]
    assert len(errors) == 3, done.stdout
    assert all(e < 1e-4 for e in errors), done.stdout
