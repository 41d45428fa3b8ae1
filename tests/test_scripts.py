"""Smoke test of the example scripts: each imports the library and parses its flags."""

import glob
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_scripts_print_help():
    scripts = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    assert scripts
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for script in scripts:
        done = subprocess.run([sys.executable, script, "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script, done.stderr)
        assert "usage:" in done.stdout, script
