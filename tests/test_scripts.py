"""The experiment scripts: each parses its flags, and the calibration runs end to end."""

import glob
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_scripts_print_help():
    scripts = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    assert scripts
    for script in scripts:
        done = run_script(os.path.basename(script), "--help")
        assert done.returncode == 0, (script, done.stderr)
        assert "usage:" in done.stdout, script


def test_calibrate_tv_constants_quotients():
    # the quotients of the seeded suite, as the per-time series loops gave them
    done = run_script("calibrate_tv_constants.py", "--count", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "parabolic quotients:  n=40 max=-3.019649" in lines
    assert "hyperbolic quotients: n=30 max=-0.422718" in lines

