"""Smoke test of the example scripts: each imports the library and parses its flags."""

import glob
import os
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("ladder", ["2", "abc", "64"],
                         ids=["too_few_cells", "not_an_integer", "one_resolution"])
def test_convergence_study_rejects_bad_resolutions(ladder):
    # the CLI's --resolutions rule: exit 1 with the key path, no traceback
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "convergence_study.py"),
                           "--resolutions", ladder], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: [--resolutions] ")
    assert "Traceback" not in done.stderr
