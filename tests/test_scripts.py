"""The example scripts: each parses its flags, and the two quick ones run end to end."""

import glob
import os
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("ladder", ["2", "abc", "64"],
                         ids=["too_few_cells", "not_an_integer", "one_resolution"])
def test_convergence_study_rejects_bad_resolutions(ladder):
    # the CLI's --resolutions rule: exit 1 with the key path, no traceback
    done = run_script("convergence_study.py", "--resolutions", ladder)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: [--resolutions] ")
    assert "Traceback" not in done.stderr


def test_calibrate_tv_constants_quotients():
    # the quotients of the seeded suite, as the per-time series loops gave them
    done = run_script("calibrate_tv_constants.py", "--count", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "parabolic quotients:  n=40 max=-3.019649" in lines
    assert "hyperbolic quotients: n=30 max=-0.422718" in lines


def test_run_predator_prey_passes_every_check(tmp_path):
    done = run_script("run_predator_prey.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    checks = [line for line in done.stdout.splitlines() if "min margin" in line]
    assert len(checks) == 10
    assert all(line.split()[1] == "PASS" for line in checks), checks
    assert os.path.exists(tmp_path / "bounds.json")
