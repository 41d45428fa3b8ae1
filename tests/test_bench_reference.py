"""The benchmark's seed-0 pp1d-long job must match its committed reference.

perfbench/run.py gates every seed-0 job on the norm series pinned in
perfbench/reference.json, within REFERENCE_TOL_PER_PICARD_TOL = 1e3 times
the scenario's picard_tol.  This test solves the same generated scenario and
applies the same tolerance, so a change of the window schedule or of the
arithmetic that would fail that gate fails here first.  The workload module
is loaded by path and the benchmark directory stays untouched.
"""

import importlib.util
import json
import os
import sys

import numpy as np

from predprey.coupling import solve_coupled
from predprey.scenario_io import load_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")
NORMS = ("u_l1", "u_linf", "u_tv", "w_l1", "w_linf", "w_tv")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_pp1d_long_seed_0_matches_reference(tmp_path):
    workloads = load_workloads()
    with open(os.path.join(ROOT, workloads.SHIPPED), encoding="utf-8") as f:
        shipped = f.read()
    path = tmp_path / "pp1d-long.ini"
    path.write_text(workloads.scenario_text("pp1d-long", workloads.REFERENCE_SEED, shipped))
    s = load_scenario(str(path))
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)["pp1d-long"]
    trace = solve_coupled(s)
    atol = 1e3 * s.picard_tol
    for name in ("times",) + NORMS:
        got = getattr(trace, name)
        assert len(got) == len(reference[name]), name
        assert np.max(np.abs(got - np.array(reference[name]))) <= atol, name
