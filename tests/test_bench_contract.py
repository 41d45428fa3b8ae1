"""The names the benchmark's tracer wraps must exist in the library.

perfbench/tracing.py replaces (module, attribute) pairs with timing wrappers
for ``--trace 1``; a pair that no longer resolves breaks the traced run.
The benchmark's gates read the return values of the wrapped calls, so each
job must also make the calls they count, in their order, and pass the
gates the runner applies to each job.  The tracer and the runner are loaded
by path, so the benchmark directory stays untouched.
"""

import argparse
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
SHIPPED = os.path.join(ROOT, "scenarios", "predator_prey.ini")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = ([(m, a) for m, a, _ in tracing.STAGES] + list(tracing.LAYERS)
           + list(tracing.COUNTED))


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)



@pytest.fixture()
def short_scenario(tmp_path):
    text = open(SHIPPED, encoding="ascii").read()
    assert "T = 0.5" in text
    path = tmp_path / "short.ini"
    path.write_text(text.replace("T = 0.5", "T = 0.05"))
    return str(path)


def probe_job(command: str, scenario: str, out: str):
    """One job as perfbench/run.py performs it: the command's body after
    argument parsing, under an untraced Probe."""
    import predprey.cli as cli

    args = argparse.Namespace(scenario=scenario, out=out, seed=None, delta=1e-2)
    with tracing.Probe(traced=False) as probe:
        assert probe.run(getattr(cli, command), args) == 0
    return probe


def test_lipschitz_job_reuses_its_base_solve(short_scenario, tmp_path):
    probe = probe_job("cmd_lipschitz", short_scenario, str(tmp_path))
    solves = probe.results["coupling.solve_coupled"]
    rep, rep_half = probe.results["coupling.lipschitz_in_data_experiment"]
    assert len(solves) == 3
    # the command solves the base first; each experiment solves its perturbation
    parents = [probe.spans[s[3]][0] for s in probe.spans if s[0] == "coupling.solve_coupled"]
    assert parents == [tracing.JOB] + ["coupling.lipschitz_in_data_experiment"] * 2
    assert rep.times is solves[0].times and rep_half.times is solves[0].times
    assert probe.calls("cli._write_json") == 1


def test_run_job_grades_its_solve_once(short_scenario, tmp_path):
    probe = probe_job("cmd_run", short_scenario, str(tmp_path))
    assert len(probe.results["coupling.solve_coupled"]) == 1
    assert len(probe.results["coupling.compute_bounds_report"]) == 1


# The runner's own modules, imported by name from its directory.
RUNNER_SIBLINGS = ("tracing", "workloads", "yardstick")


@pytest.fixture()
def bench_runner(monkeypatch):
    """perfbench/run.py loaded by path, with its directory on sys.path and its
    sibling modules in sys.modules for this test only."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in RUNNER_SIBLINGS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in RUNNER_SIBLINGS:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", ["run", "lipschitz"])
def test_run_job_passes_the_benchmark_gate(bench_runner, kind, traced, short_scenario,
                                           tmp_path):
    # run.py exits 1 when an exception escapes run_job's try: the gate (which
    # reads the window logs, the positivity audit and the ledger), the ledger
    # timer, or the counts.  One gated job of each kind must come back clean.
    import predprey.cli as cli

    job = bench_runner.run_job(cli, kind, Path(short_scenario), tmp_path / "out", traced,
                               None, 1e-5)
    assert job["error"] is None
    assert job["problems"] == []


# Workload seeds besides the reference seed 0, which the gate tests above and
# the reference test cover; each job runs its workload's full horizon.
SWEEP_SEEDS = (1, 2)


@pytest.mark.parametrize("workload", ["pp1d-long", "lipschitz-1d"])
def test_workload_seeds_pass_the_benchmark_gate(bench_runner, workload, tmp_path):
    # one untraced job per seed, through the runner's own call_job and gate:
    # no unconverged window, no failed positivity audit or ledger
    import predprey.cli as cli

    shipped = Path(ROOT, bench_runner.SHIPPED).read_text()
    kind = bench_runner.WORKLOADS[workload].command
    for seed in SWEEP_SEEDS:
        scenario = tmp_path / f"{workload}-s{seed}.ini"
        scenario.write_text(bench_runner.scenario_text(workload, seed, shipped))
        probe = bench_runner.call_job(cli, kind, scenario, tmp_path / "out", False)
        assert bench_runner.gate(kind, probe, None, 0.0) == [], (workload, seed)
