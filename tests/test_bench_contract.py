"""The names the benchmark's tracer wraps must exist in the library.

perfbench/tracing.py replaces (module, attribute) pairs with timing wrappers
for ``--trace 1``; a pair that no longer resolves breaks the traced run.
The benchmark's gates read the return values of the wrapped calls, so each
job must also make the calls they count, in their order.  The tracer is
loaded by path, so the benchmark directory stays untouched.
"""

import argparse
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
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
