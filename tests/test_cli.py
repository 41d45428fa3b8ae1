"""End-to-end CLI tests on small scenarios."""

import json
import logging
import os

import pytest

from predprey.cli import main

SMALL = """\
# predprey scenario v1
[domain]
dim = 1
bounds = 0,1
n_cells = 48

[model]
mu = 0.05
ell = 0.25
kappa = 0.2
attract = 1
K_alpha = 1.0
K_beta = 1.0

[coefficients]
alpha = 1 - w
beta = -u
a = 0.1
b = 0.1

[initial]
u0 = 0.5*exp(-50*(x-0.3)^2)
w0 = 0.5*exp(-50*(x-0.7)^2)

[time]
T = 0.05
dt = 0.005
snapshot_every = 2

[schemes]
parabolic = implicit_euler
picard_tol = 1e-8
picard_max_iter = 12

[output]
directory = out
formats = csv,json
"""

ZERO = SMALL.replace("alpha = 1 - w", "alpha = 0") \
            .replace("beta = -u", "beta = 0") \
            .replace("a = 0.1", "a = 0") \
            .replace("b = 0.1", "b = 0") \
            .replace("u0 = 0.5*exp(-50*(x-0.3)^2)", "u0 = 0") \
            .replace("w0 = 0.5*exp(-50*(x-0.7)^2)", "w0 = 0")


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture()
def zero_file(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text(ZERO)
    return str(path)


def test_run_writes_artifacts(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", scenario_file, "--out", out]) == 0
    for name in ("norms.csv", "bounds.json", "picard.log"):
        assert os.path.exists(os.path.join(out, name))
    assert os.path.isdir(os.path.join(out, "snapshots"))


def test_run_zero_scenario_all_zero_rows(zero_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", zero_file, "--out", out]) == 0
    lines = open(os.path.join(out, "norms.csv")).read().splitlines()[2:]
    for line in lines:
        values = [float(v) for v in line.split(",")[1:]]
        assert all(v == 0.0 for v in values)


def test_bounds_all_pass(zero_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["bounds", "--scenario", zero_file, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "bounds.json")))
    assert payload["all_passed"] is True


@pytest.mark.parametrize("command", ["lipschitz", "controls"])
def test_zero_delta(command, scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main([command, "--scenario", scenario_file, "--out", out, "--delta", "0"]) == 0
    payload = json.load(open(os.path.join(out, command + ".json")))
    assert payload["max_lhs"] < 1e-10


def test_lipschitz_quotients(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["lipschitz", "--scenario", scenario_file, "--out", out,
                 "--delta", "0.01"]) == 0
    payload = json.load(open(os.path.join(out, "lipschitz.json")))
    assert 0.7 <= payload["quotient_ratio"] <= 1.4


def test_controls_quotients(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["controls", "--scenario", scenario_file, "--out", out,
                 "--delta", "0.01"]) == 0
    payload = json.load(open(os.path.join(out, "controls.json")))
    assert 0.7 <= payload["quotient_ratio"] <= 1.4


def test_convergence_reports_orders(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["convergence", "--scenario", scenario_file, "--out", out,
                 "--resolutions", "48,96"]) == 0
    payload = json.load(open(os.path.join(out, "convergence.json")))
    assert payload["hyperbolic_vs_oracle"]["fitted_order"] > 0.5
    assert payload["parabolic_vs_green"]["fitted_order"] > 1.5


def test_oracle_compare(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["oracle-compare", "--scenario", scenario_file, "--out", out,
                 "--resolutions", "48,96"]) == 0
    payload = json.load(open(os.path.join(out, "oracle_compare.json")))
    assert len(payload["errors"]) == 2


def test_invalid_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL.replace("alpha = 1 - w", "alpha = u"))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "coefficients.alpha" in capsys.readouterr().err


def test_runtime_nonfinite_exit_code(tmp_path, capsys):
    # b blows up at t = 0.02, which the stepper hits exactly
    bad = tmp_path / "blowup.ini"
    bad.write_text(SMALL.replace("b = 0.1", "b = 1/(0.02-t)"))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "coefficients.b" in err


def test_shipped_artifacts_match_golden_hashes(tmp_path):
    # tests/data/shipped_artifacts.sha256 holds the sha256 of every file
    # `predprey run` writes for the shipped scenarios; refactors must keep
    # those bytes, and only a change of arithmetic made on purpose (last: the
    # 1D drift as one matrix product, which moved the snapshots and norms of
    # advection/ and predator_prey/ by at most 4.0e-15, their Picard
    # differences by at most 1.5e-12 and their bounds.json by at most 1.0e-10
    # relative; decoupled/ kept its bytes) regenerates the manifest
    import hashlib

    root = os.path.join(os.path.dirname(__file__), "..")
    manifest = os.path.join(os.path.dirname(__file__), "data", "shipped_artifacts.sha256")
    expected = {}
    for line in open(manifest, encoding="ascii"):
        digest, name = line.split()
        expected[name] = digest
    for scenario in sorted({name.split("/")[0] for name in expected}):
        path = os.path.join(root, "scenarios", scenario + ".ini")
        assert main(["run", "--scenario", path, "--out", str(tmp_path / scenario)]) == 0
    written = {}
    for path in tmp_path.rglob("*"):
        if path.is_file():
            name = path.relative_to(tmp_path).as_posix()
            written[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    changed = sorted(n for n in expected if written.get(n) != expected[n])
    extra = sorted(set(written) - set(expected))
    assert not changed and not extra, f"changed or missing: {changed}; unexpected: {extra}"


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "scenarios", "predator_prey.ini")


def test_perturbation_outputs_match_golden_hashes(tmp_path):
    # tests/data/perturbation_outputs.sha256 holds the sha256 of the
    # lipschitz.json and controls.json that the shipped scenario gives at
    # --delta 1e-2; like the run artifacts, these bytes survive refactors
    # (last regenerated for the 1D drift as one matrix product: numbers
    # moved by at most 1.9e-13 relative)
    import hashlib

    manifest = os.path.join(os.path.dirname(__file__), "data", "perturbation_outputs.sha256")
    for line in open(manifest, encoding="ascii"):
        digest, name = line.split()
        command = name.removesuffix(".json")
        assert main([command, "--scenario", SHIPPED, "--out", str(tmp_path),
                     "--delta", "1e-2"]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_run_shipped_scenario_passes_every_check(tmp_path):
    assert main(["run", "--scenario", SHIPPED, "--out", str(tmp_path)]) == 0
    checks = json.load(open(tmp_path / "bounds.json"))["checks"]
    assert len(checks) == 10
    assert all(check["passed"] for check in checks), [c["name"] for c in checks]


@pytest.mark.parametrize("old,new,key", [
    ("n_cells = 128", "n_cells = 512", "[time.dt]"),
    ("ell = 0.25", "ell = 0.01", "[model.ell]"),
    ("u0 = 0.5*exp(-50*(x-0.3)^2)", "u0 = 1e300*exp(x)^2", "[time.dt]"),
    ("alpha = 1 - w", "alpha = 1e300", "[scenario]"),
    # rejected at load, before any solve
    ("kappa = 0.5", "kappa = -1", "[model.kappa]"),
    ("n_cells = 128", "n_cells = 2", "[domain.n_cells]"),
    ("mu = 0.05", "mu = -0.1", "[model.mu]"),
    ("mu = 0.05", "mu = nan", "[model.mu]"),
    ("mu = 0.05", "mu = 0", "[model.mu]"),
    ("picard_max_iter = 12", "picard_max_iter = 0", "[schemes.picard_max_iter]"),
    ("picard_tol = 1e-8", "picard_tol = nan", "[schemes.picard_tol]"),
    ("formats = csv,json", "formats = csv,json\nseed = -3", "[output.seed]"),
    ("K_alpha = 1.0", "K_alpha = 0", "[model.K_alpha]"),
    ("K_beta = 1.0", "K_beta = -1", "[model.K_beta]"),
    ("snapshot_every = 5", "snapshot_every = 0", "[time.snapshot_every]"),
    ("dt = 0.005", "dt = 0.3", "[time.dt]"),
    ("dt = 0.005", "dt = 0", "[time.dt]"),
    ("dt = 0.005", "dt = 1e-320", "[time.dt]"),
    ("T = 0.5", "T = -1", "[time.T]"),
], ids=["cfl_violation", "horizon_too_small", "stiff_reaction", "nonfinite_field",
        "negative_kappa", "too_few_cells", "negative_mu", "nan_mu", "zero_mu",
        "no_picard_iterations", "nan_picard_tol", "negative_seed", "zero_K_alpha",
        "negative_K_beta", "zero_snapshot_every", "dt_not_dividing_T", "zero_dt",
        "dt_too_small_for_T", "negative_T"])
def test_solver_limit_exit_code(old, new, key, tmp_path, capsys):
    # edits of the shipped scenario that stop the solve or are rejected at
    # load; each must exit 1 with one keyed line, not a traceback
    text = open(SHIPPED, encoding="ascii").read()
    assert old in text
    edited = tmp_path / "edited.ini"
    edited.write_text(text.replace(old, new))
    assert main(["run", "--scenario", str(edited), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_ledger_alpha_pole_names_its_key(command, tmp_path, capsys):
    # alpha has a pole at t = T: the solve reads alpha only at each step's
    # left end and finishes, but the ledger's variation quotient samples it
    # at t = T too, and must name the key like the solve does
    text = open(SHIPPED, encoding="ascii").read()
    for old, new in (("alpha = 1 - w", "alpha = 0.01/(0.08-t)"), ("T = 0.5", "T = 0.08")):
        assert old in text
        text = text.replace(old, new)
    edited = tmp_path / "pole.ini"
    edited.write_text(text)
    assert main([command, "--scenario", str(edited), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [coefficients.alpha] ") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("beta", ["-300", "-500"])
def test_stiff_reaction_stops_both_schemes(scheme, beta, tmp_path, capsys):
    # dt * max|B| = 1.5 (2.5) >= 1: both schemes take the reaction
    # explicitly, so both stop on dt.  Crank-Nicolson once ran on to a
    # negative w (-300) or overflowed into a non-finite field (-500).
    text = open(SHIPPED, encoding="ascii").read()
    for old, new in (("beta = -u", f"beta = {beta}"),
                     ("parabolic = implicit_euler", f"parabolic = {scheme}")):
        assert old in text
        text = text.replace(old, new)
    edited = tmp_path / "stiff.ini"
    edited.write_text(text)
    assert main(["run", "--scenario", str(edited), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [time.dt] dt * max|B| = ") and err.count("\n") == 1


@pytest.mark.parametrize("formats,names", [
    ("json", ["bounds.json", "picard.log"]),
    ("csv", ["norms.csv", "snapshots", "picard.log"]),
    ("csv,json", ["norms.csv", "snapshots", "bounds.json", "picard.log"]),
])
def test_run_logs_the_files_it_wrote(formats, names, tmp_path, caplog):
    path = tmp_path / "small.ini"
    path.write_text(SMALL.replace("formats = csv,json", f"formats = {formats}"))
    out = tmp_path / "o"
    with caplog.at_level(logging.INFO, logger="predprey"):
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    wrote = [r.getMessage().removeprefix("wrote ") for r in caplog.records
             if r.getMessage().startswith("wrote ")]
    assert wrote == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(names)


@pytest.mark.parametrize("argv,key", [
    (["run", "--seed", "-1"], "[output.seed]"),
    (["convergence", "--resolutions", "2,64"], "[--resolutions]"),
    (["oracle-compare", "--resolutions", "abc"], "[--resolutions]"),
    (["oracle-compare", "--resolutions", "64,64"], "[--resolutions]"),
    (["lipschitz", "--delta", "nan"], "[--delta]"),
    (["lipschitz", "--delta", "inf"], "[--delta]"),
    (["controls", "--delta", "nan"], "[--delta]"),
    (["controls", "--delta=-inf"], "[--delta]"),
], ids=["negative_seed", "too_few_cells", "not_an_integer", "one_resolution",
        "lipschitz_nan_delta", "lipschitz_inf_delta", "controls_nan_delta",
        "controls_inf_delta"])
def test_flag_exit_code(argv, key, tmp_path, capsys):
    # command-line overrides obey the loader's rules for the keys they stand for
    assert main([*argv, "--scenario", SHIPPED, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


IMPORT_GUARD = """\
import sys
import predprey.cli as cli
from predprey.scenario_io import load_scenario
from predprey.velocity import make_kernel
scenario_path, out = sys.argv[1:]
scenario = load_scenario(scenario_path)
make_kernel(scenario.ell, scenario.grid())
for command in (["run"], ["bounds"], ["lipschitz", "--delta", "1e-2"],
                ["controls", "--delta", "1e-2"], ["convergence", "--resolutions", "16,32"],
                ["oracle-compare", "--resolutions", "16,32"]):
    assert cli.main([*command, "--scenario", scenario_path, "--out", out]) == 0, command
assert "scipy.integrate" not in sys.modules
assert "scipy.ndimage" not in sys.modules
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""


def test_package_does_not_import_scipy():
    # numpy is the one runtime dependency: no module of the package imports
    # scipy, which stays a test dependency (the tests' oracles)
    import ast
    import pathlib
    tomllib = pytest.importorskip("tomllib")

    root = pathlib.Path(__file__).parent.parent
    modules = sorted((root / "src" / "predprey").glob("*.py"))
    assert len(modules) > 10
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("grid.py", "numpy") in imported
    assert not [(name, module) for name, module in imported
                if module.split(".")[0] == "scipy"]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_solve_commands_do_not_import_scipy(tmp_path):
    # the oracles and weak residuals integrate with series.cumulative_simpson
    # and the diffusion step solves with numpy alone, so no subcommand, the
    # oracle studies (convergence, oracle-compare) included, loads any scipy
    # module, which would more than double the modules of every cold start
    import subprocess
    import sys

    text = open(SHIPPED, encoding="ascii").read()
    assert "T = 0.5" in text
    short = tmp_path / "short.ini"
    short.write_text(text.replace("T = 0.5", "T = 0.02"))
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", BLIS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(short), str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
