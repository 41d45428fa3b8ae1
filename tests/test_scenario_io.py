"""Scenario file parsing, validation, round-trip, and artifact tests."""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey.coupling import (CoupledTrace, Scenario, WindowPlan, compute_bounds_report,
                               solve_coupled)
from predprey.grid import DomainSpec, build_grid
from predprey.scenario_io import (SNAPSHOT_HEADER, ParseError, ScenarioError, ValidationError,
                                  load_scenario, parse_scenario_text, scenario_to_text,
                                  write_bounds_json, write_run_artifacts, write_snapshots)
from predprey.series import Trace

MINIMAL = """\
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


def test_minimal_scenario_loads():
    s = parse_scenario_text(MINIMAL)
    assert s.n_cells == (48,)
    assert s.mu == 0.05
    assert s.parabolic_scheme == "implicit_euler"
    assert s.formats == ("csv", "json")


def test_missing_section_named():
    text = MINIMAL.replace("[time]", "[nottime]")
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text)
    assert "time" in str(err.value)


def test_unknown_key_rejected():
    text = MINIMAL.replace("mu = 0.05", "mu = 0.05\nwhatever = 1")
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text)
    assert "whatever" in str(err.value)


def test_forbidden_variable_carries_key_path():
    text = MINIMAL.replace("alpha = 1 - w", "alpha = u+1")
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text)
    assert "coefficients.alpha" in str(err.value)
    assert "'u'" in str(err.value)


def test_y_rejected_in_1d():
    text = MINIMAL.replace("a = 0.1", "a = y")
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text)
    assert "coefficients.a" in str(err.value)


def test_bad_number_rejected():
    text = MINIMAL.replace("mu = 0.05", "mu = fast")
    with pytest.raises(ValidationError):
        parse_scenario_text(text)


def test_syntax_error_reported():
    with pytest.raises(ParseError):
        parse_scenario_text("not an ini file [ random ]")


def test_missing_file():
    with pytest.raises(ParseError):
        load_scenario("/nonexistent/path.ini")


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "accented.ini"
    path.write_bytes(MINIMAL.replace("bounds", "# d\u00e9j\u00e0 vu\nbounds").encode("utf-8"))
    with pytest.raises(ParseError, match="ascii"):
        load_scenario(str(path))


SHIPPED_TEXT = open(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                 "predator_prey.ini"), encoding="ascii").read()
SHIPPED_KEYS = [line.split(" = ")[0] for line in SHIPPED_TEXT.splitlines()
                if " = " in line and not line.startswith("#")]
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-10**30, max_value=10**400).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-320", "-0", "0"]),
)
# expressions nested from below MAX_DEPTH to past the recursion limit
NESTED_TEXT = st.builds(lambda n, op: op.join(["1"] * n) if op != "-" else "-" * n + "1",
                        st.integers(min_value=100, max_value=3000),
                        st.sampled_from([" + ", "^", "-"]))


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(SHIPPED_KEYS), value=st.one_of(NUMBER_TEXT, NESTED_TEXT, st.text()))
def test_fuzzed_value_loads_or_is_rejected(key, value):
    # one value of the shipped scenario replaced: the loader returns a
    # Scenario or raises ScenarioError, never any other exception
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in SHIPPED_TEXT.splitlines()]
    try:
        scenario = parse_scenario_text("\n".join(lines))
    except ScenarioError:
        return
    assert isinstance(scenario, Scenario)


def test_round_trip_equality():
    s = parse_scenario_text(MINIMAL)
    assert parse_scenario_text(scenario_to_text(s)) == s


def test_shipped_scenarios_load():
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    for name in ("predator_prey.ini", "decoupled.ini", "advection.ini"):
        s = load_scenario(os.path.join(root, name))
        assert parse_scenario_text(scenario_to_text(s)) == s


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    s = parse_scenario_text(MINIMAL)
    trace = solve_coupled(s)
    report = compute_bounds_report(trace, s)
    out = tmp_path_factory.mktemp("artifacts")
    paths = write_run_artifacts(trace, report, s, str(out))
    return s, trace, report, paths


class TestArtifacts:

    def test_norms_csv_schema(self, run):
        _, trace, _, paths = run
        lines = open(paths.norms_csv).read().splitlines()
        assert lines[0].startswith("# predprey norms v1")
        assert lines[1] == "t,u_l1,u_linf,u_tv,w_l1,w_linf,w_tv"
        first = [float(v) for v in lines[2].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(trace.u_l1[0])

    def test_snapshots_written(self, run):
        s, trace, _, paths = run
        files = sorted(os.listdir(paths.snapshot_dir))
        expected = len(range(0, len(trace.times), s.snapshot_every))
        if (len(trace.times) - 1) % s.snapshot_every != 0:
            expected += 1
        assert len(files) == expected
        header, columns = open(os.path.join(paths.snapshot_dir, files[0])).read().splitlines()[:2]
        assert header.startswith("# predprey snapshot v1 t=")
        assert columns == "x,u,w"

    def test_bounds_json_schema(self, run):
        _, _, report, paths = run
        payload = json.load(open(paths.bounds_json))
        assert payload["schema_version"] == 3
        assert payload["all_passed"] == report.all_passed()
        assert {c["name"] for c in payload["checks"]} == {c.name for c in report.checks}

    def test_picard_log_lines(self, run):
        _, trace, _, paths = run
        text = open(paths.picard_log).read()
        assert "window 0" in text
        summaries = [line for line in text.splitlines() if "converged=" in line]
        assert summaries == [
            f"window {k} converged=True iterations={wl.iterations} stop={wl.stop}"
            for k, wl in enumerate(trace.window_logs)]
        assert {wl.stop for wl in trace.window_logs} <= {"tol", "estimate"}

    def test_deterministic_rerun(self, run, tmp_path):
        s, _, _, paths = run
        trace2 = solve_coupled(s)
        report2 = compute_bounds_report(trace2, s)
        paths2 = write_run_artifacts(trace2, report2, s, str(tmp_path))
        assert open(paths.norms_csv).read() == open(paths2.norms_csv).read()
        assert open(paths.bounds_json).read() == open(paths2.bounds_json).read()


def test_seed_round_trips():
    s = replace(parse_scenario_text(MINIMAL), seed=17)
    assert parse_scenario_text(scenario_to_text(s)).seed == 17
    assert parse_scenario_text(scenario_to_text(s)) == s


def test_saturated_ledger_writes_strict_json(tmp_path, caplog):
    # a huge declared K_alpha overflows the u variation constant: the bound
    # saturates at the largest float (valid JSON) and the run says so
    s = parse_scenario_text(MINIMAL.replace("K_alpha = 1.0", "K_alpha = 1e6"))
    trace = solve_coupled(s)
    # the solve says its window is floored where the contraction condition fails
    floored = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(floored) == 1 and "window floored" in floored[0]
    caplog.clear()
    with caplog.at_level("WARNING", logger="predprey.coupling"):
        report = compute_bounds_report(trace, s)
    paths = write_run_artifacts(trace, report, s, str(tmp_path))

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(open(paths.bounds_json).read(), parse_constant=reject)
    check = next(c for c in payload["checks"] if c["name"] == "u_tv_iteration")
    assert check["passed"]
    assert max(check["rhs"]) == sys.float_info.max
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "u_tv_iteration" in warnings[0] and "saturated" in warnings[0]


def dumped(report) -> str:
    """bounds.json as json.dump writes it: the oracle of write_bounds_json."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.mark.parametrize("name,horizon", [
    ("predator_prey", None), ("advection", None), ("decoupled", None), ("predator_prey", 4.0),
], ids=["predator_prey", "advection", "decoupled", "predator_prey-T4"])
def test_bounds_json_matches_json_dump(name, horizon, tmp_path):
    s = load_scenario(os.path.join(SCENARIOS, name + ".ini"))
    if horizon is not None:
        s = replace(s, horizon=horizon)
    report = compute_bounds_report(solve_coupled(s), s)
    path = tmp_path / "bounds.json"
    write_bounds_json(report, str(path))
    assert path.read_text(encoding="ascii") == dumped(report)


def test_bounds_json_keeps_signed_zeros_and_mixed_lists(run, tmp_path):
    # equal under == but not in bytes: each list keeps its own text
    report = replace(run[2], times=[0.0, 1, 2.5], constants={
        "a": [0.0, 1.0], "b": [-0.0, 1.0], "c": [0.0, 1.0], "d": [], "e": [True, 0.5]})
    path = tmp_path / "bounds.json"
    write_bounds_json(report, str(path))
    text = path.read_text(encoding="ascii")
    assert text == dumped(report)
    assert "-0.0" in text


@pytest.mark.parametrize("change", [
    dict(k_v_empirical=float("inf")),
    dict(constants={"c_w1": [1.0, float("inf")]}),
    dict(constants={"c_w1": [float("nan")]}),
], ids=["scalar-inf", "list-inf", "list-nan"])
def test_bounds_json_rejects_non_finite(run, change, tmp_path):
    report = replace(run[2], **change)
    with pytest.raises(ValueError):
        dumped(report)
    with pytest.raises(ValueError):
        write_bounds_json(report, str(tmp_path / "bounds.json"))


def write_snapshots_per_value(trace, directory, every):
    """The snapshot writer as it was, one f'{v:.17g}' per value: the oracle."""
    os.makedirs(directory, exist_ok=True)
    coords = trace.grid.center_points()
    coord_names = ["x", "y"][: trace.grid.dim]
    indices = list(range(0, len(trace.times), every))
    if indices[-1] != len(trace.times) - 1:
        indices.append(len(trace.times) - 1)
    for snap_no, i in enumerate(indices):
        rows = [",".join(coord_names + ["u", "w"])]
        u = trace.u.values[i].ravel()
        w = trace.w.values[i].ravel()
        for c_row, uv, wv in zip(coords, u, w):
            rows.append(",".join([f"{c:.17g}" for c in c_row] + [f"{uv:.17g}", f"{wv:.17g}"]))
        name = os.path.join(directory, f"snapshot_{snap_no:04d}.csv")
        with open(name, "w", encoding="ascii") as handle:
            handle.write(f"{SNAPSHOT_HEADER} t={trace.times[i]:.17g}\n")
            handle.write("\n".join(rows) + "\n")


@pytest.mark.parametrize("bounds,n_cells", [
    (((0.0, 1.0),), 40),
    (((0.0, 1.0), (-0.3, 2.7)), (6, 7)),
], ids=["1d", "2d"])
def test_snapshot_writer_matches_per_value_formatting(bounds, n_cells, tmp_path):
    grid = build_grid(DomainSpec(bounds), n_cells)
    times = np.array([0.0, 0.1, 0.25, 0.3])
    rng = np.random.default_rng(3)
    shape = (len(times),) + grid.shape
    # random bit patterns cover every exponent; keep the finite ones
    bits = rng.integers(0, 2**64, size=4 * np.prod(shape), dtype=np.uint64).view(float)
    pool = bits[np.isfinite(bits)]
    u = pool[: np.prod(shape)].reshape(shape)
    w = pool[np.prod(shape): 2 * np.prod(shape)].reshape(shape)
    u.flat[:3] = -0.0, 5e-324, 1.7976931348623157e308
    w.flat[-3:] = -1.7976931348623157e308, -2.5e-310, -0.0
    trace = CoupledTrace(Trace(grid, times, u), Trace(grid, times, w), (),
                         WindowPlan(0.3, 0.3, 0.0, False, np.zeros(4)))
    write_snapshots(trace, str(tmp_path / "new"), every=2)
    write_snapshots_per_value(trace, str(tmp_path / "old"), every=2)
    names = sorted(os.listdir(tmp_path / "old"))
    assert sorted(os.listdir(tmp_path / "new")) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def write_snapshots_one_table(trace, directory, every):
    """The snapshot writer that formatted the coordinates again in every
    snapshot, one '%' fill of a whole x, y, u, w table: the oracle."""
    os.makedirs(directory, exist_ok=True)
    grid = trace.grid
    columns = ["x", "y"][: grid.dim] + ["u", "w"]
    coords = grid.center_points()
    table = np.empty((len(coords), len(columns)))
    table[:, : grid.dim] = coords
    body = "\n".join([",".join(["%.17g"] * len(columns))] * len(table))
    indices = list(range(0, len(trace.times), every))
    if indices[-1] != len(trace.times) - 1:
        indices.append(len(trace.times) - 1)
    for snap_no, i in enumerate(indices):
        table[:, -2] = trace.u.values[i].ravel()
        table[:, -1] = trace.w.values[i].ravel()
        name = os.path.join(directory, f"snapshot_{snap_no:04d}.csv")
        with open(name, "w", encoding="ascii") as handle:
            handle.write(f"{SNAPSHOT_HEADER} t={trace.times[i]:.17g}\n")
            handle.write(",".join(columns) + "\n")
            handle.write(body % tuple(table.ravel().tolist()) + "\n")


def test_snapshot_writer_2d_matches_one_table_fill(tmp_path):
    # coordinates formatted once per run must give the bytes of a table
    # formatted whole for every snapshot, on a grid with unequal axes
    grid = build_grid(DomainSpec(((-1.0, 0.7), (1e-3, 3.0))), (9, 5))
    times = np.linspace(0.0, 0.6, 7)
    rng = np.random.default_rng(11)
    shape = (len(times),) + grid.shape
    u = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    w = rng.uniform(-1.0, 1.0, size=shape)
    w[-1] = -0.0
    trace = CoupledTrace(Trace(grid, times, u), Trace(grid, times, w), (),
                         WindowPlan(0.6, 0.6, 0.0, False, np.zeros(7)))
    write_snapshots(trace, str(tmp_path / "new"), every=4)
    write_snapshots_one_table(trace, str(tmp_path / "old"), every=4)
    names = sorted(os.listdir(tmp_path / "old"))
    assert names == sorted(os.listdir(tmp_path / "new")) and len(names) == 3
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
