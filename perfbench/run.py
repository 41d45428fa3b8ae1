"""Closed-loop benchmark of predprey's CLI jobs: one client, one process.

Run from the repository root::

    python3 perfbench/run.py --workload pp1d-long --seed 0 --seconds 50 --trace 0

A job is what ``predprey run`` (or ``predprey lipschitz --delta 1e-2``) does
after argument parsing: this script calls ``cmd_run``/``cmd_lipschitz`` on a
scenario generated from ``--seed`` (see workloads.py), and the next job starts
when the previous one has ended.  Jobs start until ``--seconds`` would be
exceeded.  Every job is gated: each window converged, the bound ledger passed
(run jobs), positivity held, and on seed 0 the norm series (and a Lipschitz
job's quotients) match ``reference.json``.  Counts that must repeat on a fixed seed
are compared across jobs.

``--trace 0`` reports BENCHMARK.json's ``end_to_end`` metrics from untraced
jobs: ``run_s`` the job, ``solve_s`` its time in ``solve_coupled``,
``ledger_s`` the mean time of ``compute_bounds_report`` on the job's first
solve (called over and over for ``LEDGER_SECONDS`` after every job, outside
its ``run_s``; a Lipschitz job does not call it itself),
``cell_steps_per_s`` cells x steps x solves over ``solve_s``,
``setup_s`` a fresh interpreter's import of ``predprey.cli`` plus
``load_scenario`` and ``make_kernel`` (``SETUP_REPEATS`` times),
``peak_rss_mb`` this process's peak resident memory.

The host is shared, and its speed changes by tens of percent within seconds
and drifts over minutes, so every time is host-scaled: measured together
with the host's slowness from a fixed probe (yardstick.py) and divided by
it, i.e. turned into seconds at the probe's quiet-host speed.  Each metric
is the median over the run's samples: one per job, or one per call for
``setup_s``.  Jobs and ledger calls run under the sampling probe, whose
slices are taken out of their times; a set-up call is timed between two
probes.  Each time's unscaled median and minimum are printed beside it.
The writer (``write_run_artifacts``) is timed only per layer, under
``--trace 1``: no probe tracked its time well enough for a bound.
``failed_frac`` is printed; the JSON carries it as ``failed``/``attempted``.

``--trace 1`` alternates untraced and traced jobs and reports its
``per_layer`` metrics as means over the traced jobs, so the layer self
times plus ``trace.unattributed_s`` add up to ``trace.run_s``; the traced
minus untraced job time is ``trace.overhead_s``.  Both modes print every
metric they measured with its unit; the last stdout line is the JSON result.
Per-job records and the environment are written to
``.bench_work/<workload>/result-s<seed>-trace<t>.json``; a traced run's spans
replace ``.bench_work/<workload>/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import JOB, LAYER_TIME_METRICS, Probe
from workloads import (LIPSCHITZ_DELTA, REFERENCE_SEED, SHIPPED, WORKLOADS,
                       scenario_text)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
# Reference tolerance on a norm or a quotient's numerator: far above the
# 1e-14 of reordered arithmetic and the per-window Picard slack, far below
# any change of the solution.
REFERENCE_TOL_PER_PICARD_TOL = 1e3
WARMUP_STEPS = 4
STAGE_TIMES = ("run_s", "solve_s", "ledger_s")
# Seconds of ledger calls after each job.
LEDGER_SECONDS = 0.5
# Compute-probe steps around each set-up call (yardstick.py).
SETUP_PROBE_STEPS = 1000
NORMS = ("u_l1", "u_linf", "u_tv", "w_l1", "w_linf", "w_tv")
# Counts that must repeat exactly on a fixed seed.
DETERMINISTIC = (
    "coupling.windows", "coupling.window_halvings", "coupling.picard_iterations",
    "coupling.solves_per_job", "transport.steps", "parabolic.steps",
    "expressions.sample_calls", "velocity.conv_calls", "velocity.velocity_calls",
    "grid.field_constructions", "series.traces", "scenario_io.files_written",
    "scenario_io.bytes_written",
)
SPAN_COUNTS = {
    "velocity.conv_calls": "velocity.modified_convolution",
    "velocity.velocity_calls": "velocity.velocity",
    "transport.steps": "transport.fv_upwind_step",
    "parabolic.steps": "parabolic.step_parabolic",
    "expressions.sample_calls": "expressions.sample_field",
    "series.traces": "series.Trace.__post_init__",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import predprey.cli
from predprey.scenario_io import load_scenario
from predprey.velocity import make_kernel
scenario = load_scenario(sys.argv[1])
make_kernel(scenario.ell, scenario.grid())
print(time.perf_counter() - t0)
"""


def cap_threads() -> dict[str, str]:
    """One thread per math library, set before numpy loads."""
    for var in THREAD_CAP_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_CAP_VARS}


def measure_setup(scenario_path: Path) -> list[list[float]]:
    """Fresh-interpreter import of predprey.cli, load_scenario and make_kernel,
    each as [seconds, host slowness around it]."""
    import yardstick

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    before = yardstick.compute_slowness(SETUP_PROBE_STEPS)
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        after = yardstick.compute_slowness(SETUP_PROBE_STEPS)
        samples.append([float(done.stdout.split()[-1]), mean([before, after])])
        before = after
    return samples


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(caps: dict[str, str]) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "thread_caps": caps,
    }


def job_series(kind: str, probe: Probe) -> dict[str, list[float]]:
    """What the reference pins: the first solve's norm series, plus the
    quotients of a Lipschitz job."""
    trace = probe.results["coupling.solve_coupled"][0]
    series = {"times": list(trace.times),
              **{name: list(getattr(trace, name)) for name in NORMS}}
    if kind == "lipschitz":
        rep, rep_half = probe.results["coupling.lipschitz_in_data_experiment"]
        series["quotients"] = list(rep.quotients)
        series["quotients_half_delta"] = list(rep_half.quotients)
    return series


def reference_mismatches(series: dict, reference: dict, atol: float) -> list[str]:
    problems = []
    for name, expected in reference.items():
        got = series[name]
        # a quotient's numerator is the solve distance; scale atol by 1/delta
        scale = {"quotients": 1 / LIPSCHITZ_DELTA,
                 "quotients_half_delta": 2 / LIPSCHITZ_DELTA}.get(name, 1.0)
        if len(got) != len(expected):
            problems.append(f"{name}: {len(got)} values, reference has {len(expected)}")
            continue
        worst = max(abs(g - e) for g, e in zip(got, expected))
        if not worst <= atol * scale:
            problems.append(f"{name}: off the reference by {worst:.3g} > {atol * scale:.3g}")
    return problems


def gate(kind: str, probe: Probe, reference: dict | None, atol: float) -> list[str]:
    """Reasons this job's outputs are wrong; empty when it passes."""
    from predprey.coupling import positivity_audit

    solves = probe.results.get("coupling.solve_coupled", [])
    problems = []
    if not solves:
        problems.append("no coupled solve ran")
    for trace in solves:
        if not all(w.converged for w in trace.window_logs):
            problems.append("a window did not converge")
        if not positivity_audit(trace).passed():
            problems.append("positivity audit failed")
    if kind == "run":
        reports = probe.results.get("coupling.compute_bounds_report", [])
        if len(reports) != 1 or not reports[0].all_passed():
            problems.append("bound ledger did not pass")
    if reference is not None and not problems:
        problems += reference_mismatches(job_series(kind, probe), reference, atol)
    return problems


def call_job(cli, kind: str, scenario: Path, out_dir: Path, traced: bool,
             sampler=None) -> Probe:
    """One job as the CLI performs it after argument parsing, under a Probe
    and, if given, the host-speed sampler."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = argparse.Namespace(scenario=str(scenario), out=str(out_dir), seed=None,
                              delta=LIPSCHITZ_DELTA)
    command = cli.cmd_run if kind == "run" else cli.cmd_lipschitz
    with Probe(traced) as probe:
        if sampler is None:
            probe.run(command, args)
        else:
            with sampler:
                probe.run(command, args)
    return probe


def run_job(cli, kind: str, scenario: Path, out_dir: Path, traced: bool,
            reference: dict | None, atol: float) -> dict:
    """One gated job; each timed sample is [seconds, host slowness with it].
    An untraced job runs under the host-speed sampler, whose slices are taken
    out of its times; a traced job's times are its spans' and its slowness 1."""
    import yardstick

    sampler = None if traced else yardstick.Sampler()
    try:
        probe = call_job(cli, kind, scenario, out_dir, traced, sampler)
    except Exception:  # a failed job is counted, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        return {"traced": traced, "error": error,
                "problems": ["raised " + error.strip().splitlines()[-1]]}
    slowness = 1.0 if sampler is None else sampler.slowness()
    job = {"traced": traced, "error": None,
           "problems": gate(kind, probe, reference, atol)}
    solves = probe.results["coupling.solve_coupled"]
    reports = probe.results.get("coupling.compute_bounds_report", [])
    logs = [w for trace in solves for w in trace.window_logs]
    steps = sum(len(trace.times) - 1 for trace in solves)
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    counts = {
        "coupling.windows": len(logs),
        "coupling.picard_iterations": sum(w.iterations for w in logs),
        "coupling.solves_per_job": len(solves),
        "coupling.max_contraction_ratio": max(
            (b / a for w in logs for a, b in zip(w.diffs, w.diffs[1:]) if a > 0),
            default=0.0),
        "coupling.ledger_nonfinite_rhs": sum(
            1 for report in reports for check in report.checks
            for value in check.rhs if not math.isfinite(value)),
        "scenario_io.files_written": len(files),
        "scenario_io.bytes_written": sum(p.stat().st_size for p in files),
    }
    job["work"] = solves[0].grid.total_cells * steps
    job["samples"] = {
        "run_s": [[probe.total({JOB}, sampler), slowness]],
        "solve_s": [[probe.total({"coupling.solve_coupled"}, sampler), slowness]],
    }
    if not traced:
        job["samples"]["ledger_s"] = time_ledger(solves[0], scenario)
    else:
        counts.update({key: probe.calls(name) for key, name in SPAN_COUNTS.items()})
        counts["grid.field_constructions"] = probe.counts["grid.Field.__post_init__"]
        counts["coupling.window_halvings"] = (
            probe.calls("coupling.picard_window") - len(logs))
        counts["coupling.step_solves_per_step"] = (
            (counts["transport.steps"] + counts["parabolic.steps"]) / steps)
        job["layers"] = probe.layer_times()
        job["spans"] = probe.export()
    job["counts"] = counts
    return job


def time_ledger(trace, scenario: Path) -> list[list[float]]:
    """Time ``compute_bounds_report`` on the job's first solve as ``predprey
    run`` calls it, over and over for ``LEDGER_SECONDS`` under the host-speed
    sampler; one sample, the mean call."""
    import yardstick
    from predprey.coupling import compute_bounds_report
    from predprey.scenario_io import load_scenario

    loaded = load_scenario(str(scenario))
    calls = []
    with yardstick.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < LEDGER_SECONDS:
            t0 = time.perf_counter()
            compute_bounds_report(trace, loaded)
            calls.append((t0, time.perf_counter()))
    seconds = mean([b - a - sampler.overlap(a, b) for a, b in calls])
    return [[seconds, sampler.slowness()]]


def determinism_flags(jobs: list[dict]) -> list[str]:
    flags = []
    for key in DETERMINISTIC:
        values = {j["counts"][key] for j in jobs if key in j.get("counts", {})}
        if len(values) > 1:
            flags.append(f"{key} differs across jobs: {sorted(values)}")
    return flags


def run_jobs(cli, kind: str, scenario: Path, out_dir: Path, seconds: float,
             trace: bool, reference: dict | None, atol: float) -> list[dict]:
    """Closed loop: untraced jobs, alternating with traced ones under --trace 1."""
    plan = (False, True) if trace else (False,)
    jobs: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = plan[len(jobs) % len(plan)]
        same = [j["wall"] for j in jobs if j["traced"] == traced]
        estimate = same[-1] if same else (jobs[-1]["wall"] if jobs else 0.0)
        if len(jobs) >= len(plan) and time.perf_counter() - start + estimate > seconds:
            return jobs
        t0 = time.perf_counter()
        job = run_job(cli, kind, scenario, out_dir, traced, reference, atol)
        job["wall"] = time.perf_counter() - t0
        jobs.append(job)


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def scaled(samples: list[list[float]]) -> float:
    """Median of the samples' seconds at the probe's quiet-host speed."""
    return statistics.median(seconds / slowness for seconds, slowness in samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "predprey" / "cli.py", ROOT / SHIPPED,
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  "full checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    caps = cap_threads()
    kind = WORKLOADS[args.workload].command
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    shipped = (ROOT / SHIPPED).read_text()
    scenario = work / "scenario.ini"
    scenario.write_text(scenario_text(args.workload, args.seed, shipped))

    setup = measure_setup(scenario)

    sys.path.insert(0, str(ROOT / "src"))
    import predprey.cli as cli
    from predprey.scenario_io import load_scenario

    loaded = load_scenario(str(scenario))
    atol = REFERENCE_TOL_PER_PICARD_TOL * loaded.picard_tol
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    warmup = work / "warmup.ini"
    warmup.write_text(scenario_text(args.workload, args.seed, shipped,
                                    horizon=WARMUP_STEPS * loaded.dt))
    run_job(cli, kind, warmup, work / "out", False, None, atol)

    jobs = run_jobs(cli, kind, scenario, work / "out", args.seconds, bool(args.trace),
                    reference, atol)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment(caps)

    failed = [j for j in jobs if j["problems"]]
    for number, job in enumerate(jobs):
        for problem in job["problems"]:
            print(f"job {number} failed: {problem}", file=sys.stderr)
    flags = determinism_flags(jobs)
    for flag in flags:
        print(f"determinism: {flag}", file=sys.stderr)
    plain = [j for j in jobs if not j["traced"] and j["error"] is None]
    traced = [j for j in jobs if j["traced"] and j["error"] is None]
    if not plain or (args.trace and not traced):
        print("error: no job completed", file=sys.stderr)
        return 1

    samples = {name: [v for j in plain for v in j["samples"][name]] for name in STAGE_TIMES}
    samples["setup_s"] = setup
    values: dict[str, float] = {name: scaled(v) for name, v in samples.items()}
    values["cell_steps_per_s"] = plain[0]["work"] / values["solve_s"]
    values["peak_rss_mb"] = peak_rss_mb
    if traced:
        # a layer the job never entered has no spans: 0 s
        keys = set(LAYER_TIME_METRICS).union(*(j["counts"] for j in traced))
        values.update({k: mean([j["layers"].get(k, j["counts"].get(k, 0.0)) for j in traced])
                       for k in keys})
        values["trace.run_s"] = mean([j["samples"]["run_s"][0][0] for j in traced])
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - mean([j["samples"]["run_s"][0][0] for j in plain]))
        values["trace.spans"] = mean([len(j["spans"]["spans"]) for j in traced])

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs "
          f"({len(plain)} untraced, {len(traced)} traced), closed loop, one client")
    print(f"failed_frac {len(failed) / len(jobs)!r} ({len(failed)} of {len(jobs)} jobs)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"end_to_end (from {len(plain)} untraced jobs):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        raw = [t for t, _ in samples.get(name, [])]
        note = (f"  median of {len(raw)} host-scaled; unscaled median "
                f"{statistics.median(raw):.6g}, min {min(raw):.6g}" if raw else "")
        print(f"  {name:42s} {values[name]:.6g} {metric['unit']}{note}")
    if traced:
        print(f"per_layer (mean of {len(traced)} traced jobs):")
        for metric in spec["per_layer"]:
            print(f"  {metric['name']:42s} {values[metric['name']]:.6g} {metric['unit']}")

    reported = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed and not flags,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "determinism": flags, "result": result,
              "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in jobs]}
    result_file = work / f"result-s{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))
    if traced:
        (work / "spans.json").write_text(json.dumps([j["spans"] for j in traced]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
