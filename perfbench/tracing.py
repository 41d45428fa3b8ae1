"""Spans and counts recorded around predprey's public functions, from outside.

A ``Probe`` replaces module attributes (and two dataclass hooks) with
wrappers for the length of one job and puts the originals back afterwards;
the library itself is not changed.  Each wrapped call records a span
``[name, start, end, parent]``; spans stay in memory until the benchmark
writes them out.  A span's self time is its duration minus its child spans,
which are sequential and nested because the job runs on one thread.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Always probed: the end-to-end stage timers and the return values the
# correctness gates read.  (module, attribute, keep return values)
STAGES = (
    ("predprey.coupling", "solve_coupled", True),
    ("predprey.coupling", "compute_bounds_report", True),
    ("predprey.coupling", "lipschitz_in_data_experiment", True),
    ("predprey.scenario_io", "write_run_artifacts", False),
    ("predprey.cli", "_write_json", False),
)

# Probed in traced jobs only, one span per call.
LAYERS = (
    ("predprey.scenario_io", "load_scenario"),
    ("predprey.scenario_io", "write_snapshots"),
    ("predprey.velocity", "make_kernel"),
    ("predprey.velocity", "modified_convolution"),
    ("predprey.velocity", "velocity"),
    ("predprey.velocity", "verify_hypothesis_v"),
    ("predprey.coupling", "initial_window"),
    ("predprey.coupling", "estimate_velocity_constants"),
    ("predprey.coupling", "picard_window"),
    ("predprey.coupling", "freeze_coefficients"),
    ("predprey.coupling", "estimate_coefficient_lipschitz"),
    ("predprey.coupling", "alpha_variation_quotient"),
    ("predprey.transport", "solve_hyperbolic"),
    ("predprey.transport", "fv_upwind_step"),
    ("predprey.parabolic", "solve_parabolic"),
    ("predprey.parabolic", "step_parabolic"),
    ("predprey.expressions", "sample_field"),
    ("predprey.series", "Trace.__post_init__"),
)

# Probed in traced jobs only, counted without a span: runs tens of thousands
# of times per job.
COUNTED = (("predprey.grid", "Field.__post_init__"),)

JOB = "job"

# Span name -> the per-layer metric its self time adds to.  Every span name a
# job can record is listed, so these self times plus the job's own self time
# (trace.unattributed_s) add up to the job's duration.
SELF_TIME_METRIC = {
    JOB: "trace.unattributed_s",
    "scenario_io.load_scenario": "scenario_io.load_s",
    "scenario_io.write_run_artifacts": "scenario_io.write_self_s",
    "cli._write_json": "scenario_io.write_self_s",
    "scenario_io.write_snapshots": "scenario_io.snapshots_s",
    "velocity.make_kernel": "velocity.kernel_s",
    "velocity.modified_convolution": "velocity.conv_s",
    "velocity.velocity": "velocity.velocity_s",
    "velocity.verify_hypothesis_v": "velocity.hypothesis_s",
    "coupling.solve_coupled": "coupling.solve_self_s",
    "coupling.initial_window": "coupling.initial_window_s",
    "coupling.estimate_velocity_constants": "coupling.initial_window_s",
    "coupling.picard_window": "coupling.picard_self_s",
    "coupling.freeze_coefficients": "coupling.freeze_self_s",
    "coupling.compute_bounds_report": "coupling.ledger_self_s",
    # the perturbation experiment grades its solves where a run has a ledger
    "coupling.lipschitz_in_data_experiment": "coupling.ledger_self_s",
    "coupling.estimate_coefficient_lipschitz": "coupling.ledger.coefficient_lipschitz_s",
    "coupling.alpha_variation_quotient": "coupling.ledger.alpha_tv_s",
    "transport.solve_hyperbolic": "transport.busy_s",
    "transport.fv_upwind_step": "transport.busy_s",
    "parabolic.solve_parabolic": "parabolic.busy_s",
    "parabolic.step_parabolic": "parabolic.busy_s",
    "expressions.sample_field": "expressions.sample_s",
    "series.Trace.__post_init__": "series.trace_s",
}
# estimate_velocity_constants below the ledger counts as the ledger's.
LEDGER_VELOCITY_METRIC = "coupling.ledger.velocity_constants_s"
LAYER_TIME_METRICS = sorted({*SELF_TIME_METRIC.values(), LEDGER_VELOCITY_METRIC})


def _span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Probe:
    """Wrappers installed for one job; use as a context manager."""

    def __init__(self, traced: bool):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._targets = [(m, a, keep, False) for m, a, keep in STAGES]
        if traced:
            self._targets += [(m, a, False, False) for m, a in LAYERS]
            self._targets += [(m, a, False, True) for m, a in COUNTED]

    def __enter__(self) -> "Probe":
        for module, attr, keep, count_only in self._targets:
            name = _span_name(module, attr)
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapper = (self._counter(name, original) if count_only
                       else self._span(name, original, keep))
            if isinstance(owner, type):
                self._swap(owner, leaf, wrapper)
                continue
            # from-imports bind the function in other modules too
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("predprey"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _swap(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, fn, keep: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        results = self.results.setdefault(name, []) if keep else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if results is not None:
                results.append(result)
            return result
        return wrapper

    def run(self, fn, *args):
        """Call ``fn`` as the job's root span."""
        return self._span(JOB, fn, False)(*args)

    # -- read-outs -------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self, sampler=None) -> list[float]:
        """Each span's duration, less the sampler's slices inside it."""
        if sampler is None:
            return [s[2] - s[1] for s in self.spans]
        return [s[2] - s[1] - sampler.overlap(s[1], s[2]) for s in self.spans]

    def total(self, names, sampler=None) -> float:
        """Summed duration of the spans with any of these names."""
        return sum(d for s, d in zip(self.spans, self.durations(sampler)) if s[0] in names)

    def self_times(self, sampler=None) -> list[float]:
        durations = self.durations(sampler)
        own = list(durations)
        for s, d in zip(self.spans, durations):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def total_self(self, names, sampler=None) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times(sampler))
                   if s[0] in names)

    def layer_times(self) -> dict[str, float]:
        """Self time per per-layer metric; sums to the job span's duration."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            metric = SELF_TIME_METRIC[s[0]]
            if s[0] == "coupling.estimate_velocity_constants" and self._under(
                    s, "coupling.compute_bounds_report"):
                metric = LEDGER_VELOCITY_METRIC
            out[metric] = out.get(metric, 0.0) + own
        return out

    def _under(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def export(self) -> dict:
        """Spans as [name index, start_ns, end_ns, parent], times from the first."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"names": names,
                "spans": [[index[s[0]], round((s[1] - t0) * 1e9),
                           round((s[2] - t0) * 1e9), s[3]] for s in self.spans]}
