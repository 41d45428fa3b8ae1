"""A fixed host-speed probe that the benchmark times with its timed calls.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within seconds and drifts over minutes: neighbours load the
same caches and cores.  No hardware counters are exposed, so the benchmark
measures the host's ``slowness`` while it times a call: the probe's time
over its time on a quiet host.  Calls run under a ``Sampler``, which
interrupts them every ``SAMPLE_INTERVAL_S`` to time a short slice of the
probe; the slices' time is taken out of the calls' times again.  A set-up
call runs in another interpreter and is timed between two probes instead.
The benchmark divides each time by the slowness measured with it (see
run.py).  The probe is this file's own code, not predprey's, so a change to
the library moves the scaled times one to one.

The probe has the profile of a 1D predprey step on a small grid: many small
numpy and scipy calls from Python, a 65-point convolution, an upwind flux,
an implicit banded diffusion solve, a validated dataclass per step and a few
norms.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

CELLS = 128
STENCIL = 65
# Quiet-host seconds per probe step; scaled times are seconds at this speed.
NOMINAL_STEP_S = 1.0e-4
# A sampler slice: this many probe steps, every SAMPLE_INTERVAL_S of wall time.
SLICE_STEPS = 4
SAMPLE_INTERVAL_S = 0.01
NOMINAL_SLICE_S = 7e-4


@dataclass(frozen=True)
class _State:
    values: np.ndarray
    time: float

    def __post_init__(self):
        if self.values.shape != (CELLS,) or not np.all(np.isfinite(self.values)):
            raise ValueError("bad probe state")


def _work(steps: int) -> float:
    x = (np.arange(CELLS) + 0.5) / CELLS
    u = 0.5 * np.exp(-50.0 * (x - 0.3) ** 2)
    kernel = np.exp(-np.linspace(-2.0, 2.0, STENCIL) ** 2)
    kernel /= kernel.sum()
    coeff = 0.4
    banded = np.zeros((3, CELLS))
    banded[0, 1:] = -coeff
    banded[1, :] = 1.0 + 2.0 * coeff
    banded[2, :-1] = -coeff
    history = []
    total = 0.0
    for step in range(steps):
        drift = np.convolve(u, kernel, mode="same") - u
        flux = np.maximum(drift, 0.0) * u + np.minimum(drift, 0.0) * np.roll(u, -1)
        u = u - 0.2 * (flux - np.roll(flux, 1))
        u = solve_banded((1, 1), banded, u)
        state = _State(u.copy(), step * 1e-3)
        history.append(state)
        total += float(np.abs(np.diff(state.values)).sum()) + float(np.abs(u).max())
        if len(history) > 32:
            history.clear()
    return total


def compute_slowness(steps: int) -> float:
    """The compute probe's time for ``steps`` steps now over its quiet-host time."""
    t0 = time.perf_counter()
    total = _work(steps)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(total):
        raise RuntimeError("host-speed probe diverged")
    return elapsed / (steps * NOMINAL_STEP_S)


class Sampler:
    """Times a probe slice every ``SAMPLE_INTERVAL_S`` on SIGALRM while active;
    the slices run on the main thread between two bytecodes of whatever it
    is doing.  Use as a context manager around the timed calls."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work(SLICE_STEPS)
        self.slices.append((t0, time.perf_counter()))

    def overlap(self, start: float, end: float) -> float:
        """Seconds of slices inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.slices)

    def slowness(self) -> float:
        if not self.slices:
            raise RuntimeError("the timed call ended before the first sample")
        busy = sum(b - a for a, b in self.slices)
        return busy / (len(self.slices) * NOMINAL_SLICE_S)
