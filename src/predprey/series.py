"""Time-indexed grid data: coefficient series and the array-backed trace.

Both solvers consume coefficients as "series" objects.  ``at(t)`` returns
one Field (or VectorField); ``stack(times)`` returns the values at many
times as one array of shape (len(times), *grid.shape) (vector series:
(len(times), dim, *grid.shape)), which is how the solvers fetch a whole
march's coefficients in one call.  Snapshot-backed series interpolate
linearly in time and clamp outside the stored range, matching the freezing
strategy of the fixed-point coupling; asked for a stored time they return
the stored snapshot exactly.

A Trace holds a solver's output as one (n_times, *grid.shape) array; its
norms are axis reductions over that array, computed on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import (Field, Grid, GridError, VectorField, l1_norms, linf_norms,
                   require_finite, total_variations)


class FieldSeries:
    def at(self, t: float) -> Field:  # pragma: no cover - interface
        raise NotImplementedError

    def stack(self, times: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class VectorSeries:
    def at(self, t: float) -> VectorField:  # pragma: no cover - interface
        raise NotImplementedError

    def stack(self, times: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


def _broadcast(value: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.broadcast_to(value, (len(times),) + value.shape)


@dataclass(frozen=True)
class ConstantFieldSeries(FieldSeries):
    value: Field

    def at(self, t: float) -> Field:
        return self.value

    def stack(self, times: np.ndarray) -> np.ndarray:
        return _broadcast(self.value.values, times)


@dataclass(frozen=True)
class FuncFieldSeries(FieldSeries):
    fn: Callable[[float], Field]

    def at(self, t: float) -> Field:
        return self.fn(t)

    def stack(self, times: np.ndarray) -> np.ndarray:
        return np.stack([self.fn(t).values for t in times])


@dataclass(frozen=True)
class ConstantVectorSeries(VectorSeries):
    value: VectorField

    def at(self, t: float) -> VectorField:
        return self.value

    def stack(self, times: np.ndarray) -> np.ndarray:
        return _broadcast(self.value.components, times)


def interpolate(times: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Snapshots ``values`` (one per entry of ``times``) blended linearly at ``ts``.

    Clamped outside [times[0], times[-1]]; a query that lands on a stored
    time returns that snapshot unblended.
    """
    ts = np.asarray(ts, dtype=float)
    # last stored time <= ts; the first one for ts before the range
    i0 = np.maximum(np.searchsorted(times, ts, side="right") - 1, 0)
    out = values[i0]
    blend = np.flatnonzero((ts != times[i0]) & (ts > times[0]) & (ts < times[-1]))
    if blend.size:
        j = i0[blend]
        lam = (ts[blend] - times[j]) / (times[j + 1] - times[j])
        weight = lam.reshape((-1,) + (1,) * (values.ndim - 1))
        out[blend] = (1 - weight) * values[j] + weight * values[j + 1]
    return out


@dataclass(frozen=True)
class SampledFieldSeries(FieldSeries):
    """Snapshots ``values`` (n, *grid.shape) at ascending ``times``."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def at(self, t: float) -> Field:
        return Field(self.grid, self.stack(np.array([t]))[0])

    def stack(self, times: np.ndarray) -> np.ndarray:
        return interpolate(self.times, self.values, times)


@dataclass(frozen=True)
class SampledVectorSeries(VectorSeries):
    """Snapshots ``values`` (n, dim, *grid.shape) at ascending ``times``."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def at(self, t: float) -> VectorField:
        return VectorField(self.grid, self.stack(np.array([t]))[0])

    def stack(self, times: np.ndarray) -> np.ndarray:
        return interpolate(self.times, self.values, times)


@dataclass(frozen=True)
class Trace:
    """Per-step solver output: ``values`` has shape (n_times, *grid.shape).

    Construction validates once for the whole array (strictly increasing
    times, shape, finiteness) and freezes it; ``l1``/``linf``/``tv`` are the
    per-time norms.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (len(times),) + self.grid.shape:
            raise GridError(f"trace shape {values.shape} != "
                            f"{(len(times),) + self.grid.shape}")
        require_finite(values)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @cached_property
    def l1(self) -> np.ndarray:
        return l1_norms(self.values, self.grid)

    @cached_property
    def linf(self) -> np.ndarray:
        return linf_norms(self.values, self.grid)

    @cached_property
    def tv(self) -> np.ndarray:
        return total_variations(self.values, self.grid)

    def final(self) -> Field:
        return Field(self.grid, self.values[-1])


def step_times(T: float, dt: float, t_start: float = 0.0) -> np.ndarray:
    """Uniform steps of dt landing exactly on t_start + T (short last step)."""
    n_full = int(math.floor(T / dt + 1e-9))
    times = t_start + dt * np.arange(n_full + 1)
    if T - n_full * dt > 1e-9 * dt:
        times = np.append(times, t_start + T)
    return times


def cumulative_left_riemann(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Left-endpoint cumulative integral on the trace time grid.

    The discrete schemes accumulate coefficients at the left endpoint of each
    step, so bound right-hand sides built with the same rule are honored by
    the discrete solution exactly, not just up to quadrature error.
    """
    out = np.zeros_like(values)
    dt = np.diff(times)
    out[1:] = np.cumsum(values[:-1] * dt)
    return out
