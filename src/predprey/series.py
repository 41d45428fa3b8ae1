"""Time-indexed grid data: coefficient series, the array-backed trace, and
the one grading rule of every bound check.

A series is any callable ``times -> stack``: asked for an array of times it
returns the values there as one array of shape (len(times), *shape), where
shape is grid.shape for a scalar coefficient and (dim, *grid.shape) for a
velocity.  A problem that holds ``None`` in place of a series means 0.
``constant`` holds one value for all times; ``sampled`` blends snapshots
linearly in time and clamps outside the stored range, matching the freezing
strategy of the fixed-point coupling, and returns a stored snapshot exactly
when asked for its time.  An expression is a series as
``functools.partial(expressions.sample_stack, expr, grid)``.

A Trace holds a solver's output as one (n_times, *grid.shape) array; its
norms are axis reductions over that array, computed on first use.

Every a-priori estimate is checked as ``lhs <= rhs`` at each stored time by
``grade``, which returns an ``InequalityCheck``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import (Field, Grid, GridError, l1_norms, linf_norms, require_finite,
                   total_variations)

log = logging.getLogger(__name__)

Series = Callable[[np.ndarray], np.ndarray]


def constant(values) -> Series:
    """One value for all times: each stack is a read-only broadcast view."""
    values = np.asarray(values, dtype=float)
    return lambda times: np.broadcast_to(values, (len(times),) + values.shape)


def sampled(times: np.ndarray, values: np.ndarray) -> Series:
    """Snapshots ``values`` (one per entry of ``times``) blended linearly in time.

    Clamped outside [times[0], times[-1]]; a query that lands on a stored
    time returns that snapshot unblended.
    """
    def at(ts: np.ndarray) -> np.ndarray:
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

    return at


def at_times(series: Series | None, times: np.ndarray) -> np.ndarray | None:
    """A series at ``times``; None (for 0) for the ``None`` series."""
    return None if series is None else series(times)


def difference(x: np.ndarray | None, y: np.ndarray | None) -> np.ndarray | None:
    """x - y for stacks where None means 0."""
    if y is None:
        return x
    return -y if x is None else x - y


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


def _first_intervals(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Integral over [x_j, x_{j+1}] of the quadratic through nodes j, j+1, j+2,
    for every j along axis 0 (``steps`` are the node spacings)."""
    h1, h2 = steps[:-1], steps[1:]
    r1 = h1 / (h1 + h2)
    r2 = r1 * (h1 / h2)
    return h1 / 6 * ((3 - r1) * values[:-2] + (3 + r2 + r1) * values[1:-1] - r2 * values[2:])


def cumulative_simpson(values: np.ndarray, times: np.ndarray, axis: int = 0) -> np.ndarray:
    """Composite Simpson integral of ``values`` over ``times`` (along ``axis``)
    from times[0] up to each time; the last entry is the definite integral.

    Intervals pair up as (0, 1), (2, 3), ... and each pair integrates the
    quadratic through its three nodes, on any spacing.  With an even node
    count the last interval takes the quadratic through the last three
    nodes (Cartwright's rule); two nodes give the trapezoid.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    steps = np.diff(np.asarray(times, dtype=float)).reshape((-1,) + (1,) * (v.ndim - 1))
    if len(v) < 3:
        parts = 0.5 * steps * (v[:-1] + v[1:])
    else:
        parts = np.empty((len(v) - 1,) + v.shape[1:])
        parts[:-1:2] = _first_intervals(v, steps)[::2]
        # the second interval of each pair, from the reversed nodes
        second = _first_intervals(v[::-1], steps[::-1])[::-1]
        parts[1::2] = second[::2]
        parts[-1] = second[-1]
    out = np.zeros(v.shape)
    np.cumsum(parts, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


def integrated_norms(stack: np.ndarray | None, times: np.ndarray,
                     grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-Riemann integrals up to each of ``times`` of the L1, sup and TV
    norms of a scalar stack (one field per time); zeros for ``None``.

    The stack is reduced as given, so one that repeats a row (a constant
    series) is reduced on that row alone.
    """
    if stack is None:
        return np.zeros(len(times)), np.zeros(len(times)), np.zeros(len(times))
    return (cumulative_left_riemann(l1_norms(stack, grid), times),
            cumulative_left_riemann(linf_norms(stack, grid), times),
            cumulative_left_riemann(total_variations(stack, grid), times))


@dataclass(frozen=True)
class InequalityCheck:
    """One estimate ``lhs <= rhs`` at each of ``times``, graded by ``grade``."""

    name: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    passed: bool

    @property
    def min_margin(self) -> float:
        return float(np.min(self.rhs - self.lhs))


_FLOAT_MAX = float(np.finfo(float).max)


def saturate(x: np.ndarray) -> np.ndarray:
    """Products of capped exponentials can still overflow to inf: bound
    values are held at the largest float, which keeps them finite and
    JSON-safe without changing any verdict."""
    return np.minimum(x, _FLOAT_MAX)


def grade(name: str, times: np.ndarray, lhs: np.ndarray,
          rhs: np.ndarray) -> InequalityCheck:
    """Grade lhs <= rhs * (1 + 1e-6) + 1e-14 at every time.

    The relative slack absorbs the rounding of the products and integrals
    that build a right-hand side, the absolute one the rounding of norms
    that are 0 in exact arithmetic.  An rhs saturated at the largest float
    holds vacuously; each check with such entries logs a warning naming the
    first saturated time, so the vacuous bound stays visible.
    """
    lhs = np.asarray(lhs, dtype=float)
    with np.errstate(over="ignore"):
        rhs = saturate(np.asarray(rhs, dtype=float))
        ok = bool(np.all(lhs <= rhs * (1 + 1e-6) + 1e-14))
    saturated = np.flatnonzero(rhs == _FLOAT_MAX)
    if saturated.size:
        log.warning("check %s: rhs saturated at the largest float from t=%.17g on "
                    "(%d of %d times); the bound is vacuous there",
                    name, times[saturated[0]], saturated.size, len(rhs))
    return InequalityCheck(name, times, lhs, rhs, ok)
