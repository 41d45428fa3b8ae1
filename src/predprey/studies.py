"""Refinement studies: FV vs characteristics oracle, stepper vs Green oracle.

Both studies freeze the scenario's coupling (velocity computed once from the
initial diffusing density, reaction coefficients evaluated on it) so the two
routes solve the same linear problem and the measured error is pure scheme
error.  Orders are least-squares slopes of log error against log resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import expressions as ex
from .coupling import Scenario
from .grid import Field, build_grid, norm_l1, norm_linf
from .parabolic import ParabolicProblem, Scheme, duhamel_reference, solve_parabolic
from .series import constant
from .transport import TransportProblem, characteristics_solution_field, solve_hyperbolic
from .velocity import make_kernel, velocity


@dataclass(frozen=True)
class StudyReport:
    resolutions: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_order: float

    def to_dict(self) -> dict:
        return {
            "resolutions": list(self.resolutions),
            "errors": list(self.errors),
            "fitted_order": self.fitted_order,
        }


def fitted_order(resolutions, errors) -> float:
    """Least-squares slope of log(error) against log(1/n)."""
    logs_n = np.log(np.asarray(resolutions, dtype=float))
    # floor keeps a degenerate all-zero-error ladder from producing nan
    logs_e = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    slope = np.polyfit(logs_n, logs_e, 1)[0]
    return float(-slope)


def hyperbolic_oracle_study(scenario: Scenario, resolutions, t_final: float | None = None,
                            cfl: float = 0.45) -> StudyReport:
    """L1 error of the upwind scheme against the characteristics oracle.

    The drift velocity is frozen at the initial diffusing density on each
    grid; the reaction coefficient is frozen the same way.
    """
    if t_final is None:
        t_final = scenario.horizon
    errors = []
    for n in resolutions:
        grid = build_grid(scenario.domain, n)
        w0 = ex.sample_field(scenario.w0, grid, 0.0)
        u0 = ex.sample_field(scenario.u0, grid, 0.0)
        kernel = make_kernel(scenario.ell, grid)
        c = velocity(w0, kernel, scenario.kappa, scenario.attract).components
        A = ex.sample_field(scenario.alpha, grid, 0.0, w=w0).values
        a = partial(ex.sample_stack, scenario.a, grid)
        problem = TransportProblem(grid, constant(c), constant(A), a, u0)
        cmax = float(np.max(np.abs(c)))
        dt = cfl * min(grid.dx) / max(cmax, 1e-12)
        steps = max(1, int(np.ceil(t_final / dt)))
        dt = t_final / steps
        fv = solve_hyperbolic(problem, t_final, dt)
        oracle = characteristics_solution_field(problem, t_final, dt_ode=dt / 2)
        errors.append(norm_l1(Field(grid, fv.final().values - oracle.values)))
    return StudyReport(tuple(int(n) for n in resolutions), tuple(errors),
                       fitted_order(resolutions, errors))


def parabolic_duhamel_study(scenario: Scenario, resolutions, t_final: float | None = None,
                            n_terms: int = 200) -> StudyReport:
    """Sup error of the trapezoidal stepper against the Green-function quadrature.

    Runs the diffusion equation with the reaction switched off (the oracle's
    validity range); dt shrinks with dx so spatial error dominates.
    """
    if t_final is None:
        t_final = scenario.horizon
    errors = []
    for n in resolutions:
        grid = build_grid(scenario.domain, n)
        if grid.dim != 1:
            raise ValueError("the Green-function study runs on 1D scenarios")
        w0 = ex.sample_field(scenario.w0, grid, 0.0)
        b = partial(ex.sample_stack, scenario.b, grid)
        problem = ParabolicProblem(grid, scenario.mu, None, b, w0)
        dt = min(grid.dx) / 4.0
        steps = max(1, int(np.ceil(t_final / dt)))
        dt = t_final / steps
        trace = solve_parabolic(problem, t_final, Scheme("crank_nicolson", dt))
        reference = duhamel_reference(problem, t_final, n_terms=n_terms)
        errors.append(norm_linf(Field(grid, trace.final().values - reference.values)))
    return StudyReport(tuple(int(n) for n in resolutions), tuple(errors),
                       fitted_order(resolutions, errors))
