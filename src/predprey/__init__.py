"""Coupled nonlocal drift/diffusion simulator on bounded domains.

A predator density is transported by a velocity that senses the prey density
through a spatial average; the prey diffuses with a reaction coupling back to
the predator.  Both equations carry homogeneous Dirichlet data.  The library
solves the coupled system by fixed-point iteration over short time windows
and turns the underlying stability and a-priori estimates into executable
checks (see the bounds ledger in :mod:`predprey.coupling`).
"""

from .grid import (DomainSpec, Field, Grid, VectorField, build_grid, divergences,
                   interp_values, l1_norms, linf_norms, total_variations)
from .expressions import Slot, evaluate, parse, sample_field, to_source
from .velocity import Kernel, make_kernel, modified_convolution, verify_hypothesis_v
from .parabolic import (ParabolicProblem, Scheme, check_parabolic_bounds,
                        duhamel_reference, green_interval, heat_kernel,
                        solve_parabolic, step_parabolic)
from .transport import (CharPath, TransportProblem, characteristics_solution_field,
                        check_hyperbolic_bounds, exponential_weight, fv_upwind_step,
                        solve_hyperbolic, trace_characteristic)
from .coupling import (BoundsReport, CoupledTrace, Scenario, compute_bounds_report,
                       lipschitz_in_data_experiment, picard_window, positivity_audit,
                       solve_coupled, stability_in_controls_experiment)
from .scenario_io import load_scenario, scenario_to_text, write_run_artifacts

__version__ = "0.1.0"
