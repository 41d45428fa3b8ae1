#!/usr/bin/env python3
"""Refinement studies for both solvers against their independent oracles.

Prints per-resolution errors and fitted orders for (a) the upwind transport
scheme against the characteristics oracle and (b) the trapezoidal diffusion
stepper against the Green-function quadrature.

Usage: python3 scripts/convergence_study.py [--scenario PATH] [--resolutions 64,128,256]
"""

import argparse
import os
import sys

from predprey.scenario_io import ScenarioError, load_scenario, parse_resolutions
from predprey.studies import hyperbolic_oracle_study, parabolic_duhamel_study

DEFAULT = os.path.join(os.path.dirname(__file__), "..", "scenarios", "advection.ini")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=DEFAULT)
    parser.add_argument("--resolutions", default="64,128,256")
    args = parser.parse_args()
    try:
        ladder = parse_resolutions(args.resolutions)
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

    hyp = hyperbolic_oracle_study(scenario, ladder)
    print("upwind vs characteristics oracle (L1 at final time):")
    for n, err in zip(hyp.resolutions, hyp.errors):
        print(f"  n={n:4d}  error {err:.4e}")
    print(f"  fitted order {hyp.fitted_order:.3f}")

    if scenario.domain.dim == 1:
        par = parabolic_duhamel_study(scenario, ladder)
        print("trapezoidal stepper vs Green-function quadrature (sup at final time):")
        for n, err in zip(par.resolutions, par.errors):
            print(f"  n={n:4d}  error {err:.4e}")
        print(f"  fitted order {par.fitted_order:.3f}")


if __name__ == "__main__":
    main()
