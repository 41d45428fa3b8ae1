"""Command line driver: run scenarios and the verification experiments.

Subcommands::

    predprey run            --scenario S --out DIR
    predprey bounds         --scenario S --out DIR
    predprey lipschitz      --scenario S --out DIR --delta X
    predprey controls       --scenario S --out DIR --delta X
    predprey convergence    --scenario S --out DIR --resolutions 64,128,256
    predprey oracle-compare --scenario S --out DIR --resolutions 64,128,256

Exit code 0 on success; 1 on scenario errors, window collapse, non-finite
evaluation, a step too large for the CFL or reaction limit (``time.dt``), a
kernel horizon too small for the grid (``model.ell``), a solution that
overflows, a ``--seed``/``--resolutions`` value the loader would reject
for its key, or a non-finite ``--delta``, with the failing key path on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import expressions as ex
from .coupling import (Scenario, WindowCollapse, compute_bounds_report,
                       lipschitz_in_data_experiment, solve_coupled,
                       stability_in_controls_experiment)
from .grid import NonFiniteField
from .parabolic import StiffReaction
from .scenario_io import (ScenarioError, check_delta, check_seed, load_scenario,
                          parse_resolutions, write_bounds_json, write_run_artifacts)
from .studies import hyperbolic_oracle_study, parabolic_duhamel_study
from .transport import CflViolation
from .velocity import HorizonTooSmall

log = logging.getLogger("predprey")


def _load(args) -> tuple[Scenario, str]:
    """The scenario with the ``--seed`` override, and the output directory."""
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=check_seed(args.seed))
    return scenario, args.out or scenario.out_dir


def _write_json(payload: dict, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _graded_solve(args):
    """Solve the scenario and grade the trace against the bound ledger."""
    scenario, out_dir = _load(args)
    trace = solve_coupled(scenario)
    return scenario, out_dir, trace, compute_bounds_report(trace, scenario)


def cmd_run(args) -> int:
    scenario, out_dir, trace, report = _graded_solve(args)
    for path in write_run_artifacts(trace, report, scenario, out_dir).written():
        log.info("wrote %s", path)
    log.info("bounds ledger all_passed=%s", report.all_passed())
    return 0


def cmd_bounds(args) -> int:
    _, out_dir, _, report = _graded_solve(args)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bounds.json")
    write_bounds_json(report, path)
    log.info("wrote %s (all_passed=%s)", path, report.all_passed())
    return 0


def _perturbation(args, name: str, experiment) -> int:
    """Write the response to a perturbation of size --delta, and of --delta/2
    when it is not 0; ``experiment(scenario, size, base)`` runs one size."""
    delta = check_delta(args.delta)
    scenario, out_dir = _load(args)
    if delta == 0.0:
        rep = experiment(scenario, 0.0, None)
        payload = {"delta": 0.0, "max_lhs": float(max(rep.lhs))}
    else:
        base = solve_coupled(scenario)
        rep = experiment(scenario, delta, base)
        rep_half = experiment(scenario, delta / 2, base)
        payload = {
            "delta": delta,
            "quotients": [float(q) for q in rep.quotients],
            "quotients_half_delta": [float(q) for q in rep_half.quotients],
            "final_quotient": rep.final_quotient,
            "final_quotient_half_delta": rep_half.final_quotient,
            "quotient_ratio": (rep.final_quotient / rep_half.final_quotient
                               if rep_half.final_quotient > 0 else 0.0),
        }
    payload["times"] = [float(t) for t in rep.times]
    payload["lhs"] = [float(v) for v in rep.lhs]
    path = _write_json(payload, out_dir, name)
    log.info("wrote %s", path)
    return 0


def cmd_lipschitz(args) -> int:
    return _perturbation(args, "lipschitz.json", lambda scenario, size, base:
                         lipschitz_in_data_experiment(scenario, dw0=ex.Num(size), base=base))


def cmd_controls(args) -> int:
    return _perturbation(args, "controls.json", lambda scenario, size, base:
                         stability_in_controls_experiment(
                             scenario, b_tilde=ex.BinOp("+", scenario.b, ex.Num(size)),
                             base=base))


def _oracle_study(args):
    """Refine upwind against the characteristics oracle on --resolutions."""
    scenario, out_dir = _load(args)
    ladder = parse_resolutions(args.resolutions)
    return scenario, out_dir, ladder, hyperbolic_oracle_study(scenario, ladder)


def cmd_convergence(args) -> int:
    scenario, out_dir, ladder, hyp = _oracle_study(args)
    payload = {"hyperbolic_vs_oracle": hyp.to_dict()}
    if scenario.domain.dim == 1:
        payload["parabolic_vs_green"] = parabolic_duhamel_study(scenario, ladder).to_dict()
    path = _write_json(payload, out_dir, "convergence.json")
    log.info("wrote %s", path)
    return 0


def cmd_oracle_compare(args) -> int:
    _, out_dir, _, hyp = _oracle_study(args)
    path = _write_json(hyp.to_dict(), out_dir, "oracle_compare.json")
    log.info("wrote %s (fitted order %.3f)", path, hyp.fitted_order)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predprey", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", default=None, help="output directory (default: scenario)")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")

    p_run = sub.add_parser("run", help="solve the coupled system, write all artifacts")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="solve and write the bound ledger only")
    common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_lip = sub.add_parser("lipschitz", help="initial-data perturbation experiment")
    common(p_lip)
    p_lip.add_argument("--delta", type=float, default=1e-2,
                       help="constant shift added to the initial diffusing density")
    p_lip.set_defaults(func=cmd_lipschitz)

    p_ctl = sub.add_parser("controls", help="control perturbation experiment")
    common(p_ctl)
    p_ctl.add_argument("--delta", type=float, default=1e-2,
                       help="constant shift added to the diffusion control b")
    p_ctl.set_defaults(func=cmd_controls)

    p_conv = sub.add_parser("convergence", help="refinement studies for both solvers")
    common(p_conv)
    p_conv.add_argument("--resolutions", default="64,128,256")
    p_conv.set_defaults(func=cmd_convergence)

    p_oc = sub.add_parser("oracle-compare", help="upwind vs characteristics refinement")
    common(p_oc)
    p_oc.add_argument("--resolutions", default="64,128,256")
    p_oc.set_defaults(func=cmd_oracle_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ex.ExprError, WindowCollapse) as exc:
        message = str(exc)
    # solver limits met at run time, named by the scenario key that sets them
    except (CflViolation, StiffReaction) as exc:
        message = f"[time.dt] {exc}"
    except HorizonTooSmall as exc:
        message = f"[model.ell] {exc}"
    except NonFiniteField as exc:
        message = f"[scenario] {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
