"""The benchmark's workloads: scenario files generated from the shipped one.

Every workload starts from ``scenarios/predator_prey.ini``.  The workload seed
becomes the scenario's sampling ``seed`` and shifts each initial bump centre
by at most ``JITTER``; seed 0 keeps the shipped centres, so its scenario is
the one the committed reference was computed on.  The library only ever sees
the generated file.
"""

from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass

SHIPPED = "scenarios/predator_prey.ini"
HEADER = "# predprey scenario v1"
JITTER = 0.02
REFERENCE_SEED = 0
LIPSCHITZ_DELTA = 1e-2


@dataclass(frozen=True)
class Workload:
    command: str                   # the predprey subcommand one job performs
    horizon: float | None = None   # None keeps the shipped T


WORKLOADS = {
    # 800 steps on a 128-cell line: per-step Python overhead dominates.
    "pp1d-long": Workload("run", horizon=4.0),
    # four nearby solves and no ledger or snapshot writer.
    "lipschitz-1d": Workload("lipschitz"),
}


def scenario_text(name: str, seed: int, shipped_text: str,
                  horizon: float | None = None) -> str:
    """Scenario file for one workload and seed; ``horizon`` overrides T."""
    workload = WORKLOADS[name]
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(shipped_text, source=SHIPPED)
    rng = random.Random(seed)
    for key, shipped_centre in (("u0", 0.3), ("w0", 0.7)):
        centre = shipped_centre
        if seed != REFERENCE_SEED:
            centre = round(centre + rng.uniform(-JITTER, JITTER), 6)
        parser["initial"][key] = f"0.5*exp(-50*(x-{centre!r})^2)"
    horizon = horizon if horizon is not None else workload.horizon
    if horizon is not None:
        parser["time"]["T"] = repr(horizon)
    parser["output"]["seed"] = str(seed)
    out = io.StringIO()
    parser.write(out)
    return HEADER + "\n" + out.getvalue()
