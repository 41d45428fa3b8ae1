"""Write reference.json: the seed-0 outputs the benchmark's jobs are checked against.

    python3 perfbench/make_reference.py

Run it only on a commit whose solver output is trusted; the benchmark then
fails any seed-0 job whose norm series (or Lipschitz quotients) move by more
than its Picard-tied tolerance.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import REFERENCE_SEED, SHIPPED, WORKLOADS, scenario_text


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import predprey.cli as cli

    shipped = (run.ROOT / SHIPPED).read_text()
    reference = {}
    for name, workload in WORKLOADS.items():
        work = run.WORK / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        scenario = work / "scenario.ini"
        scenario.write_text(scenario_text(name, REFERENCE_SEED, shipped))
        probe = run.call_job(cli, workload.command, scenario, work / "out", traced=False)
        reference[name] = run.job_series(workload.command, probe)
        print(f"{name}: {len(reference[name]['times'])} times")
    run.REFERENCE.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
