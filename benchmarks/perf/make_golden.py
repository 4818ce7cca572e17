"""Regenerate ``golden.json``: the reference outputs the benchmark checks.

    python3 benchmarks/perf/make_golden.py

Runs every paper program at ``tiny`` scale and every hot-small program at
``small`` scale in CARAT mode on all three engines, and writes the exit
code, the last output line and a digest of the whole output of each.  It
refuses to write anything unless the three engines agree on every
program.
"""

from __future__ import annotations

import json
import sys

from perf_workloads import GOLDEN_PATH, HOT_SMALL, PAPER_SUITE, output_record
from repro.machine.session import CaratSession, RunConfig
from repro.workloads import get_workload

ENGINES = ("reference", "fast", "trace")


def golden_entry(name: str, scale: str) -> dict:
    source = get_workload(name, scale).source
    records = []
    for engine in ENGINES:
        result = CaratSession(RunConfig(engine=engine, name=name)).run(source)
        records.append(output_record(result.exit_code, result.output))
    if any(record != records[0] for record in records):
        raise SystemExit(f"{scale} {name}: engines disagree: {records}")
    return records[0]


def main() -> int:
    golden = {
        "tiny": {name: golden_entry(name, "tiny") for name in PAPER_SUITE},
        "small": {name: golden_entry(name, "small") for name in HOT_SMALL},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
