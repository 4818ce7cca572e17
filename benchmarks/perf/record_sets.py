"""Record a set of benchmark runs, and compare two sets.

    python3 benchmarks/perf/record_sets.py record A          # 10 seeds x 4 workloads
    python3 benchmarks/perf/record_sets.py record B --traced # plus one traced run each
    python3 benchmarks/perf/record_sets.py compare A B

``record`` runs ``run.py`` once per (workload, seed), one process at a
time, and writes ``results/set-LABEL.json``: every metric's values, median,
quartiles and spread (the distance between the quartiles as a share of
the median, from ``statistics.quantiles(values, n=4)``).  ``compare``
checks that no end-to-end metric's median in the second set is worse than
in the first by more than its bound in ``BENCHMARK.json``, and that each
spread stays within a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def record(label: str, seeds, traced: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = {"seeds": list(seeds), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
        }
        if traced:
            entry["traced"] = run_once(workload, seeds[0], spec["run_seconds"], 1)
        document["workloads"][workload] = entry
    path = RESULTS / f"set-{label}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def compare(first: str, second: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [json.loads((RESULTS / f"set-{label}.json").read_text()) for label in (first, second)]
    failures = 0
    for workload in sets[0]["workloads"]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (s["workloads"][workload]["metrics"][name] for s in sets)
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            steady = name == "setup_s" or max(a["spread"], b["spread"]) <= bound / 3
            ok = worse <= bound and steady
            failures += not ok
            print(f"{workload:11s} {name:13s} median {a['median']:.6g} -> "
                  f"{b['median']:.6g} ({change:+.1%}), spreads "
                  f"{a['spread']:.1%} / {b['spread']:.1%}, bound {bound:.0%}"
                  f"{'' if ok else '  <-- FAIL'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("label")
    rec.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    rec.add_argument("--traced", action="store_true")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    if args.command == "record":
        record(args.label, args.seeds, args.traced)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
