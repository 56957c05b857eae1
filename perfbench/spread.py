"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/results/seed-baseline.json

Runs run.py once per (workload, seed), one after another, with
BENCHMARK.json's run_seconds. For each end-to-end metric it reports the
median and the interquartile range (statistics.quantiles, n=4) as a share
of the median, against a third of the metric's bound. --out keeps every
run's result and machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            machine, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "machine": machine["machine"], **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "failed", result["failed"], "steal_s", round(machine["machine"]["steal_s"], 2),
                  flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            summary[metric["name"]] = {"median": median, "iqr_share": share,
                                       "bound": metric["bound"]}
            steady &= share < metric["bound"] / 3
            print(f"  {metric['name']:18s} median {median:10.4f}  iqr/median {share:.4f}"
                  f"  bound/3 {metric['bound'] / 3:.4f}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
