"""Pin the sha256 of each workload input's sweep and frontier CSVs.

    python3 perfbench/pin.py 20230116 0 1 2

Runs every input once at --jobs 1 and once at --jobs 2 for each seed given,
and writes perfbench/pinned.json only if every run succeeds, passes the
output checks and both job counts wrote the same bytes. Pin only from code
whose outputs are known to be right; run.py then fails any execution whose
bytes differ from the pin.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, check_outputs, execute
from workloads import FRONTIER_TARGETS, WORKLOADS, sweep_config


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    path = HERE / "pinned.json"
    pins = json.loads(path.read_text())["sha256"] if path.exists() else {}
    work = HERE / ".work" / "pin"
    try:
        for workload in {w.inputs: w for w in WORKLOADS.values()}.values():
            for seed in seeds:
                config = sweep_config(workload, seed)
                work.mkdir(parents=True, exist_ok=True)
                config_path = work / "sweep.json"
                config_path.write_text(json.dumps(config))
                digests = []
                for jobs in (1, 2):
                    ex = execute(config_path, work / "out", jobs, "run", 300.0)
                    problems = ex.problems or check_outputs(
                        ex.sweep_bytes.decode(), ex.frontier_bytes.decode(), config)
                    if problems:
                        print(f"{workload.inputs} seed {seed} jobs {jobs}: {problems}",
                              file=sys.stderr)
                        return 1
                    digests.append(ex.digests())
                if digests[0] != digests[1]:
                    print(f"{workload.inputs} seed {seed}: --jobs changes the bytes",
                          file=sys.stderr)
                    return 1
                pins.setdefault(workload.inputs, {})[str(seed)] = digests[0]
                print(workload.inputs, seed, digests[0]["sweep"][:12], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps({"frontier_targets": FRONTIER_TARGETS, "sha256": pins},
                               indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
