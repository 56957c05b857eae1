"""One workload execution in a fresh interpreter: `coopsim sweep`, then `coopsim frontier`.

    python3 perfbench/child.py CONFIG OUT_DIR JOBS MODE

with coopsim's src/ on PYTHONPATH. Goes through `coopsim.cli.main` exactly
as the `coopsim` command does, writing OUT_DIR/sweep.csv and
OUT_DIR/frontier.csv. OUT_DIR/result.json records when `engine.sweep` was
entered and left (CLOCK_MONOTONIC, comparable across processes), the exit
code and the peak resident set of this process and its pool workers.

MODE is `run`, or `trace`, which also writes the spans of every layer to
OUT_DIR/spans.json at the end.
"""

import json
import os
import resource
import sys
import time

from workloads import FRONTIER_TARGETS


def main(argv) -> int:
    config, out_dir, jobs, mode = argv
    from coopsim import cli, engine

    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.install()

    sweep_span = []
    sweep = engine.sweep

    def timed_sweep(*args, **kwargs):
        sweep_span.append(time.monotonic())
        try:
            return sweep(*args, **kwargs)
        finally:
            sweep_span.append(time.monotonic())

    engine.sweep = timed_sweep
    sweep_csv = os.path.join(out_dir, "sweep.csv")
    rc = cli.main(["sweep", "--config", config, "--out", sweep_csv, "--jobs", jobs])
    if rc == 0:
        rc = cli.main(["frontier", "--in", sweep_csv, "--targets", FRONTIER_TARGETS,
                       "--out", os.path.join(out_dir, "frontier.csv")])
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the joined pool workers.
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.json"))
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"rc": rc, "sweep_span": sweep_span, "peak_rss_kib": peak_kib}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
