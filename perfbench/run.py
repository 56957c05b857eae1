"""Sweep benchmark: one workload through `coopsim sweep` and `coopsim frontier`.

    python3 perfbench/run.py --workload det-grid --seed 7 --seconds 30 --trace 0

Run from the repository root. Each execution is a fresh interpreter
(child.py) with the repository's src/ on PYTHONPATH; see README.md for the
workloads, the metrics and how outputs are checked. With --trace 0 the last
stdout line reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, as
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the machine. Exits 1 without a result when no
execution succeeded, 2 when coopsim's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from tracer import layer_metrics
from workloads import (DEFAULT_SEED, FRONTIER_TARGETS, WORKLOADS, grid_points,
                       replicates, sweep_config)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_EXECUTIONS = 3      # timed executions per run, however short --seconds is
START_BY_S = 110.0      # start no execution later than this into the run
EXECUTION_TIMEOUT_S = 60.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Execution:
    jobs: int
    mode: str  # "run" or "trace", as child.py takes it
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    sweep_s: float = 0.0
    peak_rss_mb: float = 0.0
    sweep_bytes: bytes = b""
    frontier_bytes: bytes = b""
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def digests(self) -> dict:
        return {"sweep": _sha(self.sweep_bytes), "frontier": _sha(self.frontier_bytes)}


def execute(config_path: Path, out_dir: Path, jobs: int, mode: str,
            timeout: float) -> Execution:
    """Run child.py once and collect its timings, outputs and spans."""
    ex = Execution(jobs=jobs, mode=mode)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "child.py"), str(config_path), str(out_dir),
            str(jobs), mode]
    launched = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        ex.problems.append(f"timed out after {timeout:.0f} s")
        return ex
    ex.wall_s = time.monotonic() - launched
    if proc.returncode != 0:
        ex.problems.append(f"exit {proc.returncode}: {err.decode(errors='replace').strip()}")
        return ex
    result = json.loads((out_dir / "result.json").read_text())
    ex.setup_s = result["sweep_span"][0] - launched
    ex.sweep_s = result["sweep_span"][1] - result["sweep_span"][0]
    ex.peak_rss_mb = result["peak_rss_kib"] / 1024.0
    ex.sweep_bytes = (out_dir / "sweep.csv").read_bytes()
    ex.frontier_bytes = (out_dir / "frontier.csv").read_bytes()
    if mode == "trace":
        spans = json.loads((out_dir / "spans.json").read_text())
        ex.layers = layer_metrics(spans, jobs)
        ex.layers["cli.csv_bytes"] = len(ex.sweep_bytes) + len(ex.frontier_bytes)
    return ex


def _rows(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_outputs(sweep_text: str, frontier_text: str, config: dict) -> list[str]:
    """Checks that hold for any seed: CSV shape, and the frontier recomputed
    by brute force from the sweep CSV (cheapest spending row per target)."""
    problems = []
    try:
        rows = _rows(sweep_text)
        if len(rows) != grid_points(config):
            problems.append(f"sweep CSV has {len(rows)} rows, grid has {grid_points(config)}")
        per_point = config["graphs"] * config["realisations"]
        for row in rows:
            if (int(row["replicates"]) != per_point
                    or int(row["master_seed"]) != config["master_seed"]
                    or not 0.0 <= float(row["coop_mean"]) <= 1.0):
                problems.append(f"bad sweep row: {row}")
        targets = [float(t) for t in FRONTIER_TARGETS.split(",")]
        frontier = _rows(frontier_text)
        if len(frontier) != len(targets):
            problems.append(f"frontier CSV has {len(frontier)} rows, expected {len(targets)}")
        for target, got in zip(targets, frontier):
            costs = [float(r["cost_mean"]) for r in rows
                     if float(r["cost_mean"]) > 0.0 and float(r["coop_mean"]) >= target]
            want = ("ok", min(costs)) if costs else ("unreachable", None)
            have = (got["status"], float(got["cost_mean"]) if got["cost_mean"] else None)
            if have != want:
                problems.append(f"frontier at {target}: {have}, brute force gives {want}")
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"unparseable CSV output: {exc!r}")
    return problems


def load_pins() -> dict:
    return json.loads((HERE / "pinned.json").read_text())["sha256"]


def _percentiles(samples_ms: list) -> dict:
    """p50 and the highest percentile with at least ten samples beyond it."""
    d = sorted(samples_ms)
    return {"engine.run_simulation.p50_ms": median(d),
            "engine.run_simulation.tail_ms": d[max(len(d) - 11, 0)]}


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            tiny: bool = False, pins: dict | None = None,
            count_names: frozenset = frozenset()) -> dict:
    """Run one workload for `seconds` and check every output.

    Expected bytes come from `pins` (inputs -> seed -> sha256) when the seed
    is pinned. Either way the workload's bytes must equal those of a first,
    untimed execution at the other --jobs value, which also warms the file
    cache. Traced executions must repeat every metric in `count_names`.
    """
    workload = WORKLOADS[name]
    config = sweep_config(workload, seed, tiny)
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "sweep.json"
    config_path.write_text(json.dumps(config))
    started = time.monotonic()
    pinned = (pins or {}).get(workload.inputs, {}).get(str(seed))
    executions = []

    def run_one(jobs, mode, expected):
        """One execution; `expected` None skips the sha256 comparison."""
        timeout = min(EXECUTION_TIMEOUT_S, started + 170.0 - time.monotonic())
        ex = execute(config_path, work_dir / "out", jobs, mode, timeout)
        if ex.ok:
            ex.problems += check_outputs(ex.sweep_bytes.decode(errors="replace"),
                                         ex.frontier_bytes.decode(errors="replace"), config)
            for kind, digest in ex.digests().items():
                if expected is not None and digest != expected[kind]:
                    ex.problems.append(f"{kind} CSV sha256 {digest[:12]} != expected "
                                       f"{expected[kind][:12]}")
        executions.append(ex)
        return ex

    ref = run_one(workload.reference_jobs, "run", pinned)
    # An impossible digest fails every execution when there is no reference.
    expected = pinned or (ref.digests() if ref.ok else {"sweep": "-", "frontier": "-"})
    runs = {"run": [], "trace": []}
    t0 = time.monotonic()
    while ((len(runs["run"]) < MIN_EXECUTIONS or time.monotonic() - t0 < seconds)
           and time.monotonic() - started < START_BY_S):
        # Traced runs pair each traced execution with an untraced one, and
        # alternate which goes first so drift falls on both sides.
        pair = ("run", "trace") if len(runs["run"]) % 2 == 0 else ("trace", "run")
        for mode in pair if trace else ("run",):
            runs[mode].append(run_one(workload.jobs, mode, expected))

    good = [ex for ex in runs["run"] if ex.ok]
    metrics = {}
    if trace:
        traced = [ex for ex in runs["trace"] if ex.ok]
        for ex in traced[1:]:
            diff = sorted(k for k in count_names if ex.layers[k] != traced[0].layers[k])
            if diff:
                ex.problems.append(f"trace counts differ between executions: {diff}")
        traced = [ex for ex in traced if ex.ok]
        if good and traced:
            layers = [ex.layers for ex in traced]
            # Counts are equal across executions by now; times take the median.
            metrics = {key: layers[0][key] if key in count_names
                       else median([lay[key] for lay in layers])
                       for key in layers[0] if not key.startswith("_")}
            # A fixed number of executions, so the percentile does not move
            # with how many fit into the run.
            metrics.update(_percentiles([ms for lay in layers[:MIN_EXECUTIONS]
                                         for ms in lay["_run_simulation_ms"]]))
            metrics["trace.overhead_s"] = (median([ex.wall_s for ex in traced])
                                           - median([ex.wall_s for ex in good]))
    elif good:
        n_rep = replicates(config)
        metrics = {
            "replicates_per_s": median([n_rep / ex.sweep_s for ex in good]),
            "wall_s": median([ex.wall_s for ex in good]),
            "setup_s": median([ex.setup_s for ex in good]),
            "peak_rss_mb": median([ex.peak_rss_mb for ex in good]),
        }
    failed = sum(not ex.ok for ex in executions)
    return {"correct": failed == 0, "attempted": len(executions), "failed": failed,
            "metrics": metrics, "executions": executions}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    fields = _read("/proc/stat").splitlines()[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "loadavg": _read("/proc/loadavg"),
        "steal_s": _steal_s(),
        "tuning": "none: no CPU pinning, no cache dropping, no kernel or frequency settings",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let `finally` blocks kill the running execution and clean the work dir.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "coopsim" / "cli.py").is_file():
        print(f"perfbench: coopsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    counts = frozenset(m["name"] for m in spec["per_layer"] if m["unit"] == "count")

    host = machine()
    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                      pins=load_pins(), count_names=counts)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    host["loadavg_end"] = _read("/proc/loadavg")
    host["steal_s"] = _steal_s() - host["steal_s"]
    for ex in out["executions"]:
        for problem in ex.problems:
            print(f"perfbench: {args.workload} seed {args.seed} jobs {ex.jobs}"
                  f" {ex.mode}: {problem}", file=sys.stderr)
    if not out["metrics"]:
        print("perfbench: no execution succeeded; nothing measured", file=sys.stderr)
        return 1
    if set(out["metrics"]) != set(declared):
        raise RuntimeError(f"metrics {sorted(out['metrics'])} do not match BENCHMARK.json "
                           f"{sorted(declared)}")
    print(json.dumps({"machine": host, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
