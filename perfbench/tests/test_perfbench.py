"""Tests of the sweep benchmark itself, on tiny versions of its workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from workloads import WORKLOADS, replicates, sweep_config  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = frozenset(m["name"] for m in SPEC["per_layer"] if m["unit"] == "count")
SEED = 3


def _measure(tmp_path, name, trace=False, pins=None):
    return run.measure(name, SEED, 0, trace, tmp_path / "work", tiny=True, pins=pins,
                       count_names=COUNTS)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_and_reports_the_end_to_end_metrics(tmp_path, name):
    out = _measure(tmp_path, name)
    assert (out["correct"], out["failed"]) == (True, 0)
    assert out["attempted"] == 1 + run.MIN_EXECUTIONS
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in out["metrics"].values())


def test_trace_reports_every_layer_metric_and_counts_repeat(tmp_path):
    # det-grid-j2 ships spans back from pool workers.
    first = _measure(tmp_path, "det-grid-j2", trace=True)
    second = _measure(tmp_path, "det-grid-j2", trace=True)
    for out in (first, second):
        assert (out["correct"], out["failed"]) == (True, 0)
        assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}
    config = sweep_config(WORKLOADS["det-grid-j2"], SEED, tiny=True)
    assert first["metrics"]["engine.run_simulation.calls"] == replicates(config)
    assert first["metrics"]["dynamics.step_deterministic.calls"] > 0


def test_corrupted_pin_fails_every_execution_that_writes_csvs(tmp_path):
    bad = {"det-grid": {str(SEED): {"sweep": "0" * 64, "frontier": "0" * 64}}}
    out = _measure(tmp_path, "det-grid", pins=bad)
    assert out["correct"] is False
    assert out["failed"] == 1 + run.MIN_EXECUTIONS
    assert out["metrics"] == {}


def test_output_check_catches_a_wrong_frontier(tmp_path):
    config = sweep_config(WORKLOADS["det-grid"], SEED, tiny=True)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    ex = run.execute(path, tmp_path / "out", 1, "run", 60.0)
    sweep, frontier = ex.sweep_bytes.decode(), ex.frontier_bytes.decode()
    assert run.check_outputs(sweep, frontier, config) == []
    header, first, *rest = frontier.splitlines()
    if ",ok," in first:
        flipped = first.replace(",ok,", ",unreachable,", 1)
    else:
        flipped = first.replace(",unreachable,", ",ok,", 1)
    assert run.check_outputs(sweep, "\n".join([header, flipped, *rest]), config)
    assert run.check_outputs(sweep, "\n".join([header, *rest]), config)


def test_refuses_to_run_without_coopsim_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "det-grid",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
