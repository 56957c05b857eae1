"""In-memory spans around the public functions of coopsim's modules.

`install()` replaces every public module-level function of network, game,
interference, dynamics, engine and cli, plus `Graph.from_edges` and the
sweep's per-task function, with a wrapper that records one span per call:
name, parent span, start, end, process id and a few work counters read from
the call's arguments or result. No coopsim source changes; callers reach
the wrappers because coopsim calls these functions through module globals.

Wrappers go in before `engine.sweep` creates its process pool. The pool
forks, so its workers inherit them; each task ships the spans it recorded
back to the parent alongside its result. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("network", "game", "interference", "dynamics", "engine", "cli")

# Work counters recorded per call: (args, result) -> dict.
_PROBES = {
    "network.generate": lambda a, r: {"graph": repr(a[0])},
    "game.accumulate_scores": lambda a, r: {"edges": a[0].n_edges},
    "dynamics.step_deterministic": lambda a, r: {"edges": a[0].n_edges},
    "dynamics.step_stochastic": lambda a, r: {"agents": a[0].n},
    "interference.apply_interference": lambda a, r: {"invested": r[1].invested},
    "engine.run_simulation": lambda a, r: {"horizon": a[0].horizon,
                                           "absorbed": r.absorbed_at is not None},
}

_ACTIVE = None  # the installed Tracer; pool workers find it through the fork


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, t0, t1, pid, counters or None]
        self.stack = []
        self.pid = os.getpid()

    def wrap(self, name, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, self.pid, None]
            self.spans.append(span)
            self.stack.append(idx)
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                self.stack.pop()
            if probe is not None:
                span[5] = probe(args, result)
            return result

        return traced

    def adopt(self, spans):
        """Append spans recorded in a worker, renumbering their parent links."""
        offset = len(self.spans)
        for span in spans:
            if span[1] is not None:
                span[1] += offset
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _in_worker(fn, arg):
    """Run one pool task with a fresh span buffer and return its spans too."""
    tracer = _ACTIVE
    tracer.spans, tracer.stack, tracer.pid = [], [], os.getpid()
    return fn(arg), tracer.spans


class _TracingPool(ProcessPoolExecutor):
    def map(self, fn, *iterables, **kwargs):
        for result, spans in super().map(_in_worker, itertools.repeat(fn),
                                         *iterables, **kwargs):
            _ACTIVE.adopt(spans)
            yield result


def install() -> Tracer:
    """Wrap coopsim's public functions; call once, before any sweep starts."""
    global _ACTIVE
    tracer = _ACTIVE = Tracer()
    for layer in LAYERS:
        mod = importlib.import_module(f"coopsim.{layer}")
        for name, fn in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                setattr(mod, name, tracer.wrap(f"{layer}.{name}", fn))
    network = importlib.import_module("coopsim.network")
    engine = importlib.import_module("coopsim.engine")
    graph = network.Graph
    graph.from_edges = classmethod(tracer.wrap("network.from_edges",
                                               graph.from_edges.__func__))
    # Keeps its name and module, so the pool still pickles it by reference.
    engine._point_graph_task = tracer.wrap("engine.task", engine._point_graph_task)
    engine.ProcessPoolExecutor = _TracingPool
    return tracer


# ---------------------------------------------------------------------------
# analysis

def _durations(spans):
    """Per name: list of (duration, self time, counters)."""
    child_time = defaultdict(float)
    for name, parent, t0, t1, pid, counters in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = defaultdict(list)
    for idx, (name, parent, t0, t1, pid, counters) in enumerate(spans):
        out[name].append((t1 - t0, t1 - t0 - child_time[idx], counters or {}))
    return out


def layer_metrics(spans, jobs: int) -> dict:
    """Per-layer figures of one traced workload execution.

    Times are seconds summed over calls in every process. run_simulation
    durations are returned under `_run_simulation_ms` for pooling across
    executions; the caller turns them into percentiles.
    """
    d = _durations(spans)

    def calls(name):
        return len(d[name])

    def total(name):
        return sum(x[0] for x in d[name])

    def counter(name, key):
        return sum(x[2][key] for x in d[name])

    def ns_per(name, key):
        work = counter(name, key)
        return total(name) * 1e9 / work if work else 0.0

    runs = calls("engine.run_simulation")
    builds = calls("network.generate")
    sweep_s = total("engine.sweep")
    compute_s = total("engine.run_simulation") + total("network.generate")
    horizon = counter("engine.run_simulation", "horizon")
    return {
        "network.generate.calls": builds,
        "network.generate.s": total("network.generate"),
        "network.from_edges.s": total("network.from_edges"),
        "network.generate.useful_ratio":
            len({x[2]["graph"] for x in d["network.generate"]}) / builds if builds else 0.0,
        "dynamics.step_deterministic.calls": calls("dynamics.step_deterministic"),
        "dynamics.step_deterministic.s": total("dynamics.step_deterministic"),
        "dynamics.step_deterministic.ns_per_edge": ns_per("dynamics.step_deterministic", "edges"),
        "dynamics.step_stochastic.calls": calls("dynamics.step_stochastic"),
        "dynamics.step_stochastic.s": total("dynamics.step_stochastic"),
        "dynamics.step_stochastic.ns_per_agent": ns_per("dynamics.step_stochastic", "agents"),
        "dynamics.is_homogeneous.calls": calls("dynamics.is_homogeneous"),
        "dynamics.is_homogeneous.s": total("dynamics.is_homogeneous"),
        "game.accumulate_scores.calls": calls("game.accumulate_scores"),
        "game.accumulate_scores.s": total("game.accumulate_scores"),
        "game.accumulate_scores.ns_per_edge": ns_per("game.accumulate_scores", "edges"),
        "interference.eligible_set.calls": calls("interference.eligible_set"),
        "interference.eligible_set.s": total("interference.eligible_set"),
        "interference.apply_interference.s": total("interference.apply_interference"),
        "interference.invested": counter("interference.apply_interference", "invested"),
        "interference.node_centrality.calls": calls("interference.node_centrality"),
        "engine.run_simulation.calls": runs,
        "engine.run_simulation.self_s": sum(x[1] for x in d["engine.run_simulation"]),
        "engine.absorbed_frac": counter("engine.run_simulation", "absorbed") / runs if runs else 0.0,
        "engine.horizon_used_frac":
            calls("game.accumulate_scores") / horizon if horizon else 0.0,
        "engine.sweep.s": sweep_s,
        "engine.orchestration.self_s": sweep_s - compute_s / jobs,
        "engine.pool.busy_frac": total("engine.task") / (jobs * sweep_s) if sweep_s else 0.0,
        "cli.expand_grid.s": total("cli.expand_grid"),
        "cli.write_sweep_csv.s": total("cli.write_sweep_csv"),
        "cli.write_meta.s": total("cli.write_meta"),
        "cli.read_sweep_csv.s": total("cli.read_sweep_csv"),
        "engine.efficiency_frontier.s": total("engine.efficiency_frontier"),
        "cli.write_frontier_csv.s": total("cli.write_frontier_csv"),
        "_run_simulation_ms": [x[0] * 1e3 for x in d["engine.run_simulation"]],
    }
