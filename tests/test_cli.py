import concurrent.futures
import contextlib
import copy
import ctypes
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopsim
from coopsim import _loops, cli, engine
from coopsim.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    FRONTIER_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    expand_grid,
    main,
    parse_run_config,
    read_sweep_csv,
    write_sweep_csv,
)
from coopsim.engine import efficiency_frontier
from coopsim.network import NetworkConfig

from conftest import reachable


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def child_env():
    """os.environ with the src directory of the coopsim under test first on
    PYTHONPATH, so a child interpreter imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(coopsim.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def sweep_config(**overrides):
    payload = {
        "network": {"model": "BA", "n": 60},
        "payoff": {"b": 1.8},
        "update": {"rule": "deterministic"},
        "generations": 20,
        "stats_window": 10,
        "graphs": 2,
        "realisations": 2,
        "master_seed": 11,
        "grid": [
            {"schemes": []},
            {"schemes": ["POP"], "theta": [1.0, 5.0], "p_c": [0.5, 1.0]},
        ],
    }
    payload.update(overrides)
    return payload


class TestRun:
    def test_trace_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "network": {"model": "BA", "n": 60, "seed": 3},
            "payoff": {"b": 1.8},
            "update": {"rule": "deterministic"},
            "interference": {"schemes": ["POP"], "theta": 2.0, "p_c": 0.8},
            "generations": 25,
            "stats_window": 10,
            "run_seed": 5,
        })
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "generation,coop_fraction,invested_count,generation_cost"
        assert len(lines) == 26
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["final_state"] in ("homogeneous-C", "homogeneous-D", "mixed")
        assert meta["run_seed"] == 5

    def test_meta_records_no_noise_under_imitate_best(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", write_config(tmp_path, run_config()),
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["config"]["update"] == {"rule": "deterministic", "K": None}

    def test_meta_config_feeds_back(self, tmp_path):
        net = {"model": "DMS", "n": 60, "seed": 4}
        first, again = tmp_path / "trace.csv", tmp_path / "again.csv"
        assert main(["run", "--config", write_config(tmp_path, run_config(network=net)),
                     "--out", str(first)]) == EXIT_OK
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["config"]["network"] == net
        assert main(["run", "--config", write_config(tmp_path, meta["config"], "meta.json"),
                     "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == first.read_bytes()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_USAGE


class TestSweep:
    def test_csv_shape_and_fields(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 1 + 4  # header + baseline + 2x2 POP grid

        baseline = lines[1].split(",")
        cols = SWEEP_HEADER.split(",")
        row = dict(zip(cols, baseline))
        assert row["schemes"] == ""
        assert row["theta"] == ""
        assert row["cost_mean"] == "0"
        assert row["replicates"] == "4"
        assert row["master_seed"] == "11"

        pop_row = dict(zip(cols, lines[2].split(",")))
        assert pop_row["schemes"] == "POP"
        assert pop_row["p_c"] != ""
        assert pop_row["n_c"] == ""
        assert pop_row["c_I"] == ""
        assert pop_row["K"] == ""  # deterministic run

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--jobs", "4"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_master_seed_is_required(self, tmp_path, monkeypatch, capsys, command):
        # The seed comes from the config alone: COOPSIM_SEED in the
        # environment fills in neither a missing nor a null one.
        monkeypatch.setenv("COOPSIM_SEED", "11")
        missing = sweep_config()
        del missing["master_seed"]
        out = tmp_path / "sweep.csv"
        for payload in (missing, sweep_config(master_seed=None)):
            if command == "baseline":
                del payload["grid"]
            assert main([command, "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == EXIT_USAGE
            assert "master_seed must be an integer >= 0, got None" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_meta_config_feeds_back(self, tmp_path, command):
        payload = sweep_config(master_seed=7)
        if command == "baseline":
            del payload["grid"]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(first)]) == EXIT_OK
        meta = json.loads((tmp_path / "first.csv.meta.json").read_text())
        assert meta["config"] == payload
        assert main([command, "--config", write_config(tmp_path, meta["config"], "meta.json"),
                     "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == first.read_bytes()

    def test_meta_records_seeds(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["master_seed"] == 11
        assert len(meta["graph_seeds"]) == 2
        assert meta["points"] == 5


class TestBadGraphFile:
    """A config that names a graph file is bad input whatever the file holds:
    exit 2 with a message naming the graph_file key that names the file,
    also under a worker pool, and no traceback from reading the graph."""

    CONTENT = {
        "isolated-node": json.dumps({"n": 3, "edges": [[0, 1]]}),
        "not-json": "not json\n",
        "no-edges": json.dumps({"n": 3}),
        "not-an-object": json.dumps([[0, 1], [1, 2]]),
        "fractional-endpoint": json.dumps({"n": 3, "edges": [[0, 1.7], [1, 2.2]]}),
        "boolean-endpoint": json.dumps({"n": 3, "edges": [[0, True], [1, 2]]}),
        "triple-edges": json.dumps({"n": 3, "edges": [[0, 1, 2], [1, 2, 0]]}),
        "flat-edges": json.dumps({"n": 3, "edges": [0, 1, 1, 2]}),
        "nested-edges": json.dumps({"n": 3, "edges": [[[0, 1]], [[1, 2]]]}),
        "not-utf8": b'{"n": 3, "edges": [[0, 1], [1, 2]], "note": "\xff"}',
    }

    @pytest.mark.parametrize("content", sorted(CONTENT))
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"],
                                         ["sweep", "--jobs", "2"]],
                             ids=["run", "sweep-jobs1", "sweep-jobs2"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, content, command):
        gpath = tmp_path / "bad-graph.json"
        text = self.CONTENT[content]
        gpath.write_bytes(text if isinstance(text, bytes) else text.encode())
        payload = sweep_config(network={"graph_file": str(gpath)}, graphs=1)
        if command[0] == "run":
            payload = {key: payload[key] for key in
                       ("network", "payoff", "update", "generations", "stats_window")}
        out = tmp_path / "out.csv"
        rc = main([*command, "--config", write_config(tmp_path, payload),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "unknown network config keys: ['graph_file']" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBaseline:
    def test_single_zero_cost_row(self, tmp_path):
        payload = sweep_config()
        del payload["grid"]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "base.csv"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(SWEEP_HEADER.split(","), lines[1].split(",")))
        assert row["schemes"] == ""
        assert row["cost_mean"] == "0"

    def test_same_bytes_as_sweep_over_bare_grid(self, tmp_path):
        payload = sweep_config()
        del payload["grid"]
        base_out, sweep_out = tmp_path / "base.csv", tmp_path / "sweep.csv"
        assert main(["baseline", "--config", write_config(tmp_path, payload),
                     "--out", str(base_out)]) == EXIT_OK
        bare = write_config(tmp_path, {**payload, "grid": [{"schemes": []}]}, "bare.json")
        assert main(["sweep", "--config", bare, "--out", str(sweep_out)]) == EXIT_OK
        assert base_out.read_bytes() == sweep_out.read_bytes()
        meta = json.loads((tmp_path / "base.csv.meta.json").read_text())
        assert meta["command"] == "baseline"
        assert meta["points"] == 1
        assert meta["replicates_per_point"] == 4

    def test_rejects_grid_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_config())
        rc = main(["baseline", "--config", cfg, "--out", str(tmp_path / "b.csv")])
        assert rc == EXIT_USAGE
        assert "grid" in capsys.readouterr().err


def run_config(**overrides):
    payload = {
        "network": {"model": "BA", "n": 60, "seed": 3},
        "interference": {"schemes": ["NEB", "NI"], "theta": 1.0, "n_c": 0.5, "c_I": 0.05},
        "generations": 10,
        "stats_window": 5,
        "run_seed": 1,
    }
    payload.update(overrides)
    return payload


class TestBadInputFailsFast:
    """Bad counts and removed knobs exit 2 and name the offending key."""

    def assert_usage_error(self, capsys, argv, key):
        assert main(argv) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["generations", "stats_window"])
    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_counts_below_one(self, tmp_path, capsys, command, key):
        payload = run_config() if command == "run" else sweep_config()
        if command == "baseline":
            del payload["grid"]
        payload[key] = 0
        out = tmp_path / "out.csv"
        self.assert_usage_error(capsys, [command, "--config", write_config(tmp_path, payload),
                                         "--out", str(out)], key)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_jobs_below_one(self, tmp_path, capsys, command):
        payload = sweep_config()
        if command == "baseline":
            del payload["grid"]
        for jobs in ("0", "-4"):
            self.assert_usage_error(capsys, [
                command, "--config", write_config(tmp_path, payload),
                "--out", str(tmp_path / "out.csv"), "--jobs", jobs], "--jobs")

    def test_empty_grid_value_list(self, tmp_path, capsys):
        # The group would expand to no points and vanish beside the baseline.
        payload = sweep_config(grid=[{"schemes": []},
                                     {"schemes": ["POP"], "theta": [], "p_c": [0.5, 0.8]}])
        out = tmp_path / "s.csv"
        self.assert_usage_error(capsys, ["sweep", "--config", write_config(tmp_path, payload),
                                         "--out", str(out)], "theta")
        assert not out.exists()

    @pytest.mark.parametrize("targets", ["nan", "inf", "0.5,-inf"])
    def test_non_finite_frontier_targets(self, tmp_path, capsys, targets):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(SWEEP_HEADER + "\n")
        out = tmp_path / "f.csv"
        self.assert_usage_error(capsys, ["frontier", "--in", str(sweep_csv),
                                         "--targets", targets, "--out", str(out)], "--targets")
        assert not out.exists()

    def test_self_comparison_is_not_a_knob(self, tmp_path, capsys):
        payload = sweep_config(update={"rule": "deterministic", "self_comparison": False})
        self.assert_usage_error(capsys, ["sweep", "--config", write_config(tmp_path, payload),
                                         "--out", str(tmp_path / "s.csv")],
                                "self_comparison")

    @pytest.mark.parametrize("key", ["m0", "m"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_edges_per_node_is_not_a_knob(self, tmp_path, capsys, command, key):
        payload = self.config_for(command)
        payload["network"][key] = 2
        self.assert_rejected(tmp_path, capsys, command, payload, repr(key))

    @pytest.mark.parametrize("key,value", [("composition", "any"),
                                           ("centrality", "degree_fraction")])
    def test_interference_mode_is_not_a_knob(self, tmp_path, capsys, key, value):
        payload = run_config()
        payload["interference"][key] = value
        self.assert_usage_error(capsys, ["run", "--config", write_config(tmp_path, payload),
                                         "--out", str(tmp_path / "t.csv")], key)

    def config_for(self, command, **overrides):
        if command == "run":
            return run_config(**overrides)
        payload = sweep_config(graphs=1, **overrides)
        if command == "baseline":
            del payload["grid"]
        return payload

    def assert_rejected(self, tmp_path, capsys, command, payload, key):
        out = tmp_path / "out.csv"
        self.assert_usage_error(capsys, [command, "--config", write_config(tmp_path, payload),
                                         "--out", str(out)], key)
        assert not out.exists()

    @pytest.mark.parametrize("command, theta, stat", [
        ("sweep", 1e306, "cost_mean"), ("sweep", 1e160, "cost_std"),
        ("run", 1e307, "total_cost")])
    def test_a_theta_whose_costs_overflow(self, tmp_path, capsys, command, theta, stat):
        # BA n=100 under POP at p_c=1, 10 generations, one graph and two
        # realisations: at 1e306 the sum of two total costs overflows, at
        # 1e160 their squared deviation, and at 1e307 one run's total.
        # Nothing is written and nothing warns of the overflow.
        pop = {"schemes": ["POP"], "theta": theta, "p_c": 1.0}
        if command == "run":
            payload = run_config(network={"model": "BA", "n": 100, "seed": 1},
                                 interference=pop)
        else:
            payload = sweep_config(network={"model": "BA", "n": 100}, generations=10, graphs=1,
                                   realisations=2, grid=[{**pop, "theta": [theta]}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_rejected(tmp_path, capsys, command, payload,
                                 f"theta={theta!r} is too large: {stat} overflows")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("section,keys", [("network", ["m", "m0"]),
                                              ("payoff", ["bogus", "c"]),
                                              ("update", ["bogus", "noise"]),
                                              ("interference", ["bogus", "mode"])])
    def test_every_unknown_key_in_a_section_is_named(self, tmp_path, capsys, section, keys):
        payload = run_config()
        payload[section] = {**payload.get(section, {}), **dict.fromkeys(keys, 2)}
        self.assert_rejected(tmp_path, capsys, "run", payload,
                             f"unknown {section} config keys: {keys}")

    @pytest.mark.parametrize("key,value", [pytest.param(None, None, id="alone"),
                                           ("n", 60), ("model", "BA"), ("bogus", 1)])
    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_key_beside_graph_file(self, tmp_path, capsys, command, key, value):
        # A network is always generated: graph_file is an unknown key,
        # alone or beside the generator's own keys.
        net = {"graph_file": "g.json"}
        if key is not None:
            net[key] = value
        self.assert_rejected(tmp_path, capsys, command,
                             self.config_for(command, network=net), "'graph_file'")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bare_graph_file_path(self, tmp_path, capsys, command):
        self.assert_rejected(tmp_path, capsys, command,
                             self.config_for(command, network="g.json"), "network")

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_sweep_network_seed_is_unread(self, tmp_path, capsys, command):
        # A sweep's graph seeds come from master_seed.
        payload = self.config_for(command, network={"model": "BA", "n": 60, "seed": 4})
        self.assert_rejected(tmp_path, capsys, command, payload, "seed")

    @pytest.mark.parametrize("update", [{"K": 0.2}, {"rule": "deterministic", "K": 0.2}])
    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_fermi_noise_without_the_fermi_rule(self, tmp_path, capsys, command, update):
        self.assert_rejected(tmp_path, capsys, command,
                             self.config_for(command, update=update), "K")

    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_fermi_rule_without_noise(self, tmp_path, capsys, command):
        self.assert_rejected(tmp_path, capsys, command,
                             self.config_for(command, update={"rule": "stochastic"}), "K")

    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_infinite_fermi_noise(self, tmp_path, capsys, command):
        # json.dumps writes math.inf as the bare token Infinity, which
        # json.load accepts.
        update = {"rule": "stochastic", "K": math.inf}
        self.assert_rejected(tmp_path, capsys, command, self.config_for(command, update=update),
                             "K must be > 0 and finite")

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, command, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(self.config_for(command)).encode()[:-1] + b"\xff}")
        out = tmp_path / "out.csv"
        self.assert_usage_error(capsys, [command, "--config", str(path), "--out", str(out)],
                                str(path))
        assert not out.exists()


# Small, valid run and sweep configs touching every key; each property test
# example breaks exactly one value.
PROPERTY_RUN = {
    "network": {"model": "BA", "n": 20, "seed": 3},
    "payoff": {"b": 1.8},
    "update": {"rule": "stochastic", "K": 0.1},
    "interference": {"schemes": ["POP", "NEB", "NI"], "theta": 1.0,
                     "p_c": 0.5, "n_c": 0.5, "c_I": 0.5},
    "generations": 3,
    "stats_window": 2,
    "run_seed": 1,
}
PROPERTY_SWEEP = {
    **{k: v for k, v in PROPERTY_RUN.items()
       if k not in ("network", "interference", "run_seed")},
    # A sweep's graph seeds come from master_seed: it takes no network seed.
    "network": {k: v for k, v in PROPERTY_RUN["network"].items() if k != "seed"},
    "graphs": 1,
    "realisations": 1,
    "master_seed": 1,
    "grid": [{"schemes": ["POP", "NEB", "NI"], "theta": [1.0], "p_c": [0.5],
              "n_c": 0.5, "c_I": 0.5}],
}

_NAN = st.just(math.nan)
# Wrong types for a number.
_NOT_NUMBER = (st.text(max_size=4) | st.booleans()
               | st.lists(st.integers(), min_size=1, max_size=2)
               | st.dictionaries(st.text(max_size=2), st.integers(), min_size=1, max_size=1))
_NOT_OBJECT = st.integers() | st.booleans() | st.lists(st.integers(), max_size=2)
_NOT_STRING = st.integers() | st.floats() | st.booleans() | st.none() | st.lists(st.text(), max_size=2)


def bad_int(below, above=None, none_ok=False):
    """Not an integer, or an integer outside [below, above]."""
    bad = _NOT_NUMBER | st.floats() | st.integers(max_value=below - 1)
    if above is not None:
        bad |= st.integers(min_value=above + 1)
    return bad if none_ok else bad | st.none()


def bad_unit():
    return (_NOT_NUMBER | st.none() | _NAN | st.floats(max_value=0.0, exclude_max=True)
            | st.floats(min_value=1.0, exclude_min=True))


def bad_name(valid):
    return _NOT_STRING | st.text(max_size=6).filter(lambda x: x not in valid)


def bad_schemes():
    unknown = st.text(max_size=4).filter(lambda x: x not in ("POP", "NEB", "NI"))
    return (st.text(max_size=4) | st.integers() | st.none()
            | st.lists(unknown | st.integers() | st.none(), min_size=1, max_size=3))


def axis(bad):
    """A bad grid axis: one bad scalar, bare or as a one-value list."""
    scalar = bad.filter(lambda v: not isinstance(v, list))
    return scalar | scalar.map(lambda v: [v])


# (path to the key, strategy of bad values). The key, the path's last str,
# must appear in the error message.
_SHARED_KEYS = [
    (("network",), _NOT_OBJECT | st.none() | st.just("missing-graph.json")),
    (("network", "model"), bad_name(("BA", "DMS"))),
    (("network", "n"), bad_int(3)),
    (("network", "seed"), bad_int(0)),
    (("payoff",), _NOT_OBJECT | st.text(max_size=3)),
    (("payoff", "b"), _NOT_NUMBER | st.none() | _NAN | st.floats(max_value=1.0)
     | st.floats(min_value=2.0, exclude_min=True)),
    (("update",), _NOT_OBJECT | st.text(max_size=3)),
    (("update", "rule"), bad_name(("deterministic", "stochastic"))),
    (("update", "K"), _NOT_NUMBER | st.none() | _NAN | st.floats(max_value=0.0)
     | st.just(math.inf)),
    (("generations",), bad_int(1, none_ok=True)),
    (("stats_window",), bad_int(1, 3)),
]
_THETA = _NOT_NUMBER | _NAN | st.floats(max_value=0.0) | st.just(math.inf)
RUN_KEYS = _SHARED_KEYS + [
    (("interference",), _NOT_OBJECT | st.text(max_size=3)),
    (("interference", "schemes"), bad_schemes()),
    (("interference", "theta"), _THETA | st.none()),
    *[(("interference", key), bad_unit()) for key in ("p_c", "n_c", "c_I")],
    (("run_seed",), bad_int(0)),
]
SWEEP_KEYS = _SHARED_KEYS + [
    (("graphs",), bad_int(1)),
    (("realisations",), bad_int(1)),
    (("master_seed",), bad_int(0)),
    (("grid",), _NOT_OBJECT.filter(lambda v: not isinstance(v, list)) | st.none()
     | st.lists(_NOT_OBJECT | st.text(max_size=3), min_size=1, max_size=2)),
    (("grid", 0, "schemes"), bad_schemes().filter(lambda v: v != [])),
    (("grid", 0, "theta"), axis(_THETA)),
    *[(("grid", 0, key), axis(bad_unit().filter(lambda v: v is not None)))
      for key in ("p_c", "n_c", "c_I")],
]


@st.composite
def broken_configs(draw, base, keys):
    """base with the value under one known key replaced by a bad one."""
    path, bad = draw(st.sampled_from(keys))
    payload = copy.deepcopy(base)
    node = payload
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = draw(bad)
    return [part for part in path if isinstance(part, str)][-1], payload


class TestConfigParsingProperty:
    """One out-of-range or wrongly typed value under a known key: exit 2 and
    a message that names the key; never exit 1, never a traceback."""

    def assert_rejected(self, tmp_dir, command, key, payload):
        path = tmp_dir / "config.json"
        path.write_text(json.dumps(payload))
        out = tmp_dir / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(path), "--out", str(out)])
        message = err.getvalue()
        assert rc == EXIT_USAGE, (rc, message)
        assert key in message
        assert "Traceback" not in message
        assert not out.exists()

    @settings(max_examples=400, deadline=None)
    @given(case=broken_configs(PROPERTY_RUN, RUN_KEYS))
    def test_run_config(self, tmp_path_factory, case):
        key, payload = case
        self.assert_rejected(tmp_path_factory.mktemp("run"), "run", key, payload)

    @settings(max_examples=400, deadline=None)
    @given(case=broken_configs(PROPERTY_SWEEP, SWEEP_KEYS))
    def test_sweep_config(self, tmp_path_factory, case):
        key, payload = case
        self.assert_rejected(tmp_path_factory.mktemp("sweep"), "sweep", key, payload)

    @pytest.mark.parametrize("command,base", [("run", PROPERTY_RUN),
                                              ("sweep", PROPERTY_SWEEP)])
    def test_base_configs_are_valid(self, tmp_path, command, base):
        path = write_config(tmp_path, base)
        assert main([command, "--config", path, "--out", str(tmp_path / "o.csv")]) == EXIT_OK


class TestFrontier:
    def test_round_trips_own_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        sweep_out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--out", str(sweep_out)])

        frontier_out = tmp_path / "frontier.csv"
        rc = main(["frontier", "--in", str(sweep_out),
                   "--targets", "0.2,0.9,1.1", "--out", str(frontier_out)])
        assert rc == EXIT_OK
        lines = frontier_out.read_text().splitlines()
        assert lines[0] == FRONTIER_HEADER
        assert len(lines) == 4
        assert lines[3].split(",")[1] == "unreachable"

        # parsing the CSV loses nothing the frontier depends on
        summaries = read_sweep_csv(sweep_out)
        rows = efficiency_frontier(summaries, [0.2, 0.9, 1.1])
        for line, row in zip(lines[1:], rows):
            status = line.split(",")[1]
            assert status == ("ok" if reachable(row) else "unreachable")

    def test_reserialisation_is_stable(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        sweep_out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--out", str(sweep_out)])
        reparsed = read_sweep_csv(sweep_out)
        second = tmp_path / "sweep2.csv"
        write_sweep_csv(reparsed, second)
        assert sweep_out.read_text() == second.read_text()

    def test_bad_field_names_file_and_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_config())
        sweep_out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == EXIT_OK
        lines = sweep_out.read_text().splitlines()
        lines[2] = lines[2].replace(",60,", ",abc,", 1)
        sweep_out.write_text("\n".join(lines) + "\n")
        rc = main(["frontier", "--in", str(sweep_out), "--targets", "0.5",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(sweep_out) in err and "row 2" in err

    def assert_row_rejected(self, tmp_path, capsys, columns, key):
        """frontier on a sweep CSV whose row 2 has columns replaced exits 2,
        naming the file, the row and key."""
        cfg = write_config(tmp_path, sweep_config())
        sweep_out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == EXIT_OK
        lines = sweep_out.read_text().splitlines()
        fields = lines[2].split(",")
        for column, value in columns.items():
            fields[SWEEP_HEADER.split(",").index(column)] = value
        lines[2] = ",".join(fields)
        sweep_out.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        rc = main(["frontier", "--in", str(sweep_out), "--targets", "0.5", "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{sweep_out} row 2: " in err and key in err.split("row 2: ", 1)[1]
        assert not out.exists()

    @pytest.mark.parametrize("column,value", [("coop_mean", "nan"), ("coop_std", "inf"),
                                              ("cost_mean", "-inf"), ("cost_std", "nan"),
                                              ("replicates", "0"), ("replicates", "-3"),
                                              ("coop_mean", "7.5"), ("coop_mean", "-0.1"),
                                              ("coop_std", "-2"), ("cost_mean", "-10"),
                                              ("cost_std", "-1"), ("master_seed", "-5"),
                                              ("n", "6x0"), ("b", "1.8q"), ("theta", "x"),
                                              ("replicates", "4.5"), ("master_seed", "seed")])
    def test_bad_statistic_names_file_and_row(self, tmp_path, capsys, column, value):
        self.assert_row_rejected(tmp_path, capsys, {column: value}, f"{column} must be")

    def test_graph_file_row(self, tmp_path, capsys):
        # The form coopsim once wrote for a sweep over a graph file: a
        # network no config can name now.
        self.assert_row_rejected(tmp_path, capsys, {"model": "file", "n": ""}, "n must be")

    @pytest.mark.parametrize("rule,K", [("deterministic", "0.5"), ("stochastic", ""),
                                        ("stochastic", "inf")])
    def test_noise_only_under_the_fermi_rule(self, tmp_path, capsys, rule, K):
        self.assert_row_rejected(tmp_path, capsys, {"update_rule": rule, "K": K}, "K")

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["frontier", "--in", str(missing), "--targets", "0.5",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_USAGE
        assert str(missing) in capsys.readouterr().err

    def test_rejects_non_sweep_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        rc = main(["frontier", "--in", str(bad), "--targets", "0.5",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_USAGE


class TestUnwritableOutput:
    """Every output file goes through one writer: a failed write exits 1,
    naming what was being written and where."""

    def argv(self, tmp_path, command, out):
        if command == "frontier":
            sweep_out = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", write_config(tmp_path, sweep_config()),
                         "--out", str(sweep_out)]) == EXIT_OK
            return ["frontier", "--in", str(sweep_out), "--targets", "0.5", "--out", str(out)]
        payload = run_config() if command == "run" else sweep_config()
        return [command, "--config", write_config(tmp_path, payload), "--out", str(out)]

    @pytest.mark.parametrize("command,what", [("run", "trace CSV"), ("sweep", "sweep CSV"),
                                              ("frontier", "frontier CSV")])
    def test_csv_in_missing_directory(self, tmp_path, capsys, command, what):
        out = tmp_path / "missing" / "out.csv"
        assert main(self.argv(tmp_path, command, out)) == EXIT_RUNTIME
        assert f"cannot write {what} {out}" in capsys.readouterr().err

    def test_meta_file_in_the_way(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.meta.json").mkdir()
        assert main(self.argv(tmp_path, "run", out)) == EXIT_RUNTIME
        assert f"cannot write meta file {out}.meta.json" in capsys.readouterr().err


_UNIT = st.sampled_from([0.0, 0.25, 0.5, 1.0])


def grid_axis(values):
    return values | st.lists(values, min_size=1, max_size=2)


@st.composite
def grid_groups(draw):
    """A valid grid group: the bare baseline group, or a scheme set with a
    theta axis and one threshold axis per active scheme."""
    schemes = draw(st.lists(st.sampled_from(["POP", "NEB", "NI"]), unique=True, max_size=3))
    if not schemes:
        return {"schemes": []}
    group = {"schemes": schemes, "theta": draw(grid_axis(st.sampled_from([0.5, 1, 5.0])))}
    for scheme, key in (("POP", "p_c"), ("NEB", "n_c"), ("NI", "c_I")):
        if scheme in schemes:
            group[key] = draw(grid_axis(_UNIT))
    return group


def grid_points(grid):
    """The interference object of every point the grid names, in order."""
    points = []
    for group in grid:
        axes = {k: v if isinstance(v, list) else [v] for k, v in group.items()
                if k != "schemes"}
        names = sorted(axes)
        points += [{"schemes": group["schemes"], **dict(zip(names, values))}
                   if group["schemes"] else {}
                   for values in itertools.product(*(axes[k] for k in names))]
    return points


class TestGridExpansion:
    SHARED = {"network": {"model": "BA", "n": 50}, "update": {"rule": "stochastic", "K": 0.2},
              "generations": 12, "stats_window": 4}

    @settings(max_examples=60, deadline=None)
    @given(grid=st.lists(grid_groups(), min_size=1, max_size=3))
    def test_every_point_parses_like_a_run(self, grid):
        points = expand_grid(parse_run_config(self.SHARED), grid)
        assert points == [parse_run_config({**self.SHARED, "interference": point})
                          for point in grid_points(grid)]

    def test_shared_keys_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        built = []
        build = cli._build
        monkeypatch.setattr(cli, "_build", lambda cls, payload, where: (
            built.append(cls) or build(cls, payload, where)))
        payload = sweep_config(graphs=1, realisations=1,
                               grid=[{"schemes": []},
                                     {"schemes": ["POP"], "theta": [1, 2, 5], "p_c": [0.5, 1.0]}])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 7
        assert built.count(NetworkConfig) == 1

    def test_cartesian_product(self):
        base = parse_run_config({"network": {"model": "BA", "n": 50}})
        cfgs = expand_grid(base, [
            {"schemes": ["NEB", "NI"], "theta": [1, 2], "n_c": [0.2, 0.4], "c_I": 0.05},
        ])
        assert len(cfgs) == 4
        assert all(c.interference.schemes == ("NEB", "NI") for c in cfgs)
        assert all(c.interference.c_I == 0.05 for c in cfgs)

    def test_baseline_group_must_be_bare(self):
        from coopsim.cli import ConfigError
        with pytest.raises(ConfigError, match="theta"):
            expand_grid(parse_run_config({"network": {"model": "BA", "n": 50}}),
                        [{"schemes": [], "theta": [1.0]}])

    def test_unknown_grid_key_rejected(self):
        from coopsim.cli import ConfigError
        with pytest.raises(ConfigError):
            expand_grid(parse_run_config({"network": {"model": "BA", "n": 50}}),
                        [{"schemes": ["POP"], "theta": [1], "p_c": [1], "bogus": 3}])


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = write_config(tmp_path, run_config(network={"model": "BA", "n": 20, "seed": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "coopsim.cli", "run", "--config", cfg, "--out", str(out)],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[0] == TRACE_HEADER

    @pytest.mark.parametrize("argv,abbreviated", [
        (["run", "--config", "c.json", "--out", "t.csv", "--conf", "d.json"], "--conf"),
        (["sweep", "--config", "c.json", "--out", "s.csv", "--jo", "2"], "--jo"),
        (["baseline", "--config", "c.json", "--out", "s.csv", "--ou", "x.csv"], "--ou"),
        (["frontier", "--in", "s.csv", "--targets", "0.5", "--out", "f.csv", "--tar", "0.9"],
         "--tar"),
    ])
    def test_abbreviated_flag_exits_2(self, tmp_path, capsys, monkeypatch, argv, abbreviated):
        # A flag is read only under its full name: an abbreviation is an
        # unrecognized argument, not the longer flag it is a prefix of.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {abbreviated}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "sweep", "baseline"])
    def test_set_flag_is_gone(self, tmp_path, capsys, command):
        # The config file is the whole input: no flag rewrites a key in it.
        payload = run_config() if command == "run" else sweep_config()
        if command == "baseline":
            del payload["grid"]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_config(tmp_path, payload), "--out", str(out),
                  "--set", "generations=15"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --set" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_unknown_subcommand_exits_2(self, tmp_path):
        # gen-net's graph file had no reader, so the command is gone.
        for argv in (["plot"],
                     ["gen-net", "--model", "ba", "--n", "20", "--seed", "1", "--out", "g.json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "coopsim.cli", *argv],
                cwd=tmp_path, env=child_env(), capture_output=True, text=True)
            assert proc.returncode == EXIT_USAGE, argv
            assert "invalid choice" in proc.stderr
        assert not any(tmp_path.iterdir())


class TestLazyPool:
    """Only a sweep that runs more than one task on more than one job
    imports the thread pool; no command imports a process pool."""

    POOL_MODULES = ("concurrent.futures.thread", "concurrent.futures.process",
                    "multiprocessing")

    def test_serial_commands_never_import_the_pool(self, tmp_path):
        payload = sweep_config(graphs=1, realisations=1)
        sweep_cfg = write_config(tmp_path, payload, "sweep.json")
        base_payload = {key: value for key, value in payload.items() if key != "grid"}
        base_cfg = write_config(tmp_path, base_payload, "base.json")
        run_payload = {key: payload[key] for key in
                       ("network", "payoff", "update", "generations", "stats_window")}
        run_cfg = write_config(tmp_path, run_payload, "run.json")
        sweep_csv = str(tmp_path / "sweep.csv")
        commands = [
            ["run", "--config", run_cfg, "--out", str(tmp_path / "run.csv")],
            ["baseline", "--config", base_cfg, "--out", str(tmp_path / "base.csv")],
            ["sweep", "--config", sweep_cfg, "--out", sweep_csv, "--jobs", "1"],
            ["frontier", "--in", sweep_csv, "--targets", "0.5",
             "--out", str(tmp_path / "frontier.csv")],
        ]
        parallel = ["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "j2.csv"),
                    "--jobs", "2"]
        # A fresh interpreter: this one may have imported the pool already.
        # The parallel sweep at the end loads the thread pool alone.
        script = (
            "import json, sys\n"
            "from coopsim.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            f"    loaded = [m for m in {self.POOL_MODULES!r} if m in sys.modules]\n"
            "    assert not loaded, (argv[0], loaded)\n"
            f"assert main({parallel!r}) == 0\n"
            f"loaded = [m for m in {self.POOL_MODULES!r} if m in sys.modules]\n"
            "assert loaded == ['concurrent.futures.thread'], loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_parallel_sweep_writes_the_serial_bytes(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        serial, parallel = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        assert parallel.read_bytes() == serial.read_bytes()

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        made = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        # one grid point on three graphs: three tasks
        cfg = write_config(tmp_path, sweep_config(graphs=3, realisations=1,
                                                  grid=[{"schemes": []}]))
        serial = tmp_path / "j1.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == EXIT_OK
        assert made == []
        for jobs, workers in (("64", 3), ("3", 3), ("2", 2)):
            out = tmp_path / f"j{jobs}.csv"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
            assert made.pop() == workers
            assert out.read_bytes() == serial.read_bytes()
        assert made == []

    def test_a_worker_error_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        def failing_run(cfg, g, *args, **kwargs):
            raise MemoryError("coopsim_imitate_best: no memory for its work block")

        monkeypatch.setattr(engine, "run_simulation", failing_run)
        cfg = write_config(tmp_path, sweep_config())
        out = tmp_path / "sweep.csv"
        before = threading.active_count()
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_RUNTIME
        assert "no memory for its work block" in capsys.readouterr().err
        assert not out.exists()
        assert threading.active_count() == before


class TestImitateBuild:
    """The compiled library, first built for the imitate-best loop alone:
    one build per source text and compiler command, written atomically with
    its key, checked against numpy's pinned draws, and loaded only by
    commands that draw random numbers."""

    # Runs one command with the build cache in argv[1] and the compiler in
    # argv[2]; the command's own arguments follow.
    SCRIPT = ("import sys\n"
              "from pathlib import Path\n"
              "from coopsim import _loops\n"
              "from coopsim.cli import main\n"
              "_loops.CACHE_DIR, _loops.CC = Path(sys.argv[1]), sys.argv[2]\n"
              "sys.exit(main(sys.argv[3:]))\n")

    def command(self, cache, cc, *argv):
        return [sys.executable, "-c", self.SCRIPT, str(cache), cc, *argv]

    def test_changed_source_gets_a_new_cache_name(self):
        source = _loops.SOURCE.read_bytes()
        name = _loops.cache_name(source)
        assert name == _loops.cache_name(source)
        assert name != _loops.cache_name(source + b"\n")
        token = b"MAX_EXPONENT 700.0"
        assert token in source
        assert name != _loops.cache_name(source.replace(token, b"MAX_EXPONENT 700.5"))

    def test_two_interpreters_build_into_one_empty_cache_at_once(self, tmp_path):
        cache = tmp_path / "cache"
        cfg = write_config(tmp_path, sweep_config(graphs=1, realisations=2))
        outs = [tmp_path / f"sweep{i}.csv" for i in range(2)]
        procs = [subprocess.Popen(self.command(cache, _loops.CC, "sweep", "--config", cfg,
                                               "--out", str(out)),
                                  env=child_env(), stderr=subprocess.PIPE, text=True)
                 for out in outs]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, err
        assert outs[0].read_bytes() == outs[1].read_bytes()
        reference = tmp_path / "reference.csv"
        assert main(["sweep", "--config", cfg, "--out", str(reference)]) == EXIT_OK
        assert outs[0].read_bytes() == reference.read_bytes()
        # One library and its key, and no temporary file left behind.
        name = _loops.cache_name(_loops.SOURCE.read_bytes())
        assert sorted(p.name for p in cache.iterdir()) == [name.replace(".so", ".key"), name]

    def test_a_build_removes_the_builds_of_other_sources(self, tmp_path, monkeypatch):
        # The cache is a __pycache__ directory: its bytecode stays.
        name = _loops.cache_name(_loops.SOURCE.read_bytes())
        for stale in ("_loops-0123abcd.so", "_loops-0123abcd.key", "engine.cpython-311.pyc"):
            (tmp_path / stale).write_bytes(b"stale")
        monkeypatch.setattr(_loops, "CACHE_DIR", tmp_path)
        _loops._load.__wrapped__()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            name.replace(".so", ".key"), name, "engine.cpython-311.pyc"]

    @pytest.mark.parametrize("stored", [b"", b"another source", None],
                             ids=["empty", "other", "missing"])
    def test_a_build_is_loaded_only_under_its_own_key(self, tmp_path, monkeypatch, stored):
        # The cache name is a CRC-32, which two sources may share: a build
        # whose key is not this source's command and text, byte for byte,
        # is built again before anything is loaded.
        source = _loops.SOURCE.read_bytes()
        path = tmp_path / _loops.cache_name(source)
        path.write_bytes(b"not a library")
        if stored is not None:
            path.with_suffix(".key").write_bytes(stored)
        monkeypatch.setattr(_loops, "CACHE_DIR", tmp_path)
        _loops._load.__wrapped__()
        assert path.with_suffix(".key").read_bytes() == _loops._key(source)
        assert path.read_bytes() != b"not a library"

    def test_threads_that_load_at_once_build_once(self, tmp_path, monkeypatch):
        # More threads than cores, switching often, all asking at once.
        built, checked, got = [], [], []
        build, check = _loops._build, _loops._check_draws
        monkeypatch.setattr(_loops, "_build", lambda *args: (built.append(1), build(*args)))
        monkeypatch.setattr(_loops, "_check_draws",
                            lambda lib: (checked.append(1), check(lib)))
        monkeypatch.setattr(_loops, "CACHE_DIR", tmp_path / "cache")
        start = threading.Barrier(4)

        def load():
            start.wait(timeout=60)
            got.append(_loops.library())

        threads = [threading.Thread(target=load) for _ in range(4)]
        interval = sys.getswitchinterval()
        _loops._load.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            _loops._load.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert (len(built), len(checked), len(got)) == (1, 1, 4)
        assert all(lib is got[0] for lib in got)

    def test_the_source_compiles_without_warnings(self, tmp_path):
        # With the build's own flags, so the optimizer runs and its
        # flow-based warnings (-Wmaybe-uninitialized, -Warray-bounds) are
        # checked too. -Wpointer-arith: gcc's void * arithmetic counts bytes,
        # so carving a work block through a void * misplaces every array.
        proc = subprocess.run([*_loops._command(), "-Wall", "-Wextra", "-Wpointer-arith",
                               "-Werror", "-o", str(tmp_path / "loops.so")],
                              input=_loops.SOURCE.read_bytes(), capture_output=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")

    def test_the_prototypes_match_the_exported_definitions(self):
        # ctypes converts arguments by the prototypes alone, unchecked
        # against the C: a stale argtype passes a value the loop does not
        # take, or shifts the ones it does. So each exported definition in
        # the source (coopsim_*, int64_t or double, by value or by pointer,
        # or void) must have a prototype of its own arity and types.
        by_value = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}

        def ctype(decl):
            decl = decl.replace("const ", "").strip()
            if decl.startswith("struct pay "):
                return ctypes.POINTER(_loops.Pay)
            return ctypes.c_void_p if "*" in decl else by_value.get(decl.split()[0], decl)

        defined = {}
        for restype, name, params in re.findall(r"^(\w+) (coopsim_\w+)\(([^{;]*)\)\s*\{",
                                                _loops.SOURCE.read_text(), re.MULTILINE):
            assert "(" not in params, f"{name} takes a function pointer"
            defined[name] = (tuple(map(ctype, params.split(","))), ctype(restype))
        assert defined == _loops._PROTOTYPES

    def test_missing_compiler_exits_1_naming_it(self, tmp_path):
        # Either update rule needs the library, in a sweep and in run.
        cache, cc = tmp_path / "cache", str(tmp_path / "no-such-dir" / "gcc")
        commands = [["run", "--config", write_config(tmp_path, run_config()),
                     "--out", str(tmp_path / "t.csv")]]
        for update in ({"rule": "deterministic"}, {"rule": "stochastic", "K": 0.1}):
            cfg = write_config(tmp_path, sweep_config(update=update, graphs=1,
                                                      realisations=1), f"{update['rule']}.json")
            commands.append(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")])
        for argv in commands:
            proc = subprocess.run(self.command(cache, cc, *argv), env=child_env(),
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_RUNTIME, argv
            assert cc in proc.stderr
            assert list(cache.iterdir()) == []

    def test_frontier_never_loads_the_library(self, tmp_path):
        # numpy imports ctypes itself, so what is checked is coopsim._loops,
        # the one coopsim module that uses ctypes: it is imported only to
        # load the library. frontier draws nothing.
        fermi = sweep_config(update={"rule": "stochastic", "K": 0.1}, graphs=1,
                             realisations=1)
        fermi_cfg = write_config(tmp_path, fermi, "fermi.json")
        sweep_csv = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", fermi_cfg, "--out", sweep_csv]) == EXIT_OK
        frontier = ["frontier", "--in", sweep_csv, "--targets", "0.5",
                    "--out", str(tmp_path / "frontier.csv")]
        # A fresh interpreter: this one has loaded the library already. The
        # Fermi sweep at the end must load it.
        script = (
            "import sys\n"
            "from coopsim.cli import main\n"
            f"assert main({frontier!r}) == 0\n"
            "assert 'coopsim._loops' not in sys.modules\n"
            f"assert main(['sweep', '--config', {fermi_cfg!r}, '--out', {sweep_csv!r}]) == 0\n"
            "from coopsim import _loops\n"
            "assert _loops._load.cache_info().currsize == 1\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_command_imports_numpy_random_or_hashlib(self, tmp_path):
        # The library draws every random number, builds every CSR and
        # reads and writes plain buffers, and its cache is keyed without
        # hashlib, so no command pays for importing numpy or OpenSSL; and
        # importing the CLI loads no library, so a command's set-up ends
        # before the library loads.
        payload = sweep_config(update={"rule": "stochastic", "K": 0.1}, graphs=2,
                               realisations=1)
        sweep_cfg = write_config(tmp_path, payload, "sweep.json")
        baseline_cfg = write_config(tmp_path, {key: value for key, value in payload.items()
                                               if key != "grid"}, "baseline.json")
        run_cfg = write_config(tmp_path, {key: payload[key] for key in
                                          ("network", "payoff", "update", "generations",
                                           "stats_window")}, "run.json")
        sweep_csv = str(tmp_path / "sweep.csv")
        commands = [
            ["sweep", "--config", sweep_cfg, "--out", sweep_csv, "--jobs", "2"],
            ["baseline", "--config", baseline_cfg, "--out", str(tmp_path / "baseline.csv")],
            ["run", "--config", run_cfg, "--out", str(tmp_path / "run.csv")],
            ["frontier", "--in", sweep_csv, "--targets", "0.5",
             "--out", str(tmp_path / "frontier.csv")],
        ]
        unwanted = ("numpy", "numpy.random", "hashlib", "_hashlib")
        script = (
            "import json, sys\n"
            "from coopsim.cli import main\n"
            "assert 'coopsim._loops' not in sys.modules\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            f"    loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
            "    assert not loaded, (argv[0], loaded)\n"
            "assert 'coopsim._loops' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_a_misread_generator_fails_the_load_check(self, tmp_path, monkeypatch, capsys):
        # A library whose PCG64 multiplier is wrong draws other numbers than
        # numpy's pinned draws: loading it raises, and run exits 1.
        source = _loops.SOURCE.read_text()
        assert source.count("0x4385df649fccf645ULL") == 1
        wrong = tmp_path / "_loops.c"
        wrong.write_text(source.replace("0x4385df649fccf645ULL", "0x4385df649fccf647ULL"))
        cfg = write_config(tmp_path, {"network": {"model": "BA", "n": 60, "seed": 1},
                                      "run_seed": 1})
        monkeypatch.setattr(_loops, "SOURCE", wrong)
        monkeypatch.setattr(_loops, "CACHE_DIR", tmp_path / "cache")
        _loops._load.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="does not draw numpy's PCG64 numbers"):
                _loops.library()
            rc = main(["run", "--config", cfg, "--out", str(tmp_path / "run.csv")])
        finally:
            _loops._load.cache_clear()
        assert rc == EXIT_RUNTIME
        assert "does not draw numpy's PCG64 numbers" in capsys.readouterr().err

    def test_each_mutant_target_occurs_once_in_the_loops(self):
        # tools/mutants.py plants each fault by replacing its target text, so
        # the text must name one place in _loops.c. This test stays out of
        # tests/test_engine.py, the file that script runs on each mutant.
        path = Path(_loops.__file__).parents[2] / "tools" / "mutants.py"
        spec = importlib.util.spec_from_file_location("mutants", path)
        mutants = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mutants)
        source = _loops.SOURCE.read_text()
        for name, target, _ in mutants.MUTANTS:
            assert source.count(target) == 1, name

    def test_every_c_source_is_package_data(self):
        # An install copies only the listed files: a C source left out of
        # package-data cannot be built where the package is installed.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        src = Path(_loops.__file__).parent
        pyproject = tomllib.loads((src.parent.parent / "pyproject.toml").read_text())
        listed = pyproject["tool"]["setuptools"]["package-data"]["coopsim"]
        assert sorted(p.name for p in src.glob("*.c")) == sorted(listed)
