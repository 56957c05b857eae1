import concurrent.futures
import contextlib
import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopsim
from coopsim import _imitate, cli, engine
from coopsim.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    FRONTIER_HEADER,
    SWEEP_HEADER,
    expand_grid,
    main,
    parse_run_config,
    read_sweep_csv,
    write_sweep_csv,
)
from coopsim.engine import efficiency_frontier
from coopsim.network import NetworkConfig

from conftest import load_graph, reachable


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


class TestGenNet:
    def test_writes_loadable_graph_and_meta(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["gen-net", "--model", "dms", "--n", "200", "--seed", "7",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert load_graph(out).n == 200
        # The file records the config it was generated from.
        payload = json.loads(out.read_text())
        assert (payload["model"], payload["n"], payload["seed"]) == ("DMS", 200, 7)
        meta = json.loads((tmp_path / "g.json.meta.json").read_text())
        assert meta["command"] == "gen-net"
        assert meta["config"]["seed"] == 7

    @pytest.mark.parametrize("key", ["m0", "m"])
    def test_dms_other_than_two_edges_per_node_rejected(self, tmp_path, capsys, key):
        # Both models grow by two edges per node: gen-net has no flag to ask
        # for another count, and --m does not abbreviate --model.
        out = tmp_path / "g.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen-net", "--model", "dms", "--n", "50", "--seed", "1",
                  f"--{key}", "3", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: --{key} 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-net", "--model", "lattice", "--n", "10", "--seed", "1",
                  "--out", str(tmp_path / "g.json")])
        assert exc.value.code == EXIT_USAGE


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
        if command == "gen-net":
            return ["gen-net", "--model", "ba", "--n", "60", "--seed", "2", "--out", str(out)]
        if command == "frontier":
            sweep_out = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", write_config(tmp_path, sweep_config()),
                         "--out", str(sweep_out)]) == EXIT_OK
            return ["frontier", "--in", str(sweep_out), "--targets", "0.5", "--out", str(out)]
        payload = run_config() if command == "run" else sweep_config()
        return [command, "--config", write_config(tmp_path, payload), "--out", str(out)]

    @pytest.mark.parametrize("command,what", [("run", "trace CSV"), ("sweep", "sweep CSV"),
                                              ("frontier", "frontier CSV"),
                                              ("gen-net", "graph file")])
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
        out = tmp_path / "g.json"
        proc = subprocess.run(
            [sys.executable, "-m", "coopsim.cli", "gen-net", "--model", "ba",
             "--n", "20", "--seed", "1", "--out", str(out)],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert load_graph(out).n == 20

    @pytest.mark.parametrize("argv,abbreviated", [
        (["run", "--config", "c.json", "--out", "t.csv", "--conf", "d.json"], "--conf"),
        (["sweep", "--config", "c.json", "--out", "s.csv", "--jo", "2"], "--jo"),
        (["baseline", "--config", "c.json", "--out", "s.csv", "--ou", "x.csv"], "--ou"),
        (["frontier", "--in", "s.csv", "--targets", "0.5", "--out", "f.csv", "--tar", "0.9"],
         "--tar"),
        (["gen-net", "--model", "ba", "--n", "20", "--seed", "1", "--out", "g.json",
          "--mod", "dms"], "--mod"),
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

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coopsim.cli", "plot"],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE


class TestLazyPool:
    """Only a sweep that runs more than one task on more than one job
    imports the process pool."""

    POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

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
            ["gen-net", "--model", "dms", "--n", "30", "--seed", "1",
             "--out", str(tmp_path / "g.json")],
            ["run", "--config", run_cfg, "--out", str(tmp_path / "run.csv")],
            ["baseline", "--config", base_cfg, "--out", str(tmp_path / "base.csv")],
            ["sweep", "--config", sweep_cfg, "--out", sweep_csv, "--jobs", "1"],
            ["frontier", "--in", sweep_csv, "--targets", "0.5",
             "--out", str(tmp_path / "frontier.csv")],
        ]
        # A fresh interpreter: this one may have imported the pool already.
        script = (
            "import json, sys\n"
            "from coopsim import engine\n"
            "from coopsim.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            f"    loaded = [m for m in {self.POOL_MODULES!r} if m in sys.modules]\n"
            "    assert not loaded, (argv[0], loaded)\n"
            "    assert engine.ProcessPoolExecutor is None, argv[0]\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_parallel_sweep_uses_the_module_pool_class(self, tmp_path, monkeypatch):
        made = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        cfg = write_config(tmp_path, sweep_config())
        serial, parallel = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == EXIT_OK
        assert made == []
        assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        assert made == [2]
        assert parallel.read_bytes() == serial.read_bytes()

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        made = []

        class SerialPool:
            """Records its size and maps in this process: no worker starts."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", SerialPool)
        # one grid point on three graphs: three tasks
        cfg = write_config(tmp_path, sweep_config(graphs=3, realisations=1,
                                                  grid=[{"schemes": []}]))
        serial = tmp_path / "j1.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == EXIT_OK
        for jobs, workers in (("64", 3), ("3", 3), ("2", 2)):
            out = tmp_path / f"j{jobs}.csv"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
            assert made.pop() == workers
            assert out.read_bytes() == serial.read_bytes()
        assert made == []


class TestImitateBuild:
    """The compiled imitate-best loop: one build per source text and
    compiler command, written atomically, and loaded by imitate-best runs
    alone."""

    # Runs one command with the build cache in argv[1] and the compiler in
    # argv[2]; the command's own arguments follow.
    SCRIPT = ("import sys\n"
              "from pathlib import Path\n"
              "from coopsim import _imitate\n"
              "from coopsim.cli import main\n"
              "_imitate.CACHE_DIR, _imitate.CC = Path(sys.argv[1]), sys.argv[2]\n"
              "sys.exit(main(sys.argv[3:]))\n")

    def command(self, cache, cc, *argv):
        return [sys.executable, "-c", self.SCRIPT, str(cache), cc, *argv]

    def test_changed_source_gets_a_new_cache_name(self):
        source = _imitate.SOURCE.read_bytes()
        name = _imitate.cache_name(source)
        assert name == _imitate.cache_name(source)
        assert name != _imitate.cache_name(source + b"\n")
        assert name != _imitate.cache_name(source.replace(b"-INFINITY", b"-HUGE_VAL"))

    def test_two_interpreters_build_into_one_empty_cache_at_once(self, tmp_path):
        cache = tmp_path / "cache"
        cfg = write_config(tmp_path, sweep_config(graphs=1, realisations=2))
        outs = [tmp_path / f"sweep{i}.csv" for i in range(2)]
        procs = [subprocess.Popen(self.command(cache, _imitate.CC, "sweep", "--config", cfg,
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
        # One library, and no temporary file left behind.
        source = _imitate.SOURCE.read_bytes()
        assert [p.name for p in cache.iterdir()] == [_imitate.cache_name(source)]

    def test_missing_compiler_exits_1_naming_it(self, tmp_path):
        cache, cc = tmp_path / "cache", str(tmp_path / "no-such-dir" / "gcc")
        cfg = write_config(tmp_path, sweep_config(graphs=1, realisations=1))
        proc = subprocess.run(self.command(cache, cc, "sweep", "--config", cfg,
                                           "--out", str(tmp_path / "s.csv")),
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RUNTIME
        assert cc in proc.stderr
        assert list(cache.iterdir()) == []

    def test_fermi_commands_never_load_the_library(self, tmp_path):
        # numpy imports ctypes itself, so what is checked is coopsim._imitate,
        # the one coopsim module that uses ctypes: it is imported only to
        # load the library.
        fermi = sweep_config(update={"rule": "stochastic", "K": 0.1}, graphs=1,
                             realisations=1)
        fermi_cfg = write_config(tmp_path, fermi, "fermi.json")
        imitate_cfg = write_config(tmp_path, sweep_config(graphs=1, realisations=1),
                                   "imitate.json")
        sweep_csv = str(tmp_path / "sweep.csv")
        commands = [
            ["gen-net", "--model", "ba", "--n", "30", "--seed", "1",
             "--out", str(tmp_path / "g.json")],
            ["sweep", "--config", fermi_cfg, "--out", sweep_csv, "--jobs", "1"],
            ["frontier", "--in", sweep_csv, "--targets", "0.5",
             "--out", str(tmp_path / "frontier.csv")],
        ]
        # A fresh interpreter: this one may have loaded the library already.
        # The imitate-best sweep at the end must load it.
        script = (
            "import json, sys\n"
            "from coopsim.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'coopsim._imitate' not in sys.modules, argv[0]\n"
            f"assert main(['sweep', '--config', {imitate_cfg!r}, '--out', {sweep_csv!r}]) == 0\n"
            "from coopsim import _imitate\n"
            "assert _imitate.library.cache_info().currsize == 1\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
