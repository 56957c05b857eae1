"""Golden bytes: sha256 of small CSVs written through the CLI, and of the
edge arrays growth writes.

Each CSV case runs one subcommand on a fixed config and seed and pins the
exact bytes of the CSV it writes. A refactor that keeps behaviour keeps these
hashes; a deliberate behaviour change must update them and say why.
"""

import hashlib
import json

import pytest

from coopsim import _loops
from coopsim.cli import EXIT_OK, main

from conftest import pcg64_generator

DET_BA = {
    "network": {"model": "BA", "n": 150},
    "payoff": {"b": 1.3},
    "update": {"rule": "deterministic"},
    "generations": 30,
    "stats_window": 10,
    "graphs": 2,
    "realisations": 2,
    "master_seed": 20230116,
}

STOCH_DMS = {
    "network": {"model": "DMS", "n": 150},
    "payoff": {"b": 1.6},
    "update": {"rule": "stochastic", "K": 0.1},
    "generations": 40,
    "stats_window": 10,
    "graphs": 2,
    "realisations": 2,
    "master_seed": 3,
}

GRID = [
    {"schemes": []},
    {"schemes": ["POP"], "theta": [1, 5], "p_c": [0.5, 1.0]},
    {"schemes": ["NEB", "NI"], "theta": 2, "n_c": [0.25, 0.5], "c_I": 0.05},
]

# Deterministic POP run that absorbs into all-C at generation 3, so the
# trace ends in a frozen fill.
RUN_ABSORBS = {
    "network": {"model": "BA", "n": 300, "seed": 3},
    "payoff": {"b": 1.8},
    "update": {"rule": "deterministic"},
    "interference": {"schemes": ["POP"], "theta": 40, "p_c": 1.0},
    "generations": 20,
    "stats_window": 5,
    "run_seed": 3,
}

RUN_STOCH = {
    "network": {"model": "DMS", "n": 200, "seed": 5},
    "payoff": {"b": 1.6},
    "update": {"rule": "stochastic", "K": 0.1},
    "interference": {"schemes": ["NEB", "NI"], "theta": 1.5, "n_c": 0.5, "c_I": 0.2},
    "generations": 40,
    "stats_window": 10,
    "run_seed": 9,
}

# Fermi POP run that absorbs into all-C at generation 4: like an
# imitate-best run, it stops there and pays nothing more.
RUN_STOCH_ABSORBS = {
    "network": {"model": "DMS", "n": 200, "seed": 5},
    "payoff": {"b": 1.6},
    "update": {"rule": "stochastic", "K": 0.1},
    "interference": {"schemes": ["POP"], "theta": 40, "p_c": 1.0},
    "generations": 40,
    "stats_window": 10,
    "run_seed": 0,
}

TARGETS = "0.25,0.5,0.75,0.9"
# No configuration reaches a target above 1: its frontier row is unreachable.
TARGETS_UNREACHABLE = "0.25,1.5"

PINNED = {
    "run-absorbs": "4288e11d6260ed86d767b6d5c8a6868481b85c39c93f1e5fde2af6cdbbb34460",
    "run-stoch-absorbs": "4128c8a12b82961bbc46725a5fd13c7edc0e3322a19cd54e02cc8eeddb2f5aec",
    "run-stoch": "0265ee0caeb4f9d8418c439499806c7cdb6923c4e7e5772386d258b9d99539f0",
    "baseline": "59d71217927a6eec2cd43bc32b59ac9de702ad806b516d9eb5574ba28bece13b",
    "sweep-ba": "506b7dff069e9bf9d158a9e3c23386907f1ff1c3fa06b07b5bb9008e673aabda",
    "frontier-ba": "bfa96e28d759ad7a863b637fdd3c5bf6565d6355bf67e8d5e9cb650a4e944955",
    "sweep-dms": "7fc0b923244707a91a56d76b1db893a8156302dfc69a9572dbb05bf50c416986",
    "frontier-dms": "79c29dbdaa0f85932fe99b48409dadb22cad991048919bccb7c20cd11d8812f1",
    "frontier-ba-unreachable":
        "66db842341a052659fc59f1103bd84269c9f95e6748537fc637a11cdb9cedd49",
}

# Growth's edge arrays at seed 20230116, (model, n) -> sha256 of the int64
# ends _loops.grow writes, in host byte order. DMS n=3 is the bare triangle
# and n=4 makes a single pick.
GROWTH = {
    ("ba", 2000): "578a6b9214e9f5bd5ac41525c7403735b5b2e448b4b974d4cac13287b24856a8",
    ("dms", 5000): "6f66b88fc8422088f8880bbb3b9d1aea14da796310cfeaf7cbc4bf6ce31c539c",
    ("dms", 3): "79804fd0053199256af1dee6baa3c44ee78fc1c597da9105d41e7d1fca910d6b",
    ("dms", 4): "a5541010f563b83274b4f2a120daa088f50334c76cba72883cdf8cc2bbb6dc4b",
}

# The draw that follows growth (_loops.grow) to n nodes on a stream seeded
# with 7: growth must leave the stream it steps where it did.
NEXT_DRAW = {
    ("ba", 2000): 0.5639723423952818,
    ("dms", 5000): 0.8117797317002403,
    ("dms", 3): 0.625095466604667,
    ("dms", 4): 0.8972138009695755,
}


def graph_ids(keys):
    """Test ids model-n-2-2. The trailing 2-2 is the BA core size and the
    edges per node, both 2 in every pin, from when they were config keys; the
    ids keep it so each pin keeps its name."""
    return [f"{model}-{n}-2-2" for model, n in keys]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(tmp_path, command, payload, out_name, *extra):
    config = tmp_path / f"{out_name}.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / f"{out_name}.csv"
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == EXIT_OK
    return out


def frontier(tmp_path, sweep_csv, out_name, targets=TARGETS):
    out = tmp_path / f"{out_name}.csv"
    assert main(["frontier", "--in", str(sweep_csv), "--targets", targets,
                 "--out", str(out)]) == EXIT_OK
    return out


def test_run_trace_that_absorbs_early(tmp_path):
    out = cli(tmp_path, "run", RUN_ABSORBS, "run-absorbs")
    meta = json.loads((tmp_path / "run-absorbs.csv.meta.json").read_text())
    assert meta["absorbed_at"] == 3
    assert sha256(out) == PINNED["run-absorbs"]


def test_stochastic_run_trace_that_absorbs_early(tmp_path):
    out = cli(tmp_path, "run", RUN_STOCH_ABSORBS, "run-stoch-absorbs")
    meta = json.loads((tmp_path / "run-stoch-absorbs.csv.meta.json").read_text())
    assert meta["absorbed_at"] == 4
    assert sha256(out) == PINNED["run-stoch-absorbs"]


def test_stochastic_neb_ni_trace(tmp_path):
    out = cli(tmp_path, "run", RUN_STOCH, "run-stoch")
    assert sha256(out) == PINNED["run-stoch"]


def test_baseline_csv(tmp_path):
    out = cli(tmp_path, "baseline", DET_BA, "baseline")
    assert sha256(out) == PINNED["baseline"]


@pytest.mark.parametrize("name,base", [("ba", DET_BA), ("dms", STOCH_DMS)])
def test_sweep_and_frontier_csvs(tmp_path, name, base):
    out = cli(tmp_path, "sweep", {**base, "grid": GRID}, f"sweep-{name}")
    assert sha256(out) == PINNED[f"sweep-{name}"]
    assert sha256(frontier(tmp_path, out, f"frontier-{name}")) == PINNED[f"frontier-{name}"]


def test_frontier_with_an_unreachable_target(tmp_path):
    out = cli(tmp_path, "sweep", {**DET_BA, "grid": GRID}, "sweep-ba")
    rows = frontier(tmp_path, out, "frontier-ba-unreachable", TARGETS_UNREACHABLE)
    assert rows.read_text().splitlines()[-1].startswith("1.5,unreachable,")
    assert sha256(rows) == PINNED["frontier-ba-unreachable"]


@pytest.mark.parametrize("model,n", list(GROWTH), ids=graph_ids(GROWTH))
def test_growth_edges(model, n):
    edges = _loops.grow(model.upper(), n, _loops.generator(20230116))
    assert hashlib.sha256(edges).hexdigest() == GROWTH[model, n]


@pytest.mark.parametrize("model,n", list(NEXT_DRAW), ids=graph_ids(NEXT_DRAW))
def test_generate_leaves_an_explicit_stream_where_it_was(model, n):
    rng = _loops.generator(7)
    _loops.grow(model.upper(), n, rng)
    assert pcg64_generator(rng).random() == NEXT_DRAW[model, n]
