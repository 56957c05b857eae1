"""The committed experiments in experiments/ still read as they were
written, without rerunning a simulation: each sweep CSV reads back and
agrees with its meta.json, and each frontier CSV is what `coopsim
frontier` makes of its sweep CSV today, byte for byte."""

import json
import shutil
from pathlib import Path

import pytest

from coopsim import engine
from coopsim.cli import EXIT_OK, main, read_sweep_csv

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def meta(csv: Path) -> dict:
    return json.loads(csv.with_name(csv.name + ".meta.json").read_text(encoding="utf-8"))


def outputs(command: str) -> list[Path]:
    """Every committed CSV that command wrote."""
    return [csv for csv in sorted(EXPERIMENTS.glob("*.csv")) if meta(csv)["command"] == command]


@pytest.mark.parametrize("csv", outputs("sweep"), ids=lambda csv: csv.name)
def test_sweep_csv_reads_back_and_matches_its_meta(csv):
    rows, written = read_sweep_csv(csv), meta(csv)
    config = written["config"]
    assert len(rows) == written["points"]
    assert written["master_seed"] == config["master_seed"]
    assert {row.master_seed for row in rows} == {written["master_seed"]}
    assert written["graph_seeds"] == engine.graph_seeds_for(written["master_seed"],
                                                            config["graphs"])
    assert written["replicates_per_point"] == config["graphs"] * config["realisations"]
    assert {row.replicates for row in rows} == {written["replicates_per_point"]}


@pytest.mark.parametrize("csv", outputs("frontier"), ids=lambda csv: csv.name)
def test_frontier_csv_is_recomputed_byte_for_byte(tmp_path, csv):
    written, out = meta(csv), tmp_path / "frontier.csv"
    assert main(["frontier", "--in", str(EXPERIMENTS / written["source"]),
                 "--targets", ",".join(map(str, written["targets"])),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == csv.read_bytes()


@pytest.mark.parametrize("csv", outputs("frontier"), ids=lambda csv: csv.name)
def test_frontier_meta_does_not_depend_on_the_working_directory(tmp_path, monkeypatch, csv):
    # The frontier of a copy of the sweep CSV, written beside it from that
    # directory and from its parent, by relative and by absolute paths:
    # every meta.json is the committed one, byte for byte.
    written, here = meta(csv), tmp_path / "experiments"
    here.mkdir()
    shutil.copy(EXPERIMENTS / written["source"], here)
    committed = csv.with_name(csv.name + ".meta.json").read_bytes()
    for cwd, prefix in ((here, ""), (tmp_path, "experiments/"), (tmp_path, f"{here}/")):
        monkeypatch.chdir(cwd)
        assert main(["frontier", "--in", prefix + written["source"],
                     "--targets", ",".join(map(str, written["targets"])),
                     "--out", prefix + csv.name]) == EXIT_OK
        assert (here / (csv.name + ".meta.json")).read_bytes() == committed, prefix


def test_every_sweep_has_a_frontier():
    assert outputs("sweep")
    assert sorted(EXPERIMENTS / meta(csv)["source"] for csv in outputs("frontier")) \
        == outputs("sweep")
