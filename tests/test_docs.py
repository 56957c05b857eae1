"""README's commands and config examples parse the way coopsim reads them,
so a flag or key the program no longer has cannot linger in the docs. No
simulation runs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from coopsim import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(lang):
    """The bodies of README's fenced code blocks tagged lang ("" for none)."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
            if tag == lang]


COMMANDS = [shlex.split(line, comments=True) for block in code_blocks("sh")
            for line in block.splitlines() if line.startswith("coopsim ")]
EXAMPLES = {"sweep" if "grid" in example else "run": example
            for example in map(json.loads, code_blocks("json"))}


def test_readme_shows_every_csv_header():
    # A bare code block in README holds one line: a CSV header.
    headers = [block.strip() for block in code_blocks("")]
    assert sorted(headers) == sorted([cli.SWEEP_HEADER, cli.FRONTIER_HEADER,
                                      cli.TRACE_HEADER])


def test_readme_shows_every_subcommand_and_both_configs():
    assert sorted({argv[1] for argv in COMMANDS}) == [
        "baseline", "frontier", "gen-net", "run", "sweep"]
    assert sorted(EXAMPLES) == ["run", "sweep"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_command_parses(argv):
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]


def test_run_example_parses():
    cli.parse_run_config(EXAMPLES["run"])


def test_sweep_example_parses():
    example = EXAMPLES["sweep"]
    assert set(example) <= {*cli._POINT_KEYS, "grid"}
    base = cli.parse_run_config({key: example[key] for key in cli._SHARED_KEYS
                                 if key in example})
    assert cli.expand_grid(base, example["grid"])
