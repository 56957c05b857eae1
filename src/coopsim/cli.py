"""Command-line surface: JSON configs in, CSV tables out.

Subcommands: gen-net (write a graph file), run (one replicate, per-generation
trace), sweep (grid of parameter points), baseline (a sweep whose grid is
the single no-interference point), frontier (minimum-cost configurations per
cooperation target).
The config file is the whole input of run, sweep and baseline: no flag and
no shell variable changes a value in it, so its bytes fix the output's.
Every output CSV gets a sibling <out>.meta.json echoing the resolved
configuration and seeds needed to reproduce it bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from operator import attrgetter

from . import __version__, engine, network
from .dynamics import UpdateRuleConfig
from .engine import FrontierRow, RunConfig, SweepSummary
from .game import PayoffParams
from .interference import PARAMS, InterferenceConfig
from .network import NetworkConfig

# The columns of each CSV, in order: (name, attribute path of the value,
# kind). A kind is a (form, bound) pair: text; names, a tuple joined by
# "+"; an integer of at least its bound; a finite number in [0, its
# bound]; or a number, empty for None. Floats are written to 9
# significant digits.
_TEXT, _NAMES, _NUMBER = ("text", None), ("names", None), ("number", None)
_COUNT, _FRACTION, _STATISTIC = ("integer", 0), ("bounded", 1.0), ("bounded", math.inf)


def _columns(prefix: str, *specs) -> tuple:
    """Columns from (name, path, kind) specs, each path put under the
    attribute path prefix. A (name, kind) spec's path is its name."""
    return tuple((name, prefix + (path[0] if path else name), kind)
                 for name, *path, kind in specs)


_CONFIG = _columns("config.", ("model", "network.model", _TEXT), ("n", "network.n", _COUNT),
                   ("b", "payoff.b", _NUMBER), ("update_rule", "update.rule", _TEXT),
                   ("K", "update.K", _NUMBER), ("schemes", "interference.schemes", _NAMES),
                   *((key, f"interference.{key}", _NUMBER) for key in PARAMS))
# A sweep row's statistics are finite and at least 0; coop_mean, a
# fraction of cooperators, is at most 1.
_STATS = _columns("", ("replicates", ("integer", 1)), ("coop_mean", _FRACTION),
                  ("coop_std", _STATISTIC), ("cost_mean", _STATISTIC),
                  ("cost_std", _STATISTIC), ("master_seed", _COUNT))
_SWEEP = _CONFIG + _STATS
# Each sweep column's path, split once for read_sweep_csv.
_SWEEP_PATHS = tuple(path.split(".") for _, path, _ in _SWEEP)
# A frontier row's summary has its sweep row's columns but replicates and
# coop_std (ROADMAP item 2 adds both).
_FRONTIER = _columns("", ("target", _NUMBER), ("status", _TEXT)) + _columns(
    "summary.", *_CONFIG, *_STATS[1:2], *_STATS[3:])
# A trace row is one generation: its number, which write_trace_csv counts
# rather than reads, then its entry of each of the run's arrays.
_TRACE = _columns("", ("generation", _COUNT), ("coop_fraction", "coop", _NUMBER),
                  ("invested_count", "invested", _COUNT), ("generation_cost", "cost", _NUMBER))
SWEEP_HEADER, FRONTIER_HEADER, TRACE_HEADER = (
    ",".join(name for name, _, _ in columns) for columns in (_SWEEP, _FRONTIER, _TRACE))

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# config parsing

class ConfigError(ValueError):
    """Bad outside input: a config value, a config file or a sweep CSV row.
    The message names the key, the file or the row."""


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 config file at path. Any reason the file
    holds none is raised as a ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return payload


# The JSON values a scalar config field accepts, by its annotation; a
# bool is never a number, and an optional field also takes null.
_SCALAR_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                 "str": ((str,), "a string")}
_SCALAR_TYPES.update({f"{kind} | None": (types + (type(None),), noun)
                      for kind, (types, noun) in _SCALAR_TYPES.items()})


@functools.cache
def _fields(cls) -> tuple:
    """The field names of the config class cls, and the (name, JSON types,
    noun) of each of its scalar fields: read once per class."""
    scalars = tuple((f.name, *_SCALAR_TYPES[f.type]) for f in fields(cls)
                    if f.type in _SCALAR_TYPES)
    return tuple(f.name for f in fields(cls)), scalars


def _build(cls, payload: dict, where: str):
    """cls(**payload), with every unknown key, every JSON value of the wrong
    type and every value the config rejects reported as a ConfigError
    naming the keys."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} config must be an object, got {payload!r}")
    names, scalars = _fields(cls)
    _check_keys(payload, names, where)
    for name, types, noun in scalars:
        if name not in payload:
            continue
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"bad {where} config: {name} must be {noun}, got {value!r}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


_RUN_KEYS = _fields(RunConfig)[0]
# The run keys every point of a sweep shares: its grid group sets each
# point's interference, and the master seed its run seeds.
_SHARED_KEYS = tuple(key for key in _RUN_KEYS if key not in ("interference", "run_seed"))
_POINT_KEYS = _SHARED_KEYS + ("graphs", "realisations", "master_seed")


def _check_keys(payload: dict, allowed: tuple, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {unknown}")


def _integer(key: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def parse_run_config(payload: dict) -> RunConfig:
    """Build a RunConfig from its JSON object form."""
    _check_keys(payload, _RUN_KEYS, "run")
    return _build(RunConfig, {
        **payload,
        "network": _build(NetworkConfig, payload.get("network"), "network"),
        "payoff": _build(PayoffParams, payload.get("payoff", {}), "payoff"),
        "update": _build(UpdateRuleConfig, payload.get("update", {}), "update"),
        "interference": _build(InterferenceConfig, payload.get("interference", {}),
                               "interference"),
    }, "run")


def _as_list(key, value):
    if value == []:
        raise ConfigError(f"grid value list for {key} is empty")
    return value if isinstance(value, list) else [value]


def expand_grid(base: RunConfig, grid: list[dict]) -> list[RunConfig]:
    """Expand grid groups into concrete configurations of base.

    Each group names a scheme set and per-parameter value lists; the group
    expands to the cartesian product of the lists it provides, each point
    base with that interference. A bare group, {"schemes": []}, expands to
    one point equal to base: the baseline point.
    """
    configs = []
    for group in grid:
        if not isinstance(group, dict):
            raise ConfigError(f"grid groups must be objects, got {group!r}")
        group = dict(group)
        schemes = group.pop("schemes", [])
        axes = {key: _as_list(key, group.pop(key)) for key in PARAMS if key in group}
        if group:
            raise ConfigError(f"unknown grid keys: {sorted(group)}")
        names = sorted(axes)
        for values in itertools.product(*(axes[k] for k in names)):
            icfg = {"schemes": schemes, **dict(zip(names, values))}
            configs.append(replace(base, interference=_build(
                InterferenceConfig, icfg, "interference")))
    if not configs:
        raise ConfigError("grid expanded to zero configurations")
    return configs


# ---------------------------------------------------------------------------
# CSV serialisation

def _write(path, what: str, text: str) -> None:
    """Write text to path; a failure is a RuntimeError naming what and path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {what} {path}: {exc}") from exc


def _csv(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def _formatter(kind):
    """The function from a value to its CSV field in a column of kind: a
    float to 9 significant digits, and empty for None."""
    form = kind[0]
    if form == "names":
        return "+".join
    if form in ("text", "integer"):
        return str
    return lambda value: "" if value is None else format(float(value), ".9g")


def _row_writer(columns):
    """The function from an object to its CSV row under columns: one getter
    of every column's path and each column's formatter, built once."""
    values = attrgetter(*(path for _, path, _ in columns))
    formats = tuple(_formatter(kind) for _, _, kind in columns)
    return lambda obj: ",".join([f(v) for f, v in zip(formats, values(obj))])


_SWEEP_ROW, _FRONTIER_ROW, _TARGET_STATUS = map(_row_writer, (_SWEEP, _FRONTIER, _FRONTIER[:2]))


def write_sweep_csv(summaries: list[SweepSummary], path) -> None:
    """One row per parameter point under the fixed sweep header."""
    _write(path, "sweep CSV", _csv(SWEEP_HEADER, map(_SWEEP_ROW, summaries)))


def _parse(name: str, kind, text: str):
    """The value of the field text in column name, of the given kind. A
    number that does not parse stays text, and an empty one is None, for
    its column's check to reject: a ValueError naming the column."""
    form, bound = kind
    if form == "text":
        return text
    if form == "names":
        return tuple(text.split("+")) if text else ()
    try:
        value = int(text) if form == "integer" else float(text)
    except ValueError:
        value = text or None
    if form == "integer":
        return _integer(name, value, bound)
    if form == "bounded" and not (isinstance(value, float) and math.isfinite(value)
                                  and 0.0 <= value <= bound):
        raise ValueError(f"{name} must be finite and in [0, {bound:g}], got {value!r}")
    return value


def _summary_from_row(fields: list[str]) -> SweepSummary:
    """The summary of a sweep CSV row: each field parsed by its column's
    kind and placed at its column's path, and the config checked as a
    config file's is."""
    tree = {}
    for (name, _, kind), (*owners, attr), text in zip(_SWEEP, _SWEEP_PATHS, fields):
        node = functools.reduce(lambda parent, key: parent.setdefault(key, {}), owners, tree)
        node[attr] = _parse(name, kind, text)
    return SweepSummary(config=parse_run_config(tree.pop("config")), **tree)


def read_sweep_csv(path) -> list[SweepSummary]:
    """Parse a sweep CSV back into summaries. A missing file or a bad row is
    a ConfigError naming both."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sweep CSV {path}: {exc}") from exc
    if not lines or lines[0] != SWEEP_HEADER:
        raise ConfigError(f"{path} is not a sweep CSV (bad header)")
    summaries = []
    for row_no, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(_SWEEP):
            raise ConfigError(f"{path} row {row_no}: malformed sweep CSV row {line!r}")
        try:
            summaries.append(_summary_from_row(fields))
        except ValueError as exc:
            raise ConfigError(f"{path} row {row_no}: {exc}") from exc
    return summaries


def write_frontier_csv(rows: list[FrontierRow], path) -> None:
    """One row per target. An unreachable target's row holds the target and
    its status, then empty fields, and stops one field short of the header:
    the pinned frontier bytes hold that form until ROADMAP item 2's repin
    pads it to the header's width."""
    _write(path, "frontier CSV", _csv(FRONTIER_HEADER, (
        _FRONTIER_ROW(row) if row.summary is not None
        else _TARGET_STATUS(row) + "," * (len(_FRONTIER) - 3) for row in rows)))


def write_trace_csv(result, path) -> None:
    """One row per generation: its number, then its entry of each of
    result's traced arrays."""
    arrays = attrgetter(*(attr for _, attr, _ in _TRACE[1:]))(result)
    formats = tuple(_formatter(kind) for _, _, kind in _TRACE)
    _write(path, "trace CSV", _csv(TRACE_HEADER, (
        ",".join([f(v) for f, v in zip(formats, values)])
        for values in zip(itertools.count(), *arrays))))


def write_meta(path, command: str, **payload) -> None:
    """Sibling provenance file for an output artifact."""
    meta = {"tool": "coopsim", "version": __version__, "command": command, **payload}
    _write(f"{path}.meta.json", "meta file", json.dumps(meta, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_net(args) -> int:
    cfg = _build(NetworkConfig, {"model": args.model, "n": args.n,
                                 "seed": args.seed}, "network")
    g = network.generate(cfg)
    _write(args.out, "graph file", network.graph_json(cfg, g))
    write_meta(args.out, "gen-net", config=asdict(cfg),
               edges=g.n_edges, average_degree=g.average_degree)
    return EXIT_OK


def _cmd_run(args) -> int:
    payload = read_json_object(args.config)
    cfg = parse_run_config(payload)
    result = engine.run_simulation(cfg, network.generate(cfg.network))
    write_trace_csv(result, args.out)
    # The config in the form run reads, so that it can be fed back.
    write_meta(args.out, "run", config=asdict(cfg), total_cost=result.total_cost,
               mean_coop=result.mean_coop, absorbed_at=result.absorbed_at,
               final_state=result.final_state, run_seed=cfg.run_seed)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """sweep, or baseline: the same job over the bare grid [{"schemes": []}]."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    payload = read_json_object(args.config)
    if args.command == "baseline":
        _check_keys(payload, _POINT_KEYS, "baseline")
        grid = [{"schemes": []}]
    else:
        _check_keys(payload, _POINT_KEYS + ("grid",), "sweep")
        grid = payload.get("grid")
        if not isinstance(grid, list):
            raise ConfigError("sweep config needs a 'grid' list")
    master_seed = _integer("master_seed", payload.get("master_seed"), 0)
    graphs = _integer("graphs", payload.get("graphs", engine.DEFAULT_GRAPHS), 1)
    realisations = _integer("realisations",
                            payload.get("realisations", engine.DEFAULT_REALISATIONS), 1)
    base = parse_run_config({key: payload[key] for key in _SHARED_KEYS if key in payload})
    if "seed" in payload["network"]:
        raise ConfigError(f"{args.command} config sets network.seed: a sweep's graph "
                          "seeds come from master_seed")
    cfgs = expand_grid(base, grid)
    summaries = engine.sweep(cfgs, master_seed, graphs=graphs,
                             realisations=realisations, jobs=args.jobs)
    write_sweep_csv(summaries, args.out)
    # The config file's object, master_seed included: it feeds back as is.
    write_meta(args.out, args.command, config=payload,
               master_seed=master_seed,
               graph_seeds=engine.graph_seeds_for(master_seed, graphs),
               points=len(summaries), replicates_per_point=graphs * realisations,
               jobs=args.jobs)
    return EXIT_OK


def _cmd_frontier(args) -> int:
    summaries = read_sweep_csv(args.infile)
    try:
        targets = [float(t) for t in args.targets.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --targets list: {args.targets!r}") from exc
    if not targets or not all(map(math.isfinite, targets)):
        raise ConfigError("--targets must list one or more finite cooperation targets, "
                          f"got {args.targets!r}")
    rows = engine.efficiency_frontier(summaries, targets)
    write_frontier_csv(rows, args.out)
    # The sweep CSV's path from the frontier's directory: the meta's bytes do
    # not depend on the directory the command ran from.
    source = os.path.relpath(args.infile, os.path.dirname(args.out) or os.curdir)
    write_meta(args.out, "frontier", source=source, targets=targets,
               source_master_seeds=sorted({s.master_seed for s in summaries}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Reward-interference experiments for the Prisoner's Dilemma "
                    "on scale-free networks.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        # No abbreviations: a removed flag, such as gen-net's --m, must not
        # read as a longer one that shares its prefix, such as --model.
        return subparsers.add_parser(name, help=help_text, allow_abbrev=False)

    p = sub("gen-net", "generate a network and write graph JSON")
    p.add_argument("--model", required=True, type=str.upper, choices=network.MODELS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_net)

    p = sub("run", "single replicate, per-generation CSV trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    for name, help_text in (("sweep", "replicated grid of parameter points"),
                            ("baseline", "no-interference reference point")):
        p = sub(name, help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=_cmd_sweep)

    p = sub("frontier", "minimum-cost rows per cooperation target")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--targets", required=True,
                   help="comma-separated cooperation targets, e.g. 0.5,0.75,0.9")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frontier)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OverflowError) as exc:
        print(f"coopsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"coopsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
