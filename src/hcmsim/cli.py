"""Configuration-driven experiment runner with reproducible seeding.

Experiments run from a flat key=value config file or from subcommand
flags; identical (config, master seed) pairs reproduce every CSV/JSON
output byte for byte, independent of the thread count, because replicate
randomness comes from counter-based streams indexed by replicate number.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
import time
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import InvariantError, stream_gen, write_json
from .degrees import make_limit_parameters, validate_assumptions, write_degree_csv
from .dynamics import run_coupled, run_dynamic, run_modified, write_event_csv
from .exploration import explore, write_trace_csv
from .graphs import sample_white_matching, write_edge_csv
from .levy import sample_surplus_process, sample_thinned_levy, write_limit_path_csv
from .coalescent import mcmw_batch, sample_xi_batch, write_masses_csv
from .stats import (
    ExperimentConfig,
    build_critical_sequence,
    percolation_time,
    theorem_1_6_experiment,
    theorem_1_7_experiment,
    write_report_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def int_list(text: str) -> list:
    """Comma-separated integers, as in ``n_grid = 1000,10000``."""
    return [int(v) for v in text.split(",")]


def float_list(text: str) -> list:
    """Comma-separated floats, as in ``masses = 1,2,1``."""
    return [float(v) for v in text.split(",")]


def one_of(*values: str):
    """A parser of one of ``values``, as in ``coupling = xi``."""
    def choice(text: str) -> str:
        if text not in values:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(values)}, got {text!r}")
        return text
    return choice


# Every setting's name and parser, shared by config files and subcommand flags.
_CONFIG_KEYS = {
    "experiment": str,
    "n": int,
    "n_grid": int_list,
    "tau": float,
    "L": float,
    "lambda": float,
    "mu": float,
    "time": float,
    "replicates": int,
    "limit_replicates": int,
    "master_seed": int,
    "K_max": int,
    "top_j": int,
    "levy_horizon": float,
    "grid_step": float,
    "threads": int,
    "out_dir": str,
    "masses": float_list,
    "weights": float_list,
    "coupling": one_of("none", "xi"),
    "mode": one_of("dynamic", "modified", "coupled"),
}

_EXPERIMENT_FIELDS = {f.name for f in fields(ExperimentConfig)}


def parse_config(path: str) -> dict:
    """Flat key=value format; '#' starts a comment."""
    cfg = {}
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_manifest(out_dir: Path, cfg: dict, seed: int, outputs: list, started: float):
    manifest = {
        "config_hash": config_hash(cfg),
        "master_seed": seed,
        "module_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "started": started,
        "finished": time.time(),
        "outputs": sorted(str(o) for o in outputs),
    }
    write_json(manifest, out_dir / "manifest.json")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The ExperimentConfig of the keys in ``cfg``; the key ``lambda`` is its field ``lam``."""
    kwargs = {("lam" if key == "lambda" else key): value for key, value in cfg.items()}
    return ExperimentConfig(**{k: v for k, v in kwargs.items() if k in _EXPERIMENT_FIELDS})


def _run_thm(experiment, cfg: dict, out_dir: Path, seed: int) -> list:
    result = experiment(_experiment_config({**cfg, "master_seed": seed}))
    json_path, csv_path = (out_dir / f"{cfg['experiment']}_report.{ext}" for ext in ("json", "csv"))
    write_json(result, json_path)
    write_report_csv(result["records"], csv_path)
    return [json_path, csv_path]


def _run_validate(cfg: dict, out_dir: Path, seed: int) -> list:
    dump_trace = cfg.get("dump_trace")
    if dump_trace is not None and dump_trace < 1:  # before any output is written
        raise ValueError(f"--dump-trace stride must be >= 1, got {dump_trace}")
    config = _experiment_config(cfg)
    seq = build_critical_sequence(config, cfg.get("n", 1000), stream_gen(seed, 1))
    report = validate_assumptions(seq)
    report["criticality_target"] = 1.0 + config.lam / seq.scaling.c_n
    outputs = [out_dir / "degree_validation.json", out_dir / "degrees.csv"]
    write_json(report, outputs[0])
    write_degree_csv(seq, outputs[1])
    if dump_trace is not None:
        g = sample_white_matching(seq, stream_gen(seed, 2))
        tr = explore(g, stream_gen(seed, 3))
        trace_path = out_dir / "trace.csv"
        write_trace_csv(tr, trace_path, stride=dump_trace)
        outputs.append(trace_path)
    return outputs


def _run_mcmw(cfg: dict, out_dir: Path, seed: int) -> list:
    x = np.asarray(cfg.get("masses", [1.0, 1.0]), dtype=float)
    y = np.asarray(cfg.get("weights", list(x)), dtype=float)
    t = cfg.get("time", 1.0)
    reps = cfg.get("replicates", 1000)
    if reps < 1:
        raise ValueError("replicates must be >= 1")
    xi = sample_xi_batch(x.size, reps, stream_gen(seed, 11)) if cfg.get("coupling", "none") == "xi" else None
    masses = mcmw_batch(x, y, t, reps, stream_gen(seed, 12), xi_batch=xi)
    path = out_dir / "mcmw_masses.csv"
    write_masses_csv(masses, path)
    return [path]


def _run_percolate(cfg: dict, out_dir: Path, seed: int) -> list:
    config = _experiment_config(cfg)
    seq = build_critical_sequence(config, cfg.get("n", 1000), stream_gen(seed, 1))
    g = sample_white_matching(seq, stream_gen(seed, 2))
    mode = cfg.get("mode", "dynamic")
    s = cfg["time"] if "time" in cfg else percolation_time(seq, config.mu)
    outputs = []
    if mode == "dynamic":
        state = run_dynamic(g, s, stream_gen(seed, 3))
    elif mode == "modified":
        state = run_modified(g, s, stream_gen(seed, 3))
    else:
        pair = run_coupled(g, s, stream_gen(seed, 3))
        state = pair.dynamic
        outputs.append(out_dir / "events_modified.csv")
        write_event_csv(pair.modified, outputs[-1])
    path = out_dir / "events.csv"
    write_event_csv(state, path)
    outputs.append(path)
    sizes_path = out_dir / "component_sizes.csv"
    np.savetxt(sizes_path, state.component_sizes()[None, :], delimiter=",", fmt="%d")
    outputs.append(sizes_path)
    if cfg.get("dump_graph", False):
        gpath = out_dir / "graph.csv"
        write_edge_csv(g, gpath)
        outputs.append(gpath)
    return outputs


def _run_levy(cfg: dict, out_dir: Path, seed: int) -> list:
    limits = make_limit_parameters(cfg.get("tau", 3.5), cfg.get("K_max", 1000), lam=cfg.get("lambda", 0.0))
    T = cfg.get("levy_horizon", 10.0)
    real = sample_thinned_levy(limits, T=T, rng=stream_gen(seed, 7))
    surplus = sample_surplus_process(real.X_path, stream_gen(seed, 8))
    path = out_dir / "limit_path.csv"
    write_limit_path_csv(real, path, grid_step=cfg.get("grid_step", T / 512.0), surplus=surplus)
    return [path]


# A command's run(cfg, out_dir, seed) -> output paths, the master seed it
# runs on when none is set, its help, and its (flag, key) pairs. The theorem
# rows look their experiment up by name when run, so a wrapper set on that
# module attribute (as perfbench's tracer sets one) is the one that runs.
_Command = namedtuple("_Command", "run seed help flags")

_THM_FLAGS = (("--n-grid", "n_grid"), ("--reps", "replicates"), ("--tau", "tau"))

_COMMANDS = {
    "mcmw": _Command(_run_mcmw, 0, "ordered masses of MC2(x, y, t) per replicate", (
        ("--masses", "masses"), ("--weights", "weights"), ("--time", "time"), ("--reps", "replicates"),
        ("--coupling", "coupling"))),
    "percolate": _Command(_run_percolate, 0, "event-driven black percolation", (
        ("--mode", "mode"), ("--time", "time"), ("--mu", "mu"), ("--n", "n"), ("--tau", "tau"),
        ("--dump-graph", "dump_graph"))),
    "levy": _Command(_run_levy, 0, "sample the limit pair and surplus process", (
        ("--tau", "tau"), ("--k-max", "K_max"), ("--horizon", "levy_horizon"), ("--grid-step", "grid_step"))),
    "validate-degrees": _Command(_run_validate, 0, "build, tune, and validate a degree sequence", (
        ("--n", "n"), ("--tau", "tau"), ("--lambda", "lambda"), ("--dump-trace", "dump_trace"))),
    "thm16": _Command(lambda *run: _run_thm(theorem_1_6_experiment, *run), ExperimentConfig.master_seed,
                      "desk-scale convergence experiment of Theorem 1.6", _THM_FLAGS),
    "thm17": _Command(lambda *run: _run_thm(theorem_1_7_experiment, *run), ExperimentConfig.master_seed,
                      "desk-scale convergence experiment of Theorem 1.7", (*_THM_FLAGS, ("--mu", "mu"))),
}


def _dispatch(cfg: dict) -> int:
    """Run the experiment named in ``cfg``; exit code semantics:
    0 success, 2 config error, 3 invariant violation during the run."""
    command = _COMMANDS.get(cfg.get("experiment"))
    if command is None:
        print(f"config error: unknown experiment {cfg.get('experiment')!r}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    seed = cfg.get("master_seed", command.seed)
    try:
        if cfg.get("threads", 1) < 1:
            raise ValueError("threads must be >= 1")
        outputs = command.run(cfg, out_dir, seed)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(out_dir, cfg, seed, outputs, started)
    return EXIT_OK


def _merge(file_cfg: dict, flags: dict) -> dict:
    """The config file's keys overridden by the flags'. A command with both
    ``time`` and ``mu`` (``percolate``) reads either as its percolation time s:
    each source gives one, and a flag for either replaces both of the file's."""
    s_keys = {"time", "mu"}
    command = _COMMANDS.get(flags.get("experiment", file_cfg.get("experiment")))
    if command and s_keys <= {key for _, key in command.flags}:
        if s_keys <= file_cfg.keys() or s_keys <= flags.keys():
            raise ValueError("time and mu set the same percolation time: give one, not both")
        if s_keys & flags.keys():
            file_cfg = {k: v for k, v in file_cfg.items() if k not in s_keys}
    return {**file_cfg, **flags}


# argparse options beyond the key's parser; dump_graph and dump_trace are flag-only keys.
_FLAG_OPTIONS = {
    "mu": {"help": "sets s = mu gamma_n / c_n"},
    "dump_graph": {"action": "store_true", "help": "also write G_n(0)'s white edges to graph.csv"},
    "dump_trace": {"type": int, "metavar": "STRIDE", "help": "also explore once and dump the walk"},
}


def _flag(parser, flag: str, key: str, **kwargs):
    """A flag that sets ``key``, parsed as the config file parses it."""
    if key in _CONFIG_KEYS:
        kwargs["type"] = _CONFIG_KEYS[key]
    parser.add_argument(flag, dest=key, **kwargs, **_FLAG_OPTIONS.get(key, {}))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    # Unset flags stay out of the namespace, so a flag beats the config
    # file, which beats the defaults of the run functions.
    parser = argparse.ArgumentParser(prog="hcmsim", description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--config", help="key=value config file")
    _flag(parser, "--seed", "master_seed", help="override master seed")
    _flag(parser, "--threads", "threads", help="worker threads")
    _flag(parser, "--out-dir", "out_dir", help="output directory")
    sub = parser.add_subparsers(dest="experiment")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag, key in command.flags:
            _flag(p, flag, key)
    return parser


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    if args["experiment"] is None:  # no subcommand: the config file names it
        del args["experiment"]
    try:
        cfg = _merge(parse_config(args.pop("config")) if "config" in args else {}, args)
    except (FileNotFoundError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if "experiment" not in cfg:
        print("config error: no experiment selected", file=sys.stderr)
        return EXIT_CONFIG
    return _dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
