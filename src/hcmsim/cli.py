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
    "coupling": str,
    "mode": str,
}

_COUPLINGS = ("none", "xi")
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
        cfg[key] = _CONFIG_KEYS[key](value)
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


def _run_thm(config: ExperimentConfig, out_dir: Path, which: str) -> list:
    result = theorem_1_6_experiment(config) if which == "thm16" else theorem_1_7_experiment(config)
    json_path = out_dir / f"{which}_report.json"
    csv_path = out_dir / f"{which}_report.csv"
    write_json(result, json_path)
    write_report_csv(result["records"], csv_path)
    return [json_path, csv_path]


def _run_validate(cfg: dict, out_dir: Path, seed: int, dump_trace: int | None) -> list:
    config = _experiment_config(cfg)
    seq = build_critical_sequence(config, cfg.get("n", 1000), stream_gen(seed, 1))
    report = validate_assumptions(seq)
    report["criticality_target"] = 1.0 + config.lam / seq.scaling.c_n
    outputs = []
    path = out_dir / "degree_validation.json"
    write_json(report, path)
    outputs.append(path)
    csv_path = out_dir / "degrees.csv"
    write_degree_csv(seq, csv_path)
    outputs.append(csv_path)
    if dump_trace is not None:
        g = sample_white_matching(seq, stream_gen(seed, 2))
        tr = explore(g, stream_gen(seed, 3))
        trace_path = out_dir / "trace.csv"
        write_trace_csv(tr, trace_path, stride=max(1, dump_trace))
        outputs.append(trace_path)
    return outputs


def _run_mcmw(cfg: dict, out_dir: Path, seed: int) -> list:
    x = np.asarray(cfg.get("masses", [1.0, 1.0]), dtype=float)
    y = np.asarray(cfg.get("weights", list(x)), dtype=float)
    t = cfg.get("time", 1.0)
    reps = cfg.get("replicates", 1000)
    coupling = cfg.get("coupling", "none")
    if coupling not in _COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    if coupling == "xi":
        xi = sample_xi_batch(x.size, reps, stream_gen(seed, 11))
        masses = mcmw_batch(x, y, t, reps, stream_gen(seed, 12), xi_batch=xi)
    else:
        masses = mcmw_batch(x, y, t, reps, stream_gen(seed, 12))
    path = out_dir / "mcmw_masses.csv"
    write_masses_csv(masses, path)
    return [path]


def _run_percolate(cfg: dict, out_dir: Path, seed: int, dump_graph: bool) -> list:
    config = _experiment_config(cfg)
    seq = build_critical_sequence(config, cfg.get("n", 1000), stream_gen(seed, 1))
    g = sample_white_matching(seq, stream_gen(seed, 2))
    mode = cfg.get("mode", "dynamic")
    if "time" in cfg:
        s = cfg["time"]
    else:
        gamma_n = seq.total_black / g.n
        s = config.mu * gamma_n / seq.scaling.c_n
    outputs = []
    if mode == "dynamic":
        state = run_dynamic(g, s, stream_gen(seed, 3))
    elif mode == "modified":
        state = run_modified(g, s, stream_gen(seed, 3))
    elif mode == "coupled":
        pair = run_coupled(g, s, stream_gen(seed, 3))
        state = pair.dynamic
        mod_path = out_dir / "events_modified.csv"
        write_event_csv(pair.modified, mod_path)
        outputs.append(mod_path)
    else:
        raise ValueError(f"unknown percolation mode {mode!r}")
    path = out_dir / "events.csv"
    write_event_csv(state, path)
    outputs.append(path)
    sizes = state.component_sizes()
    sizes_path = out_dir / "component_sizes.csv"
    np.savetxt(sizes_path, sizes[None, :], delimiter=",", fmt="%d")
    outputs.append(sizes_path)
    if dump_graph:
        gpath = out_dir / "graph.csv"
        write_edge_csv(g, gpath)
        outputs.append(gpath)
    return outputs


def _run_levy(cfg: dict, out_dir: Path, seed: int) -> list:
    tau = cfg.get("tau", 3.5)
    limits = make_limit_parameters(tau, cfg.get("K_max", 1000), lam=cfg.get("lambda", 0.0))
    T = cfg.get("levy_horizon", 10.0)
    real = sample_thinned_levy(limits, T=T, rng_seed=stream_gen(seed, 7))
    surplus = sample_surplus_process(real.X_path, stream_gen(seed, 8))
    path = out_dir / "limit_path.csv"
    write_limit_path_csv(real, path, grid_step=cfg.get("grid_step", T / 512.0), surplus=surplus)
    return [path]


def _dispatch(cfg: dict, dump_graph=False, dump_trace=None) -> int:
    """Run the experiment named in ``cfg``; exit code semantics:
    0 success, 2 config error, 3 invariant violation during the run."""
    experiment = cfg.get("experiment")
    if experiment not in {"thm16", "thm17", "mcmw", "percolate", "levy", "validate-degrees"}:
        print(f"config error: unknown experiment {experiment!r}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        if cfg.get("threads", 1) < 1:
            raise ValueError("threads must be >= 1")
        if experiment in ("thm16", "thm17"):
            config = _experiment_config(cfg)
            seed = config.master_seed
            outputs = _run_thm(config, out_dir, experiment)
        else:
            seed = cfg.get("master_seed", 0)
            if experiment == "mcmw":
                outputs = _run_mcmw(cfg, out_dir, seed)
            elif experiment == "percolate":
                outputs = _run_percolate(cfg, out_dir, seed, dump_graph)
            elif experiment == "levy":
                outputs = _run_levy(cfg, out_dir, seed)
            else:
                outputs = _run_validate(cfg, out_dir, seed, dump_trace)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(out_dir, cfg, seed, outputs, started)
    return EXIT_OK


def _merge(file_cfg: dict, flags: dict) -> dict:
    """The config file's keys overridden by the flags'. ``percolate``'s
    ``time`` and ``mu`` both set its percolation time s, so each source
    may give only one of them, and a flag for either replaces both of the
    file's."""
    s_keys = {"time", "mu"}
    if flags.get("experiment", file_cfg.get("experiment")) == "percolate":
        if s_keys <= file_cfg.keys() or s_keys <= flags.keys():
            raise ValueError("percolate takes time or mu, not both")
        if s_keys & flags.keys():
            file_cfg = {k: v for k, v in file_cfg.items() if k not in s_keys}
    return {**file_cfg, **flags}


def _flag(parser, flag: str, key: str, **kwargs):
    """A flag that sets config ``key``, parsed as the config file parses it."""
    parser.add_argument(flag, dest=key, type=_CONFIG_KEYS[key], **kwargs)


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

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p_mcmw = command("mcmw", "ordered masses of MC2(x, y, t) per replicate")
    _flag(p_mcmw, "--masses", "masses")
    _flag(p_mcmw, "--weights", "weights")
    _flag(p_mcmw, "--time", "time")
    _flag(p_mcmw, "--reps", "replicates")
    _flag(p_mcmw, "--coupling", "coupling", choices=_COUPLINGS)

    p_perc = command("percolate", "event-driven black percolation")
    _flag(p_perc, "--mode", "mode", choices=["dynamic", "modified", "coupled"])
    _flag(p_perc, "--time", "time")
    _flag(p_perc, "--mu", "mu", help="sets s = mu gamma_n / c_n")
    _flag(p_perc, "--n", "n")
    _flag(p_perc, "--tau", "tau")
    p_perc.add_argument("--dump-graph", action="store_true", help="also write G_n(0)'s white edges to graph.csv")

    p_levy = command("levy", "sample the limit pair and surplus process")
    _flag(p_levy, "--tau", "tau")
    _flag(p_levy, "--k-max", "K_max")
    _flag(p_levy, "--horizon", "levy_horizon")
    _flag(p_levy, "--grid-step", "grid_step")

    p_val = command("validate-degrees", "build, tune, and validate a degree sequence")
    _flag(p_val, "--n", "n")
    _flag(p_val, "--tau", "tau")
    _flag(p_val, "--lambda", "lambda")
    p_val.add_argument("--dump-trace", type=int, metavar="STRIDE", help="also explore once and dump the walk")

    for name in ("thm16", "thm17"):
        p = command(name, f"desk-scale convergence experiment {name}")
        _flag(p, "--n-grid", "n_grid")
        _flag(p, "--reps", "replicates")
        _flag(p, "--tau", "tau")
        if name == "thm17":
            _flag(p, "--mu", "mu")

    return parser


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    if args["experiment"] is None:  # no subcommand: the config file names it
        del args["experiment"]
    dump_graph = args.pop("dump_graph", False)
    dump_trace = args.pop("dump_trace", None)
    try:
        cfg = _merge(parse_config(args.pop("config")) if "config" in args else {}, args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if "experiment" not in cfg:
        print("config error: no experiment selected", file=sys.stderr)
        return EXIT_CONFIG
    return _dispatch(cfg, dump_graph=dump_graph, dump_trace=dump_trace)


if __name__ == "__main__":
    sys.exit(main())
