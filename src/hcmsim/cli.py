"""Configuration-driven experiment runner with reproducible seeding.

Experiments run from a flat key=value config file or from subcommand
flags; identical (config, master seed) pairs reproduce every CSV/JSON
output byte for byte, independent of the thread count, because replicate
randomness comes from counter-based streams indexed by replicate number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import InvariantError, stream_gen
from .degrees import (
    DEFAULT_BULK_BLACK,
    DEFAULT_BULK_WHITE,
    build_degree_sequence,
    make_limit_parameters,
    make_scaling,
    tune_to_criticality,
    validate_assumptions,
    write_degree_csv,
)
from .dynamics import run_coupled, run_dynamic, run_modified, write_event_csv
from .exploration import explore, write_trace_csv
from .graphs import sample_white_matching, write_edge_csv
from .levy import sample_surplus_process, sample_thinned_levy, write_limit_path_csv
from .coalescent import mcmw_batch, sample_xi_batch, write_masses_csv
from .stats import ExperimentConfig, theorem_1_6_experiment, theorem_1_7_experiment, write_report_csv, write_report_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

_CONFIG_KEYS = {
    "experiment": str,
    "n": int,
    "n_grid": lambda s: [int(v) for v in s.split(",")],
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
    "masses": lambda s: [float(v) for v in s.split(",")],
    "weights": lambda s: [float(v) for v in s.split(",")],
    "coupling": str,
    "mode": str,
    "hub_count": int,
}


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


def _write_manifest(out_dir: Path, cfg: dict, outputs: list, started: float):
    manifest = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.get("master_seed", 0),
        "module_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "started": started,
        "finished": time.time(),
        "outputs": sorted(str(o) for o in outputs),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    kwargs = {}
    mapping = {
        "n_grid": "n_grid",
        "tau": "tau",
        "L": "L",
        "lambda": "lam",
        "mu": "mu",
        "replicates": "replicates",
        "limit_replicates": "limit_replicates",
        "master_seed": "master_seed",
        "K_max": "K_max",
        "top_j": "top_j",
        "levy_horizon": "levy_horizon",
        "threads": "threads",
    }
    for key, attr in mapping.items():
        if key in cfg:
            kwargs[attr] = cfg[key]
    return ExperimentConfig(**kwargs)


def _run_thm(cfg: dict, out_dir: Path, which: str) -> list:
    config = _experiment_config(cfg)
    result = theorem_1_6_experiment(config) if which == "thm16" else theorem_1_7_experiment(config)
    json_path = out_dir / f"{which}_report.json"
    csv_path = out_dir / f"{which}_report.csv"
    write_report_json(result, json_path)
    write_report_csv(result["records"], csv_path)
    return [json_path, csv_path]


def _build_sequence(cfg: dict):
    n = cfg.get("n", 1000)
    tau = cfg.get("tau", 3.5)
    scaling = make_scaling(n, tau, cfg.get("L", 1.0))
    limits = make_limit_parameters(tau, cfg.get("K_max", 15), lam=cfg.get("lambda", 0.0))
    seq = build_degree_sequence(
        scaling,
        limits,
        hub_count=cfg.get("hub_count", cfg.get("K_max", 15)),
        bulk_law=DEFAULT_BULK_WHITE,
        rng_seed=stream_gen(cfg.get("master_seed", 0), 1),
        bulk_black_law=DEFAULT_BULK_BLACK,
    )
    return tune_to_criticality(seq, cfg.get("lambda", 0.0))


def _run_validate(cfg: dict, out_dir: Path, dump_trace: int | None) -> list:
    seq = _build_sequence(cfg)
    report = validate_assumptions(seq)
    report["criticality_target"] = 1.0 + cfg.get("lambda", 0.0) / seq.scaling.c_n
    outputs = []
    path = out_dir / "degree_validation.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    outputs.append(path)
    csv_path = out_dir / "degrees.csv"
    write_degree_csv(seq, csv_path)
    outputs.append(csv_path)
    if dump_trace is not None:
        g = sample_white_matching(seq, stream_gen(cfg.get("master_seed", 0), 2))
        tr = explore(g, stream_gen(cfg.get("master_seed", 0), 3))
        trace_path = out_dir / "trace.csv"
        write_trace_csv(tr, trace_path, stride=max(1, dump_trace))
        outputs.append(trace_path)
    return outputs


def _run_mcmw(cfg: dict, out_dir: Path) -> list:
    x = np.asarray(cfg.get("masses", [1.0, 1.0]), dtype=float)
    y = np.asarray(cfg.get("weights", list(x)), dtype=float)
    t = cfg.get("time", 1.0)
    reps = cfg.get("replicates", 1000)
    seed = cfg.get("master_seed", 0)
    if cfg.get("coupling", "none") == "xi":
        xi = sample_xi_batch(x.size, reps, stream_gen(seed, 11))
        masses = mcmw_batch(x, y, t, reps, stream_gen(seed, 12), xi_batch=xi)
    else:
        masses = mcmw_batch(x, y, t, reps, stream_gen(seed, 12))
    path = out_dir / "mcmw_masses.csv"
    write_masses_csv(masses, path)
    return [path]


def _run_percolate(cfg: dict, out_dir: Path, dump_graph: bool) -> list:
    seq = _build_sequence(cfg)
    seed = cfg.get("master_seed", 0)
    g = sample_white_matching(seq, stream_gen(seed, 2))
    mode = cfg.get("mode", "dynamic")
    if "time" in cfg:
        s = cfg["time"]
    else:
        mu = cfg.get("mu", 1.0)
        gamma_n = seq.total_black / g.n
        s = mu * gamma_n / seq.scaling.c_n
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


def _run_levy(cfg: dict, out_dir: Path) -> list:
    tau = cfg.get("tau", 3.5)
    limits = make_limit_parameters(tau, cfg.get("K_max", 1000), lam=cfg.get("lambda", 0.0))
    T = cfg.get("levy_horizon", 10.0)
    real = sample_thinned_levy(limits, T=T, rng_seed=stream_gen(cfg.get("master_seed", 0), 7))
    surplus = sample_surplus_process(real.X_path, stream_gen(cfg.get("master_seed", 0), 8))
    path = out_dir / "limit_path.csv"
    write_limit_path_csv(real, path, grid_step=cfg.get("grid_step", T / 512.0), surplus=surplus)
    return [path]


def run(config_path: str, overrides: dict | None = None) -> int:
    """Execute the experiment named in the config; exit code semantics:
    0 success, 2 config error, 3 invariant violation during the run."""
    try:
        cfg = parse_config(config_path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    return _dispatch(cfg)


def _dispatch(cfg: dict, dump_graph=False, dump_trace=None) -> int:
    experiment = cfg.get("experiment")
    if experiment not in {"thm16", "thm17", "mcmw", "percolate", "levy", "validate-degrees"}:
        print(f"config error: unknown experiment {experiment!r}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        if experiment in ("thm16", "thm17"):
            outputs = _run_thm(cfg, out_dir, experiment)
        elif experiment == "mcmw":
            outputs = _run_mcmw(cfg, out_dir)
        elif experiment == "percolate":
            outputs = _run_percolate(cfg, out_dir, dump_graph)
        elif experiment == "levy":
            outputs = _run_levy(cfg, out_dir)
        else:
            outputs = _run_validate(cfg, out_dir, dump_trace)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(out_dir, cfg, outputs, started)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hcmsim", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--threads", type=int, help="worker threads")
    parser.add_argument("--out-dir", help="output directory")
    sub = parser.add_subparsers(dest="command")

    p_mcmw = sub.add_parser("mcmw", help="ordered masses of MC2(x, y, t) per replicate")
    p_mcmw.add_argument("--masses", required=True)
    p_mcmw.add_argument("--weights", required=True)
    p_mcmw.add_argument("--time", type=float, required=True)
    p_mcmw.add_argument("--reps", type=int, default=1000)
    p_mcmw.add_argument("--coupling", choices=["xi", "none"], default="none")

    p_perc = sub.add_parser("percolate", help="event-driven black percolation")
    p_perc.add_argument("--mode", choices=["dynamic", "modified", "coupled"], default="dynamic")
    p_perc.add_argument("--time", type=float)
    p_perc.add_argument("--mu", type=float, help="sets s = mu gamma_n / c_n")
    p_perc.add_argument("--n", type=int, default=1000)
    p_perc.add_argument("--tau", type=float, default=3.5)
    p_perc.add_argument("--dump-graph", action="store_true", help="also write G_n(0)'s white edges to graph.csv")

    p_levy = sub.add_parser("levy", help="sample the limit pair and surplus process")
    p_levy.add_argument("--tau", type=float, default=3.5)
    p_levy.add_argument("--k-max", type=int, default=1000)
    p_levy.add_argument("--horizon", type=float, default=10.0)
    p_levy.add_argument("--grid-step", type=float)

    p_val = sub.add_parser("validate-degrees", help="build, tune, and validate a degree sequence")
    p_val.add_argument("--n", type=int, default=1000)
    p_val.add_argument("--tau", type=float, default=3.5)
    p_val.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_val.add_argument("--dump-trace", type=int, metavar="STRIDE", help="also explore once and dump the walk")

    for name in ("thm16", "thm17"):
        p = sub.add_parser(name, help=f"desk-scale convergence experiment {name}")
        p.add_argument("--n-grid")
        p.add_argument("--reps", type=int)
        p.add_argument("--tau", type=float)
        if name == "thm17":
            p.add_argument("--mu", type=float)

    args = parser.parse_args(argv)
    cfg: dict = {}
    if args.config:
        try:
            cfg = parse_config(args.config)
        except (FileNotFoundError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir

    dump_graph = False
    dump_trace = None
    if args.command:
        cfg["experiment"] = args.command
        if args.command == "mcmw":
            cfg["masses"] = [float(v) for v in args.masses.split(",")]
            cfg["weights"] = [float(v) for v in args.weights.split(",")]
            cfg["time"] = args.time
            cfg["replicates"] = args.reps
            cfg["coupling"] = args.coupling
        elif args.command == "percolate":
            cfg["mode"] = args.mode
            if args.time is not None:
                cfg["time"] = args.time
            if args.mu is not None:
                cfg["mu"] = args.mu
            cfg["n"] = args.n
            cfg["tau"] = args.tau
            dump_graph = args.dump_graph
        elif args.command == "levy":
            cfg["tau"] = args.tau
            cfg["K_max"] = args.k_max
            cfg["levy_horizon"] = args.horizon
            if args.grid_step:
                cfg["grid_step"] = args.grid_step
        elif args.command == "validate-degrees":
            cfg["n"] = args.n
            cfg["tau"] = args.tau
            cfg["lambda"] = args.lam
            dump_trace = args.dump_trace
        else:
            if args.n_grid:
                cfg["n_grid"] = [int(v) for v in args.n_grid.split(",")]
            if args.reps is not None:
                cfg["replicates"] = args.reps
            if args.tau is not None:
                cfg["tau"] = args.tau
            if args.command == "thm17" and args.mu is not None:
                cfg["mu"] = args.mu
    if "experiment" not in cfg:
        print("config error: no experiment selected", file=sys.stderr)
        return EXIT_CONFIG
    return _dispatch(cfg, dump_graph=dump_graph, dump_trace=dump_trace)


if __name__ == "__main__":
    sys.exit(main())
