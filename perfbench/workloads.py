"""The benchmark's workloads: CLI invocations generated from a seed.

Every workload is a fixed list of ``hcmsim`` command lines (one pass),
plus a small warm-up invocation and a correctness check per output
directory. The sizes are reduced from the acceptance (C12) settings so
that one pass takes about 1 s on a 2-core machine and a run of the
benchmark repeats it some twenty times: on a shared machine the speed of
one pass varies by tens of percent, and only a statistic over many
passes is steady.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_GRID = [1000, 10000, 100000]

WORKLOADS = ("thm16_grid", "thm17_grid", "mc2_blocks", "walk_trace")


def import_program():
    """Import hcmsim from the ``src/`` of this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hcmsim.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hcmsim from {SRC}: {exc}") from None
    if not Path(hcmsim.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hcmsim was imported from {hcmsim.cli.__file__}, not {SRC}")
    return hcmsim.cli


@dataclass
class Invocation:
    argv: list[str]  # CLI arguments; the runner appends --out-dir
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    name: str
    warmup: Invocation
    invocations: list[Invocation]
    calibration: dict[str, int]  # the reference kernel's parts (calibrate.py)
    notes: Callable[[Path], str] | None = None  # reported, never gated


def _thm(cfg: Path, which: str, seed: int, **keys) -> Invocation:
    """One ``--config`` run; the experiment's size keys have no CLI flags."""
    text = f"experiment = {which}\nmaster_seed = {seed}\n"
    cfg.write_text(text + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    n_grid = [int(n) for n in str(keys["n_grid"]).split(",")]
    return Invocation(["--config", str(cfg)], partial(checks.check_report, n_grid=n_grid, which=which))


def thm16_grid(seed: int, work: Path) -> Workload:
    common = dict(K_max=15, levy_horizon=40, threads=1)
    return Workload(
        "thm16_grid",
        warmup=_thm(work / "warmup.cfg", "thm16", seed, n_grid="1000", replicates=20, limit_replicates=20, **common),
        invocations=[_thm(work / "pass.cfg", "thm16", seed, n_grid=",".join(map(str, N_GRID)),
                          replicates=50, limit_replicates=250, **common)],
        calibration={"graph": 4, "walk": 1},
    )


def _thm17_notes(out_dir: Path) -> str:
    import json

    report = json.loads((out_dir / "thm17_report.json").read_text())
    # Reported as the program states them: at desk scale the KS saturates at
    # 1.0 and the trend check then passes vacuously (a known defect).
    return f"ks_saturated={report['ks_saturated']} trend.ok={report['trend']['ok']}"


def thm17_grid(seed: int, work: Path, threads: int = 2) -> Workload:
    common = dict(K_max=15, levy_horizon=40, mu=1, threads=threads)
    return Workload(
        "thm17_grid",
        warmup=_thm(work / "warmup.cfg", "thm17", seed, n_grid="1000", replicates=20, limit_replicates=20, **common),
        invocations=[_thm(work / "pass.cfg", "thm17", seed, n_grid=",".join(map(str, N_GRID)),
                          replicates=10, limit_replicates=150, **common)],
        calibration={"graph": 3, "walk": 1},
        notes=_thm17_notes,
    )


def critical_blocks(seed: int, n: int = 100_000):
    """(size, black)/b_n of the components of one G_n(0), largest first."""
    from hcmsim.core import stream_gen
    from hcmsim.graphs import component_table, sample_white_matching
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    seq = build_critical_sequence(ExperimentConfig(master_seed=seed), n)
    g = sample_white_matching(seq, stream_gen(seed, 2))
    sizes, blacks, *_ = component_table(g)
    b_n = seq.scaling.b_n
    return sizes / b_n, blacks / b_n


def _mcmw(x, y, m: int, reps: int, t: float, coupling: str, seed: int) -> Invocation:
    xs, ys = x[:m], y[:m]
    argv = [
        "--seed", str(seed), "mcmw",
        "--masses", ",".join(repr(float(v)) for v in xs),
        "--weights", ",".join(repr(float(v)) for v in ys),
        "--time", repr(t), "--reps", str(reps), "--coupling", coupling,
    ]
    return Invocation(argv, partial(checks.check_masses, x=xs, reps=reps))


def mc2_blocks(seed: int, work: Path) -> Workload:
    x, y = critical_blocks(seed)
    # few large systems, two mid-size ones with and without the xi-coupling,
    # and many tiny ones, so both per-system cost and per-call overhead show
    return Workload(
        "mc2_blocks",
        warmup=_mcmw(x, y, 3, 1000, 1.0, "none", seed),
        invocations=[
            _mcmw(x, y, 250, 8, 1.0, "none", seed),
            _mcmw(x, y, 100, 20, 0.25, "none", seed),
            _mcmw(x, y, 100, 20, 1.0, "xi", seed),
            _mcmw(x, y, 3, 30_000, 1.0, "none", seed),
        ],
        calibration={"graph": 1, "walk": 1, "closure": 2},
    )


def _walk(n: int, seed: int) -> Invocation:
    argv = ["--seed", str(seed), "validate-degrees", "--n", str(n), "--dump-trace", "1"]
    return Invocation(argv, checks.check_walk)


def walk_trace(seed: int, work: Path) -> Workload:
    # mostly large walks, plus a batch of small ones whose cost is dominated
    # by per-call overhead
    base = seed * 1000
    return Workload(
        "walk_trace",
        warmup=_walk(1000, base + 999),
        invocations=[_walk(100_000, base)] + [_walk(1000, base + 100 + i) for i in range(15)],
        calibration={"graph": 1, "walk": 2},
    )


def make(name: str, seed: int, work: Path) -> Workload:
    builders = {"thm16_grid": thm16_grid, "thm17_grid": thm17_grid,
                "mc2_blocks": mc2_blocks, "walk_trace": walk_trace}
    work.mkdir(parents=True, exist_ok=True)
    return builders[name](seed, work)
