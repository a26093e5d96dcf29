"""Correctness checks on the CLI outputs of one benchmark pass.

Each check returns a list of failure messages, empty when the output is
correct. The checks read only the files the CLI wrote, never the
program's in-memory state, and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The thm16 gate rejects the finite-n law at the largest n when its KS
# p-value against the simulated limit falls below this level. With 100
# finite-n against 500 limit replicates the desk-scale finite-size bias
# gave p-values down to about 2e-3 on seeds 1-9, and the benchmark's
# smaller sample rejects less readily; a broken sampler or component
# labelling gives a KS near 1 and a p-value far below this level.
THM16_ALPHA = 1e-6

# Relative tolerance of mass conservation: masses are written with 12
# significant digits.
MASS_RTOL = 1e-9


def walk_failures(t, X, Y, total_white: int, total_black: int) -> list[str]:
    """Exact identities of a stride-1 exploration walk."""
    fails = []
    if t.size == 0 or not np.array_equal(t, np.arange(t.size)):
        return ["trace rows are not the consecutive steps 0..steps"]
    steps = int(t[-1])
    # The walk moves down by at most 2 per step, so it cannot skip an even
    # level: the first time it reaches -2k or below it sits at -2k.
    record = np.minimum.accumulate(X)
    levels = np.arange(2, -int(record[-1]) + 1, 2)
    first = np.searchsorted(-record, levels, side="left")
    bad = np.flatnonzero(X[first] != -levels)
    if bad.size:
        k = int(levels[bad[0]] // 2)
        fails.append(f"X(tau_{k}) = {int(X[first[bad[0]]])}, expected {-2 * k}")
    if int(X[-1]) != total_white - 2 * steps:
        fails.append(f"X(final) = {int(X[-1])}, expected total_white - 2*steps = {total_white - 2 * steps}")
    if int(Y[-1]) != total_black:
        fails.append(f"Y(final) = {int(Y[-1])}, expected total black degree {total_black}")
    return fails


def check_walk(out_dir: Path) -> list[str]:
    """``validate-degrees --dump-trace 1``: trace.csv against degrees.csv."""
    trace = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    degrees = np.loadtxt(out_dir / "degrees.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    white, black = degrees.sum(axis=0)
    return walk_failures(trace[:, 0], trace[:, 1], trace[:, 2], int(white), int(black))


def mass_failures(masses: np.ndarray, x: np.ndarray, reps: int) -> list[str]:
    """Ordered MC2 masses: one row per replicate, each conserving sum(x)."""
    fails = []
    if masses.shape != (reps, x.size):
        return [f"masses have shape {masses.shape}, expected {(reps, x.size)}"]
    total = float(np.sum(x))
    err = np.abs(masses.sum(axis=1) - total)
    worst = int(np.argmax(err))
    if err[worst] > MASS_RTOL * max(1.0, total):
        fails.append(f"row {worst} sums to {masses[worst].sum()!r}, expected sum(x) = {total!r}")
    rising = np.flatnonzero(np.any(np.diff(masses, axis=1) > 0, axis=1))
    if rising.size:
        fails.append(f"row {int(rising[0])} is not non-increasing")
    return fails


def check_masses(out_dir: Path, x: np.ndarray, reps: int) -> list[str]:
    masses = np.loadtxt(out_dir / "mcmw_masses.csv", delimiter=",", ndmin=2)
    return mass_failures(masses, x, reps)


def _unit(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def report_failures(report: dict, n_grid: list[int], which: str) -> list[str]:
    """A record for every n with statistics and p-values in [0, 1], and
    for thm16 the KS gate at the largest n."""
    fails = []
    records = {rec.get("n"): rec for rec in report.get("records", [])}
    if sorted(records) != sorted(n_grid):
        fails.append(f"records cover n = {sorted(records)}, expected {sorted(n_grid)}")
    keys = ["statistic", "p_value"]
    if which == "thm16":
        keys += ["statistic_black", "p_value_black"]
    for n, rec in sorted(records.items()):
        for key in keys:
            if not _unit(rec.get(key)):
                fails.append(f"n={n}: {key} = {rec.get(key)!r} is not in [0, 1]")
    top = records.get(max(n_grid))
    if which == "thm16" and top is not None and _unit(top.get("p_value")):
        if top["p_value"] < THM16_ALPHA:
            fails.append(
                f"thm16 gate: KS {top['statistic']:.4f} at n={top['n']} rejects the limit law "
                f"(p = {top['p_value']:.3g} < {THM16_ALPHA:g})"
            )
    return fails


def check_report(out_dir: Path, n_grid: list[int], which: str) -> list[str]:
    report = json.loads((out_dir / f"{which}_report.json").read_text())
    fails = report_failures(report, n_grid, which)
    if not (out_dir / f"{which}_report.csv").is_file():
        fails.append(f"{which}_report.csv missing")
    return fails


def output_digest(out_dir: Path) -> str:
    """sha256 over the byte-compared outputs: every file but manifest.json."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
