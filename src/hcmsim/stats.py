"""KS machinery and the desk-scale convergence experiments.

The two theorem experiments compare rescaled finite-n component data
against simulated limit objects. No convergence rate is available, so the
acceptance signal is a trend: the KS statistic against the limit sample
should be non-increasing along the n-grid (checked on the pairwise
comparisons of the grid), with coupled seed streams across n to suppress
Monte Carlo noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import InvariantError, stream_gen, write_rows
from .degrees import (
    DEFAULT_BULK_WHITE,
    build_degree_sequence,
    make_limit_parameters,
    make_scaling,
    tune_to_criticality,
)
from .dynamics import run_dynamic
from .excursions import gamma_down, pad_rows
from .graphs import component_table, sample_white_matching
from .levy import exploration_limit_params, limit_pairs_batch, sample_thinned_levy
from .coalescent import mcmw_batch, mcmw_graphical


def _check_ks_sizes(*sizes):
    if min(sizes) < 10:
        raise ValueError("need at least 10 samples per side")


def ks_two_sample(a, b):
    """Two-sample KS statistic d, bit for bit as scipy's ``ks_2samp`` computes
    it, and Stephens' (1970) p-value: the Kolmogorov survival function at
    (sqrt(Ne) + 0.12 + 0.11 / sqrt(Ne)) d, Ne = n1 n2 / (n1 + n2). (scipy's
    ``method="asymp"`` evaluates the finite-n ``kstwo`` law at round(Ne).)"""
    # imported here, as only the theorem experiments run a KS test
    from scipy.special import kolmogorov

    a, b = np.sort(a), np.sort(b)
    _check_ks_sizes(a.size, b.size)
    pooled = np.concatenate((a, b))
    if not np.isfinite(pooled).all():
        raise InvariantError("a KS sample holds a non-finite value")
    diff = np.searchsorted(a, pooled, side="right") / a.size - np.searchsorted(b, pooled, side="right") / b.size
    d = float(max(diff.max(), np.clip(-diff.min(), 0, 1)))
    root = np.sqrt(a.size * b.size / (a.size + b.size))
    return d, float(kolmogorov((root + 0.12 + 0.11 / root) * d))


_STREAM_FIELD = 2**22  # n and r each get 22 bits of the stream index (_sidx)


@dataclass
class ExperimentConfig:
    n_grid: list = field(default_factory=lambda: [1000, 10000, 100000])
    tau: float = 3.5
    L: float = 1.0
    lam: float = 0.0
    mu: float = 1.0
    replicates: int = 400
    replicates_by_n: dict | None = None
    limit_replicates: int = 1500
    master_seed: int = 2024
    K_max: int = 15
    top_j: int = 20
    levy_horizon: float = 24.0
    threads: int = 1

    def __post_init__(self):
        self.n_grid = sorted(int(n) for n in self.n_grid)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.limit_replicates < 1:
            raise ValueError("limit_replicates must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.top_j < 1:
            raise ValueError("top_j must be >= 1")
        if not 0 < self.levy_horizon < np.inf:
            raise ValueError(f"levy_horizon must be finite and > 0, got {self.levy_horizon}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        # every (n, replicate) pair must map to its own RNG stream (_sidx)
        if not all(0 <= n < _STREAM_FIELD for n in self.n_grid):
            raise ValueError(f"n_grid entries must lie in [0, {_STREAM_FIELD})")
        counts = [self.replicates, self.limit_replicates, *(self.replicates_by_n or {}).values()]
        if any(int(c) > _STREAM_FIELD for c in counts):
            raise ValueError(f"replicate counts must not exceed {_STREAM_FIELD}")

    def reps_for(self, n: int) -> int:
        if self.replicates_by_n and n in self.replicates_by_n:
            return int(self.replicates_by_n[n])
        return self.replicates


def _sidx(code: int, n: int, r: int = 0) -> int:
    """Stable stream index: results depend only on (code, n, r), never on
    worker scheduling or interpreter hash salts. Distinct triples give
    distinct indices because n and r are checked to fit their fields."""
    if not (0 <= n < _STREAM_FIELD and 0 <= r < _STREAM_FIELD):
        raise ValueError(f"stream index fields n={n}, r={r} must lie in [0, {_STREAM_FIELD})")
    return (code * _STREAM_FIELD + n) * _STREAM_FIELD + r


# Stream codes of _sidx(code, n, r): 1 the degree sequence of n (r = 0),
# 2/3 the finite replicates of thm16/thm17, one stream per (n, r), run
# through _replicates. The limit codes, 4/5 the hub clocks of thm16/thm17
# and 6 thm17's limit MC2, have one stream each (n = r = 0), and limit
# replicate r is row r of its one draw.
def _replicates(config: ExperimentConfig, code: int, n: int, count: int, fn) -> list:
    """``[fn(rng) for r in range(count)]`` with ``rng`` the stream
    (code, n, r), mapped over ``config.threads`` worker threads."""

    def one(r):
        return fn(stream_gen(config.master_seed, _sidx(code, n, r)))

    if config.threads <= 1:
        return [one(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(one, range(count)))


def build_critical_sequence(config: ExperimentConfig, n: int, rng: np.random.Generator | None = None):
    """The tuned critical degree sequence of size n; ``rng`` defaults
    to the theorem experiments' stream for n."""
    if rng is None:
        rng = stream_gen(config.master_seed, _sidx(1, n))
    scaling = make_scaling(n, config.tau, config.L)
    limits = make_limit_parameters(config.tau, config.K_max, lam=config.lam)
    seq = build_degree_sequence(scaling, limits, hub_count=config.K_max, bulk_law=DEFAULT_BULK_WHITE, rng=rng)
    return tune_to_criticality(seq, config.lam)


def sample_limit_pairs(config: ExperimentConfig, code: int = 4):
    """``config.limit_replicates`` replicates of the ordered limit vector
    Gamma(X, Y), one row each, on the stream (code, 0, 0).

    Replicate r's hub clocks are row r of one (R, K) draw from that stream,
    and ``levy.limit_pairs_batch`` computes all rows together. Replicate 0
    is computed once more through the paths (``sample_thinned_levy`` on the
    same stream, and ``gamma_down``), and the two must agree bit for bit."""
    params = exploration_limit_params(make_limit_parameters(config.tau, config.K_max, lam=config.lam))
    T, R = config.levy_horizon, config.limit_replicates
    xi = stream_gen(config.master_seed, _sidx(code, 0)).exponential(1.0 / params.theta, size=(R, params.theta.size))
    rows = limit_pairs_batch(params, T, xi, config.top_j)
    real = sample_thinned_levy(params, T, stream_gen(config.master_seed, _sidx(code, 0)))
    if _pad_pairs(gamma_down(real.X_path, real.Y_path), config.top_j).tobytes() != rows[0].tobytes():
        raise InvariantError("limit replicate 0: the array pass and the path form disagree")
    return rows


def _pad_pairs(pairs: np.ndarray, top_j: int):
    return pad_rows(np.zeros(pairs.shape[0], int), pairs, 1, top_j)[0]


def trend_non_increasing(stats_by_n: dict) -> dict:
    """Pairwise comparisons of the KS statistic along the grid."""
    comparisons = [
        {"n_small": a, "n_large": b, "ok": bool(stats_by_n[b] <= stats_by_n[a] + 1e-12)}
        for a, b in combinations(sorted(stats_by_n), 2)
    ]
    passed = sum(c["ok"] for c in comparisons)
    return {"comparisons": comparisons, "passed": passed, "required": 2, "ok": passed >= 2}


def _grid_report(config: ExperimentConfig, experiment: str, code: int, replicate, record) -> dict:
    """Run ``replicate(seq, rng)`` on the streams of ``code`` for every n of
    the grid; ``record`` turns the array of its rows into the fields of the
    record of n, whose ``statistic`` enters the trend."""
    records = []
    for n in config.n_grid:
        seq = build_critical_sequence(config, n)
        rows = np.array(_replicates(config, code, n, config.reps_for(n), lambda rng: replicate(seq, rng)))
        records.append({"experiment": experiment, "n": n, **record(rows), "seed": config.master_seed})
    size_stats = {rec["n"]: rec["statistic"] for rec in records}
    return {"records": records, "trend": trend_non_increasing(size_stats), "size_stats": size_stats}


def theorem_1_6_experiment(config: ExperimentConfig) -> dict:
    """Rescaled (size, black half-edge) pairs of G_n(0) against Gamma(X, Y)."""
    _check_ks_sizes(config.limit_replicates, *map(config.reps_for, config.n_grid))
    limit = sample_limit_pairs(config)

    def replicate(seq, rng):
        sizes, blacks, *_ = component_table(sample_white_matching(seq, rng))
        b_n = seq.scaling.b_n
        return _pad_pairs(np.column_stack((sizes / b_n, blacks / b_n)), config.top_j)

    def record(data):
        ks_size, p_size = ks_two_sample(data[:, 0], limit[:, 0])
        ks_black, p_black = ks_two_sample(data[:, 1], limit[:, 1])
        return {
            "statistic": ks_size,
            "p_value": p_size,
            "statistic_black": ks_black,
            "p_value_black": p_black,
            "tail_mass": float(np.mean(data[:, -1])),
            "limit_tail_mass": float(np.mean(limit[:, -1])),
        }

    return _grid_report(config, "thm16", 2, replicate, record)


def percolation_time(seq, mu: float) -> float:
    """Theorem 1.7's percolation time s = mu gamma_n / c_n, where gamma_n is
    the mean black degree of ``seq``."""
    return mu * (seq.total_black / seq.n) / seq.scaling.c_n


def theorem_1_7_experiment(config: ExperimentConfig) -> dict:
    """Percolated component sizes at s = mu gamma_n / c_n against MC2(Gamma(X,Y), mu)."""
    _check_ks_sizes(config.limit_replicates, *map(config.reps_for, config.n_grid))
    limit = sample_limit_pairs(config, 5)
    # the blocks of replicate r are its pairs of positive length; its other
    # pairs of the top_j row get weight 0 as well, so they stay inert
    x = limit[:, :-1:2]
    y = np.where(x > 0, limit[:, 1:-1:2], 0.0)
    masses = mcmw_batch(x, y, config.mu, x.shape[0], stream_gen(config.master_seed, _sidx(6, 0)))
    # replicate r once more on its own graph, from row r of the same draw: the
    # first whose masses depend on its edges, as it merged a pair and still
    # ended in two or more blocks (row 0 if none did)
    blocks = np.count_nonzero(masses, axis=1)
    r = int(np.argmax((blocks >= 2) & (blocks < np.count_nonzero(x, axis=1))))
    rng = stream_gen(config.master_seed, _sidx(6, 0))
    rng.random((r, x.shape[1] * (x.shape[1] - 1) // 2))  # rows 0 .. r-1
    own, _ = mcmw_graphical(x[r], y[r], config.mu, rng)
    if np.pad(own, (0, x.shape[1] - own.size)).tobytes() != masses[r].tobytes():
        raise InvariantError(f"limit replicate {r}: the MC2 batch and mcmw_graphical disagree")

    def replicate(seq, rng):
        sizes = run_dynamic(sample_white_matching(seq, rng), percolation_time(seq, config.mu), rng).component_sizes()
        b_n = seq.scaling.b_n
        return sizes[0] / b_n, sizes[0] / seq.n, float(np.sum((sizes[config.top_j :] / b_n) ** 2))

    def record(rows):
        ks, p = ks_two_sample(rows[:, 0], masses[:, 0])
        return {
            "statistic": ks,
            "p_value": p,
            "tail_mass": float(np.mean(rows[:, 2])),
            "largest_over_bn_mean": float(np.mean(rows[:, 0])),
            "giant_fraction": float(np.mean(rows[:, 1])),
            "limit_largest_mean": float(np.mean(masses[:, 0])),
        }

    report = _grid_report(config, "thm17", 3, replicate, record)
    # at desk scale the KS statistic saturates at 1: the finite bulk keeps a
    # hub-free l2 mass that grows with n while the limit's is 0 (README,
    # "Desk-scale convergence notes"); the giant fraction then falls only
    # because largest/b_n grows slower than n/b_n.
    fractions = [rec["giant_fraction"] for rec in report["records"]]
    report["ks_saturated"] = all(s >= 0.999 for s in report["size_stats"].values())
    report["giant_fraction_decreasing"] = bool(all(b < a for a, b in zip(fractions, fractions[1:])))
    return report


def write_report_csv(records: list, path):
    cols = ["experiment", "n", "statistic", "p_value", "tail_mass", "seed"]
    columns = [np.array([rec[c] for rec in records], dtype=object) for c in cols]
    write_rows(path, ",".join(["{}"] * len(cols)) + "\r\n", columns, header=",".join(cols) + "\r\n")
