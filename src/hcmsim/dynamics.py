"""Event-driven percolation of the black half-edges.

The dynamic process pairs two distinct unpaired black half-edges at rate
Q(t) (the number of pairs still to form), so that the graph at time s has
each black edge of a uniform matching retained with probability 1-e^{-s}.
Its events up to s are drawn directly, in O(events).
The modified process keeps its half-edges: events arrive at the constant
rate Q(0) and each inserts an extra edge between the owners of a uniform
half-edge pair, which makes the ordered component sizes a multiplicative
coalescent with mass and weight run at time s/(2Q(0)-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvariantError, as_generator, write_rows
from .coalescent import BlockSystem
from .graphs import ColoredMultigraph, component_table, merged_sizes


def _black_half_edges(g: ColoredMultigraph, s_max: float) -> int:
    """Number of black half-edges, once the horizon and their parity are checked."""
    if not 0.0 <= s_max < np.inf:
        raise ValueError(f"percolation time must be finite and >= 0, got {s_max}")
    n_he = g.seq.total_black
    if n_he % 2:
        raise ValueError("black parity violated")
    return n_he


EVENT_DTYPE = np.dtype([("time", np.float64), ("a", np.int64), ("b", np.int64)])


def _event_table(times, a, b) -> np.ndarray:
    log = np.empty(len(times), dtype=EVENT_DTYPE)
    log["time"], log["a"], log["b"] = times, a, b
    return log


def _check_partial_matching(log: np.ndarray):
    he = np.sort(np.concatenate((log["a"], log["b"])))
    if np.any(he[1:] == he[:-1]):
        raise InvariantError("a black half-edge was paired twice")


@dataclass
class PercolationState:
    graph: ColoredMultigraph
    q0: int
    event_log: np.ndarray  # EVENT_DTYPE rows (time, half-edge a, half-edge b) in time order

    def event_vertex_pairs(self) -> np.ndarray:
        owner = self.graph.seq.black_owner
        return np.column_stack((owner[self.event_log["a"]], owner[self.event_log["b"]]))

    def component_sizes(self) -> np.ndarray:
        """Component sizes, largest first, of G_n(0) plus the event edges."""
        return merged_sizes(self.graph, *self.event_vertex_pairs().T)


def run_dynamic(g: ColoredMultigraph, s_max: float, rng_seed) -> PercolationState:
    """Algorithm: at each event of a rate-Q(t) clock, pair two distinct
    uniformly chosen unpaired black half-edges.

    The clock is the order statistics of Q(0) i.i.d. Exp(1) lifetimes, so
    the count is K ~ Binomial(Q(0), 1-e^{-s_max}); given K, the times are
    sorted Exp(1) draws truncated to [0, s_max]; independent of both, the
    picks are a uniform ordered sample of 2K half-edges without
    replacement, paired consecutively.
    """
    rng = as_generator(rng_seed)
    n_he = _black_half_edges(g, s_max)
    q0 = n_he // 2
    k = rng.binomial(q0, -np.expm1(-s_max))
    times = np.sort(-np.log1p(rng.random(k) * np.expm1(-s_max)))
    picked = rng.choice(n_he, 2 * k, replace=False)  # shuffled: the pair order matters
    log = _event_table(times, picked[0::2], picked[1::2])
    _check_partial_matching(log)
    return PercolationState(g, q0, log)


def run_modified(g: ColoredMultigraph, s_max: float, rng_seed) -> PercolationState:
    """Constant rate Q(0); the chosen half-edges remain available."""
    rng = as_generator(rng_seed)
    n_he = _black_half_edges(g, s_max)
    q0 = n_he // 2
    n_events = rng.poisson(q0 * s_max)
    times = np.sort(rng.random(n_events) * s_max)
    pairs = rng.integers(0, np.tile([n_he, n_he - 1], n_events)).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    b += b >= a  # b is uniform over the half-edges other than a
    return PercolationState(g, q0, _event_table(times, a, b))


@dataclass
class CoupledPair:
    dynamic: PercolationState
    modified: PercolationState


def run_coupled(g: ColoredMultigraph, s_max: float, rng_seed) -> CoupledPair:
    """Thinning coupling: modified events are generated first and the
    dynamic component accepts one exactly when both half-edges are still
    unpaired, so its edge set is a subset of the modified edge set at
    every time."""
    rng = as_generator(rng_seed)
    modified = run_modified(g, s_max, rng)
    mod_log = modified.event_log
    used: set[int] = set()
    keep = []
    for k, (a, b) in enumerate(zip(mod_log["a"].tolist(), mod_log["b"].tolist())):
        if a not in used and b not in used:
            used.update((a, b))
            keep.append(k)
    keep = np.array(keep, dtype=np.int64)
    if keep.size and (np.any(np.diff(keep) <= 0) or keep[0] < 0 or keep[-1] >= len(mod_log)):
        raise InvariantError("dynamic edge set escaped the modified edge set")
    dyn_log = mod_log[keep]
    _check_partial_matching(dyn_log)
    return CoupledPair(dynamic=PercolationState(g, modified.q0, dyn_log), modified=modified)


def q_trajectory_check(
    g: ColoredMultigraph,
    T: float,
    replicates: int,
    rng_seed,
    delta_exponent: float = 0.4,
    t_mean_check: float = 1.0,
) -> dict:
    """Deviation of Q(t)/n from the pure-death ODE solution (Q(0)/n) e^{-t}.

    Records sup_{t <= T/c_n} |Q(t)/n - (Q(0)/n) e^{-t}| per replicate and
    the exceedance rate of delta_n = n^{-delta_exponent}, to compare with
    the bound 2 gamma T / (delta_n^2 n c_n). Also reports the mean of
    Q(t)/n at ``t_mean_check`` against its exact value. All replicates are
    held at once: memory is O(replicates * Q(0)).
    """
    if replicates < 100:
        raise ValueError("trajectory check needs at least 1e2 replicates")
    rng = as_generator(rng_seed)
    n = g.n
    q0 = g.seq.total_black // 2
    c_n = g.seq.scaling.c_n
    gamma = g.seq.total_black / n
    horizon_sup = T / c_n
    delta_n = n ** (-delta_exponent)
    # one row of pairing-clock event times per replicate, drawn as the
    # successive waiting times of the pure-death chain (rates Q0, Q0-1, ...)
    rates = np.arange(q0, 0, -1, dtype=float)
    times = np.cumsum(rng.exponential(1.0 / rates, size=(replicates, q0)), axis=1)
    # Q/n is constant between events and the ODE curve is monotone, so the
    # sup is attained at event times (just before/after) or the endpoints.
    k = np.sum(times <= horizon_sup, axis=1)
    j = np.arange(1, q0 + 1)
    f = q0 * np.exp(-times)
    dev = np.maximum(np.abs(q0 - (j - 1) - f), np.abs(q0 - j - f)) / n
    at_events = np.where(j <= k[:, None], dev, 0.0).max(axis=1, initial=0.0)
    sups = np.maximum(at_events, np.abs(q0 - k - q0 * np.exp(-horizon_sup)) / n)
    q_at_t = (q0 - np.sum(times <= t_mean_check, axis=1)) / n
    exceed = float(np.mean(sups > delta_n))
    bound = 2.0 * gamma * T / (delta_n**2 * n * c_n)
    se_exceed = float(np.sqrt(max(exceed * (1 - exceed), 1.0 / replicates) / replicates))
    mean_target = q0 * np.exp(-t_mean_check) / n
    sd = float(np.std(q_at_t, ddof=1))
    return {
        "sup_deviation_mean": float(np.mean(sups)),
        "delta_n": delta_n,
        "exceedance_rate": exceed,
        "exceedance_bound": bound,
        "exceedance_stderr": se_exceed,
        "exceedance_ok": bool(exceed <= bound + 4 * se_exceed),
        "mean_q_at_t": float(np.mean(q_at_t)),
        "mean_q_target": float(mean_target),
        "mean_q_sd": sd,
        "mean_ok": bool(abs(np.mean(q_at_t) - mean_target) <= 3 * sd / np.sqrt(replicates)),
    }


def edge_probability_estimate(
    g: ColoredMultigraph,
    component_i: np.ndarray,
    component_j: np.ndarray,
    s: float,
    replicates: int,
    rng_seed,
) -> float:
    """Monte Carlo frequency that a black edge joins the two components by
    time s*gamma_n/c_n in the dynamic process, given the initial graph."""
    in_i = np.zeros(g.n, dtype=bool)
    in_j = np.zeros(g.n, dtype=bool)
    in_i[np.asarray(component_i, dtype=np.int64)] = True
    in_j[np.asarray(component_j, dtype=np.int64)] = True
    if np.any(in_i & in_j):
        raise ValueError("components must be disjoint")
    rng = as_generator(rng_seed)
    gamma_n = g.seq.total_black / g.n
    horizon = s * gamma_n / g.seq.scaling.c_n
    hits = 0
    for _ in range(replicates):
        u, v = run_dynamic(g, horizon, rng).event_vertex_pairs().T
        hits += bool(np.any((in_i[u] & in_j[v]) | (in_j[u] & in_i[v])))
    return hits / replicates


def modified_block_view(g: ColoredMultigraph) -> BlockSystem:
    """Initial blocks of the modified process: one block per component of
    G_n(0) with mass = size and weight = incident black half-edges."""
    sizes, blacks, *_ = component_table(g)
    return BlockSystem(sizes.astype(float), blacks.astype(float))


def write_event_csv(state: PercolationState, path):
    log = state.event_log
    write_rows(path, "{:.12g},{},{}\r\n", (log["time"], log["a"], log["b"]), header="time,half_edge_a,half_edge_b\r\n")
