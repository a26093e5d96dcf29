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

from .core import InvariantError, write_rows
from .graphs import ColoredMultigraph, merged_sizes


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


def run_dynamic(g: ColoredMultigraph, s_max: float, rng: np.random.Generator) -> PercolationState:
    """Algorithm: at each event of a rate-Q(t) clock, pair two distinct
    uniformly chosen unpaired black half-edges.

    The clock is the order statistics of Q(0) i.i.d. Exp(1) lifetimes, so
    the count is K ~ Binomial(Q(0), 1-e^{-s_max}); given K, the times are
    sorted Exp(1) draws truncated to [0, s_max]; independent of both, the
    picks are a uniform ordered sample of 2K half-edges without
    replacement, paired consecutively.
    """
    n_he = _black_half_edges(g, s_max)
    q0 = n_he // 2
    k = rng.binomial(q0, -np.expm1(-s_max))
    times = np.sort(-np.log1p(rng.random(k) * np.expm1(-s_max)))
    picked = rng.choice(n_he, 2 * k, replace=False)  # shuffled: the pair order matters
    log = _event_table(times, picked[0::2], picked[1::2])
    _check_partial_matching(log)
    return PercolationState(g, q0, log)


def run_modified(g: ColoredMultigraph, s_max: float, rng: np.random.Generator) -> PercolationState:
    """Constant rate Q(0); the chosen half-edges remain available."""
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


def run_coupled(g: ColoredMultigraph, s_max: float, rng: np.random.Generator) -> CoupledPair:
    """Thinning coupling: modified events are generated first and the
    dynamic component accepts one exactly when both half-edges are still
    unpaired, so its edge set is a subset of the modified edge set at
    every time."""
    modified = run_modified(g, s_max, rng)
    mod_log = modified.event_log
    used: set[int] = set()
    keep = []
    for k, (a, b) in enumerate(zip(mod_log["a"].tolist(), mod_log["b"].tolist())):
        if a not in used and b not in used:
            used.update((a, b))
            keep.append(k)
    dyn_log = mod_log[np.array(keep, dtype=np.int64)]
    _check_partial_matching(dyn_log)
    return CoupledPair(dynamic=PercolationState(g, modified.q0, dyn_log), modified=modified)


def write_event_csv(state: PercolationState, path):
    log = state.event_log
    write_rows(path, "{:.12g},{},{}\r\n", (log["time"], log["a"], log["b"]), header="time,half_edge_a,half_edge_b\r\n")
