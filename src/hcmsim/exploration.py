"""Breadth-first exploration of the white graph and its walk encoding.

Components are explored one after another. Their order and seeds come
from one uniform permutation of the white half-edges: components appear
in the order of their first half-edge in it, and the owner of that
half-edge is the seed. The next component is thus drawn proportional to
its white half-edges among those left and its seed proportional to white
degree (the size-biased order). Within a component, vertices are
discovered breadth-first from the seed, each vertex's children in the
order of its half-edges.

A component takes one seed step, which discovers the seed, and then one
step per white edge. Edges are stepped in order of the endpoint that
comes first by (discovery rank, half-edge index); a step discovers the
partner's owner if it is new and is a surplus step otherwise. The walks
are

    X(t) = -2t + sum_i d_i^w 1[eta_i <= t]
    Y(t) =        sum_i d_i^b 1[eta_i <= t]
    N(t) = #{s <= t : X(s) = X(s-1) - 2}   (surplus edges)

and the k-th component satisfies, with tau(k) = min{t : X(t) = -2k},

    edges = tau(k) - tau(k-1) - 1
    black = Y(tau(k)) - Y(tau(k-1))
    size  = tau(k) - tau(k-1) - (N(tau(k)) - N(tau(k-1))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .core import InvariantError, as_generator, write_rows
from .degrees import ScalingConstants
from .graphs import ColoredMultigraph, csr_adjacency
from .paths import CadlagPath


@dataclass
class DiscoveredComponent:
    ordinal: int
    edge_count: int
    size: int
    black_half_edges: int
    surplus: int


@dataclass
class ExplorationTrace:
    X: np.ndarray  # X[t], t = 0..steps
    Y: np.ndarray
    N: np.ndarray
    eta: np.ndarray  # discovery step per vertex
    tau: np.ndarray  # hitting times of -2k, k = 1..#components
    order: np.ndarray  # vertices in order of discovery

    @property
    def steps(self) -> int:
        return self.X.size - 1

    def components(self) -> list[DiscoveredComponent]:
        out = []
        prev = 0
        for k, t in enumerate(self.tau, start=1):
            dN = int(self.N[t] - self.N[prev])
            out.append(
                DiscoveredComponent(
                    ordinal=k,
                    edge_count=int(t - prev - 1),
                    size=int(t - prev - dN),
                    black_half_edges=int(self.Y[t] - self.Y[prev]),
                    surplus=dN,
                )
            )
            prev = t
        return out

    def vertex_time_walks(self, linear: bool = False):
        """Walks with surplus steps removed, plus the re-indexed hitting times.

        In vertex time each component occupies exactly ``size`` ticks, so
        the hitting-time spacings reproduce component sizes and the Y
        increments reproduce black half-edge counts.
        """
        keep = np.ones(self.X.size, dtype=bool)
        keep[1:] = np.diff(self.N) == 0
        Xv, Yv = self.X[keep], self.Y[keep]
        tau_v = self.tau - self.N[self.tau]
        make = CadlagPath.piecewise_linear if linear else CadlagPath.step_function
        if linear:
            t = np.arange(Xv.size, dtype=float)
            return make(t, Xv), make(t, Yv), tau_v
        return make(Xv), make(Yv), tau_v


def explore(g: ColoredMultigraph, rng_seed) -> ExplorationTrace:
    """Run the exploration, following the sampled white matching."""
    return _walk(g, _seed_order(g, as_generator(rng_seed)))


def _seed_order(g: ColoredMultigraph, rng) -> np.ndarray:
    """Seed vertices, one per component, in order of each component's first
    half-edge in one uniform permutation of the white half-edges; the seed
    owns that half-edge."""
    owner = g.seq.white_owner
    perm = rng.permutation(owner.size)
    first = np.full(g.blocks.size.size, owner.size)
    np.minimum.at(first, g.blocks.label[owner[perm]], np.arange(owner.size))
    return owner[perm[np.sort(first[first < owner.size])]]


def _walk(g: ColoredMultigraph, seeds: np.ndarray) -> ExplorationTrace:
    """The walk of the exploration that starts its components at ``seeds``."""
    seq = g.seq
    order = _discovery_order(g, seeds)
    edges = g.blocks.edges[g.blocks.label[seeds]]
    tau = np.cumsum(1 + edges)
    # steps that discover a vertex: each seed step, just before its
    # component's edge steps, and the edge steps that reach a new vertex
    discovery = np.ones(int(tau[-1]), dtype=bool)
    edge = discovery.copy()
    edge[tau - 1 - edges] = False
    discovery[edge] = _discovery_edge_steps(g, order)
    X = np.zeros(discovery.size + 1, dtype=np.int64)
    X[1:] = -2
    X[1:][discovery] += seq.white[order]
    Y = np.zeros_like(X)
    Y[1:][discovery] = seq.black[order]
    N = np.zeros_like(X)
    N[1:] = ~discovery
    eta = np.full(seq.n, -1, dtype=np.int64)
    eta[order] = np.flatnonzero(discovery) + 1
    for walk in (X, Y, N):
        np.cumsum(walk, out=walk)
    trace = ExplorationTrace(X=X, Y=Y, N=N, eta=eta, tau=tau, order=order)
    if np.any(np.minimum.accumulate(trace.X)[tau - 1] <= trace.X[tau]):
        raise InvariantError("walk hit a new minimum mid-component")
    _assert_trace(trace, seq)
    return trace


def _discovery_order(g: ColoredMultigraph, seeds: np.ndarray) -> np.ndarray:
    """Vertices in order of discovery: a breadth-first search from a virtual
    root whose children are the seeds, grouped by component in seed order.

    Row v of the search graph lists the owners of the partners of v's
    half-edges in half-edge order, so children are found in the order the
    exploration pairs half-edges.
    """
    n = g.n
    adj = csr_adjacency(np.append(g.seq.white, seeds.size), np.concatenate((g.seq.white_owner[g.white_match], seeds)))
    found = breadth_first_order(adj, n, directed=True, return_predecessors=False)[1:]
    labels = g.blocks.label
    rank = np.zeros(g.blocks.size.size, dtype=np.int32)
    rank[labels[seeds]] = np.arange(seeds.size, dtype=np.int32)
    return found[np.argsort(rank[labels[found]], kind="stable")]


def _discovery_edge_steps(g: ColoredMultigraph, order: np.ndarray) -> np.ndarray:
    """Which edge steps, in step order, discover a vertex.

    Lay the half-edges out vertex block by vertex block in discovery order.
    An edge is stepped from whichever of its half-edges comes first, so the
    edge steps are the half-edges before their partners, in layout order. A
    vertex is discovered by the earliest step into it from an earlier
    block, which is the least partner position in its block unless that
    lies in the block itself (a seed).
    """
    d = g.seq.white[order]
    n_half = g.seq.white_owner.size
    starts = np.zeros(order.size, dtype=np.int64)
    np.cumsum(d[:-1], out=starts[1:])
    first_half_edge = np.cumsum(g.seq.white) - g.seq.white
    layout = np.repeat(first_half_edge[order] - starts, d) + np.arange(n_half)
    position = np.empty(n_half, dtype=np.int32)
    position[layout] = np.arange(n_half, dtype=np.int32)
    partner = position[g.white_match[layout]]
    into = np.minimum.reduceat(partner, starts)
    discovers = np.zeros(n_half, dtype=bool)
    discovers[into[into < starts]] = True
    return discovers[partner > np.arange(n_half)]


def _assert_trace(tr: ExplorationTrace, seq):
    if tr.X[-1] != seq.total_white - 2 * tr.steps:
        raise InvariantError("X(final) != total white degree - 2 * steps")
    if tr.Y[-1] != seq.total_black:
        raise InvariantError("Y(final) != total black degree")
    dX = np.diff(tr.X)
    if np.any((np.diff(tr.N) == 1) != (dX == -2)):
        raise InvariantError("surplus counter out of sync with -2 steps")
    if np.any(tr.X[tr.tau] != -2 * np.arange(1, tr.tau.size + 1)):
        raise InvariantError("X(tau_k) != -2k")


def rescale_trace(tr: ExplorationTrace, scaling: ScalingConstants, T: float | None = None):
    """Paths t -> (X(b_n t)/a_n, Y(b_n t)/b_n, N(b_n t)) on [0, T]."""
    max_T = tr.steps / scaling.b_n
    if T is None:
        T = max_T
    if T > max_T + 1e-12:
        raise ValueError(f"T={T} beyond trace horizon {max_T}")
    kmax = min(int(np.floor(T * scaling.b_n)), tr.steps)
    times = np.arange(kmax + 1) / scaling.b_n
    X = CadlagPath(times, tr.X[: kmax + 1] / scaling.a_n, np.zeros(kmax + 1), T)
    Y = CadlagPath(times, tr.Y[: kmax + 1] / scaling.b_n, np.zeros(kmax + 1), T)
    Npath = CadlagPath(times, tr.N[: kmax + 1].astype(float), np.zeros(kmax + 1), T)
    return X, Y, Npath


def discovery_probability_check(seq, t_checks, replicates, rng_seed, hubs=None, T_cap=None) -> dict:
    """Empirical P(eta_i <= t) for hub vertices against the a priori bounds.

    For t <= T b_n the per-step discovery chance of vertex i lies between
    d_i/l_n and d_i/(l_n - 2 T b_n), which brackets P(eta_i <= t) between
    d_i t/l_n - d_i^2 t^2/l_n^2 and (d_i/(l_n - 2Tb_n) + d_i^2/(l_n - 2Tb_n)^2) t.
    Monte Carlo bands are 4 binomial standard errors. Diagnostic only.
    """
    from .graphs import sample_white_matching

    if replicates < 1000:
        raise ValueError("discovery probability check needs at least 1e3 replicates")
    rng = as_generator(rng_seed)
    t_checks = np.asarray(t_checks, dtype=np.int64)
    if hubs is None:
        hubs = list(range(min(3, seq.n)))
    ell = seq.total_white
    if T_cap is None:
        T_cap = max(t_checks.max() / seq.scaling.b_n, 1e-9)
    denom = ell - 2.0 * T_cap * seq.scaling.b_n
    if denom <= 0:
        raise ValueError("T cap too large for the bound to make sense")
    hits = np.zeros((len(hubs), t_checks.size))
    for _ in range(replicates):
        g = sample_white_matching(seq, rng)
        tr = explore(g, rng)
        for a, v in enumerate(hubs):
            hits[a] += tr.eta[v] <= t_checks
    report = {"replicates": replicates, "hubs": {}}
    ok = True
    for a, v in enumerate(hubs):
        d = float(seq.white[v])
        rows = []
        for j, t in enumerate(t_checks):
            p_hat = hits[a, j] / replicates
            se = np.sqrt(max(p_hat * (1 - p_hat), 1.0 / replicates) / replicates)
            lower = d * t / ell - (d * t / ell) ** 2
            upper = (d / denom + (d / denom) ** 2) * t
            contained = (p_hat >= lower - 4 * se) and (p_hat <= upper + 4 * se)
            ok &= contained
            rows.append(
                {"t": int(t), "p_hat": p_hat, "lower": lower, "upper": min(upper, 1.0), "contained": bool(contained)}
            )
        report["hubs"][int(v)] = rows
    report["all_contained"] = bool(ok)
    return report


def write_trace_csv(tr: ExplorationTrace, path, stride: int = 1):
    """Rows (t, X, Y, N) for every ``stride``-th step."""
    every = slice(None, None, max(1, int(stride)))
    t = np.arange(tr.X.size)[every]
    write_rows(path, "{},{},{},{}\r\n", (t, tr.X[every], tr.Y[every], tr.N[every]), header="t,X,Y,N\r\n")
