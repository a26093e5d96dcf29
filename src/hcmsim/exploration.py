"""Breadth-first exploration of the white graph and its walk encoding.

One exploration step either discovers the seed of a new component (chosen
proportional to white degree among undiscovered vertices) or pairs one
active half-edge. The walks are

    X(t) = -2t + sum_i d_i^w 1[eta_i <= t]
    Y(t) =        sum_i d_i^b 1[eta_i <= t]
    N(t) = #{s <= t : X(s) = X(s-1) - 2}   (surplus edges)

and the k-th component satisfies, with tau(k) = min{t : X(t) = -2k},

    edges = tau(k) - tau(k-1) - 1
    black = Y(tau(k)) - Y(tau(k-1))
    size  = tau(k) - tau(k-1) - (N(tau(k)) - N(tau(k-1))).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import InvariantError, as_generator
from .degrees import ScalingConstants
from .graphs import ColoredMultigraph
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

    def walk_paths(self, linear: bool = False):
        """(X, Y, N) as unit-step cadlag (or linearly interpolated) paths."""
        make = CadlagPath.piecewise_linear if linear else CadlagPath.step_function
        if linear:
            t = np.arange(self.X.size, dtype=float)
            return make(t, self.X), make(t, self.Y), make(t, self.N)
        return make(self.X), make(self.Y), make(self.N)

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
    if g.white_match is None:
        raise ValueError("exploration needs a sampled white matching")
    rng = as_generator(rng_seed)
    seq = g.seq
    n = seq.n
    d_w = seq.white
    d_b = seq.black
    owner = g.white_owner
    match = g.white_match
    n_half = int(d_w.sum())

    # CSR-style half-edge lists per vertex
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(d_w, out=indptr[1:])

    alive = np.arange(n_half, dtype=np.int64)  # swap-pop pool of alive half-edges
    pos = np.arange(n_half, dtype=np.int64)
    alive_count = n_half
    is_alive = np.ones(n_half, dtype=bool)

    def kill(h: int):
        nonlocal alive_count
        p = pos[h]
        last = alive[alive_count - 1]
        alive[p], alive[alive_count - 1] = last, h
        pos[last], pos[h] = p, alive_count - 1
        alive_count -= 1
        is_alive[h] = False

    discovered = np.zeros(n, dtype=bool)
    eta = np.full(n, -1, dtype=np.int64)
    next_he = indptr[:-1].copy()  # per-vertex cursor over its half-edges
    queue: deque[int] = deque()
    exploring = -1
    order: list[int] = []

    X = [0]
    Y = [0]
    N = [0]
    tau: list[int] = []
    t = 0

    def discover(v: int, step: int):
        discovered[v] = True
        eta[v] = step
        order.append(v)

    while alive_count > 0:
        if exploring < 0:
            while queue:
                v = queue.popleft()
                if _has_active(v, next_he, indptr, is_alive):
                    exploring = v
                    break
            if exploring < 0:
                # new component: seed proportional to degree = owner of a
                # uniform alive half-edge
                h = alive[rng.integers(alive_count)]
                v = int(owner[h])
                t += 1
                discover(v, t)
                X.append(X[-1] + int(d_w[v]) - 2)
                Y.append(Y[-1] + int(d_b[v]))
                N.append(N[-1])
                exploring = v
                continue
        v = exploring
        e = _next_active(v, next_he, indptr, is_alive)
        kill(e)
        f = int(match[e])
        if not is_alive[f]:
            raise InvariantError("matched partner already killed")
        kill(f)
        u = int(owner[f])
        t += 1
        if not discovered[u]:
            discover(u, t)
            X.append(X[-1] + int(d_w[u]) - 2)
            Y.append(Y[-1] + int(d_b[u]))
            N.append(N[-1])
            if _has_active(u, next_he, indptr, is_alive):
                queue.append(u)  # appended as the largest active vertex
        else:
            X.append(X[-1] - 2)
            Y.append(Y[-1])
            N.append(N[-1] + 1)
        if not _has_active(v, next_he, indptr, is_alive):
            exploring = -1
        if X[-1] == -2 * (len(tau) + 1):
            tau.append(t)
            if exploring >= 0 or any(_has_active(u, next_he, indptr, is_alive) for u in queue):
                raise InvariantError("walk hit a new minimum mid-component")
            queue.clear()

    trace = ExplorationTrace(
        X=np.array(X, dtype=np.int64),
        Y=np.array(Y, dtype=np.int64),
        N=np.array(N, dtype=np.int64),
        eta=eta,
        tau=np.array(tau, dtype=np.int64),
        order=np.array(order, dtype=np.int64),
    )
    _assert_trace(trace, seq)
    return trace


def _has_active(v: int, next_he, indptr, is_alive) -> bool:
    c = next_he[v]
    end = indptr[v + 1]
    while c < end and not is_alive[c]:
        c += 1
    next_he[v] = c
    return c < end


def _next_active(v: int, next_he, indptr, is_alive) -> int:
    if not _has_active(v, next_he, indptr, is_alive):
        raise InvariantError("exploring vertex has no active half-edge")
    return int(next_he[v])


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
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "X", "Y", "N"])
        for t in range(0, tr.X.size, max(1, int(stride))):
            writer.writerow([t, int(tr.X[t]), int(tr.Y[t]), int(tr.N[t])])
