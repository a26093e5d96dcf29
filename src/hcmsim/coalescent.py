"""The multiplicative coalescent with mass and weight.

Fixed-time marginals come from the graphical construction: independent
rate-1 exponentials xi_ij per unordered pair, edge {i,j} present iff
xi_ij <= y_i y_j t, component masses read off in decreasing order. Shared
clock tables give the xi-coupling across inputs; a per-pair Bernoulli
shortcut is used when only one fixed time is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import InvariantError, as_generator, write_rows
from .graphs import labels_from_edges


@dataclass
class BlockSystem:
    """Disjoint blocks with accumulated (mass, weight)."""

    mass: np.ndarray
    weight: np.ndarray
    parent: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=float).copy()
        self.weight = np.asarray(self.weight, dtype=float).copy()
        if self.mass.shape != self.weight.shape:
            raise ValueError("mass and weight must have equal length")
        if np.any(self.mass < 0) or np.any(self.weight < 0):
            raise ValueError("masses and weights must be non-negative")
        self.parent = np.arange(self.mass.size)
        self._total_mass = float(self.mass.sum())
        self._total_weight = float(self.weight.sum())

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def merge(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if rj < ri:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.mass[ri] += self.mass[rj]
        self.weight[ri] += self.weight[rj]
        return True

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent == np.arange(self.parent.size))

    def ordered_masses(self) -> np.ndarray:
        r = self.roots()
        return np.sort(self.mass[r])[::-1]

    def ordered_weights(self) -> np.ndarray:
        r = self.roots()
        return np.sort(self.weight[r])[::-1]

    def check_conservation(self, tol: float = 1e-12):
        r = self.roots()
        scale = max(1.0, abs(self._total_mass), abs(self._total_weight))
        if abs(self.mass[r].sum() - self._total_mass) > tol * scale:
            raise InvariantError("mass not conserved")
        if abs(self.weight[r].sum() - self._total_weight) > tol * scale:
            raise InvariantError("weight not conserved")


def sample_clock_table(n: int, rng) -> np.ndarray:
    """Upper-triangular table of i.i.d. rate-1 exponentials xi_ij."""
    xi = np.full((n, n), np.inf)
    iu, ju = np.triu_indices(n, 1)
    xi[iu, ju] = rng.exponential(size=iu.size)
    return xi


def _edges_from_clocks(xi: np.ndarray, y: np.ndarray, t: float):
    iu, ju = np.triu_indices(y.size, 1)
    keep = xi[iu, ju] <= y[iu] * y[ju] * t
    return np.column_stack((iu[keep], ju[keep]))


def mcmw_graphical(x, y, t: float, rng_seed, clock_table: np.ndarray | None = None):
    """MC2(x, y, t): ordered component masses plus the block system.

    Supplying ``clock_table`` re-uses shared clocks (the xi-coupling);
    without one, edges are drawn as per-pair Bernoullis, which has the
    same fixed-t law and avoids materialising the table.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = as_generator(rng_seed)
    if clock_table is not None:
        edges = _edges_from_clocks(clock_table, y, t)
    else:
        iu, ju = np.triu_indices(x.size, 1)
        p = -np.expm1(-y[iu] * y[ju] * t)
        keep = rng.random(iu.size) < p
        edges = np.column_stack((iu[keep], ju[keep]))
    blocks = BlockSystem(x, y)
    for i, j in edges:
        blocks.merge(int(i), int(j))
    blocks.check_conservation()
    return blocks.ordered_masses(), blocks


def mc1(x, t: float, rng_seed):
    """Classical multiplicative coalescent: MC2(x, x, t)."""
    masses, _ = mcmw_graphical(x, np.asarray(x, dtype=float), t, rng_seed)
    return masses


def mcmw_coupled_pair(x, y, x2, y2, t: float, shared_seed):
    """Two systems built from one clock table (the xi-coupling)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    x2, y2 = np.asarray(x2, float), np.asarray(y2, float)
    if not (x.size == y.size == x2.size == y2.size):
        raise ValueError("coupled systems must share one index set")
    rng = as_generator(shared_seed)
    xi = sample_clock_table(x.size, rng)
    m1, _ = mcmw_graphical(x, y, t, rng, clock_table=xi)
    m2, _ = mcmw_graphical(x2, y2, t, rng, clock_table=xi)
    return m1, m2


def susceptibility(masses) -> float:
    """Sum of squared component masses."""
    m = np.asarray(masses, dtype=float)
    return float(np.sum(m**2))


def scaling_transform(x, y, a: float, b: float, c: float):
    """Inputs for the identity MC2(ax, by, ct) =d a * MC2(x, b sqrt(c) y, t).

    Returns ((x, b*sqrt(c)*y), a): run MC2 on the transformed weights and
    post-scale the masses by a.
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise ValueError("scalars must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x, b * np.sqrt(c) * y), a


# -- vectorised replicate engine ------------------------------------------


def _root_masses(labels: np.ndarray, x: np.ndarray, reps: int) -> np.ndarray:
    """(reps, n): each component's mass at its least vertex, zero elsewhere,
    for ``reps`` disjoint copies of n vertices labelled as one graph."""
    mass = np.bincount(labels, weights=np.tile(x, reps))
    least = np.full(mass.size, labels.size)
    np.minimum.at(least, labels, np.arange(labels.size))
    out = np.zeros(labels.size)
    out[least] = mass
    return out.reshape(reps, x.size)


def mcmw_batch(x, y, t: float, reps: int, rng_seed, xi_batch: np.ndarray | None = None) -> np.ndarray:
    """(reps, n) ordered component masses of MC2(x, y, t), zero-padded.

    ``xi_batch`` (reps, n_pairs) reuses clocks across calls for coupled
    comparisons; otherwise per-pair Bernoulli edges are drawn. Replicate r
    owns vertices r*n .. r*n + n - 1 of one block-diagonal graph, which is
    labelled in a single sparse pass.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    rng = as_generator(rng_seed)
    iu, ju = np.triu_indices(n, 1)
    if xi_batch is None:
        p = -np.expm1(-y[iu] * y[ju] * t)
        E = rng.random((reps, iu.size)) < p
    else:
        if np.shape(xi_batch) != (reps, iu.size):
            raise ValueError(f"xi_batch must have shape {(reps, iu.size)}")
        E = xi_batch <= y[iu] * y[ju] * t
    r, k = np.nonzero(E)
    masses = _root_masses(labels_from_edges(r * n + iu[k], r * n + ju[k], reps * n), x, reps)
    masses.sort(axis=1)
    masses = masses[:, ::-1]
    if np.any(np.abs(masses.sum(axis=1) - x.sum()) > 1e-12 * np.abs(x).sum()):
        raise InvariantError("batch masses not conserved")
    return masses


def sample_xi_batch(n: int, reps: int, rng_seed) -> np.ndarray:
    rng = as_generator(rng_seed)
    iu, _ = np.triu_indices(n, 1)
    return rng.exponential(size=(reps, iu.size))


# -- probe reports ----------------------------------------------------------


def feller_probe(x, y, perturbation_scale: float, t: float, replicates: int, rng_seed) -> dict:
    """Continuity probe under the xi-coupling plus the classical envelopes.

    Reports E||MC2(x+delta, y+delta', t) - MC2(x, y, t)||^2 for
    perturbations of norm <= perturbation_scale, the empirical tail of
    ||MC1(x+y, t)||^2 against the bound t s ||x+y||^2 / (s - ||x+y||^2) at
    s = 2||x+y||^2, and the susceptibility chain
    S(x,y,t) <= S(x+y,y,t) - ||y||^2 - 2<x,y> checked per realization.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("all weights must be strictly positive")
    rng = as_generator(rng_seed)
    n = x.size
    eps = perturbation_scale
    delta = np.full(n, eps / np.sqrt(n))
    xi = sample_xi_batch(n, replicates, rng)
    base = mcmw_batch(x, y, t, replicates, rng, xi_batch=xi)
    pert = mcmw_batch(x + delta, y + delta, t, replicates, rng, xi_batch=xi)
    diff_sq = np.sum((pert - base) ** 2, axis=1)

    xy = x + y
    mc1_masses = mcmw_batch(xy, xy, t, replicates, rng, xi_batch=xi)
    S1 = np.sum(mc1_masses**2, axis=1)
    s_level = 2.0 * float(np.sum(xy**2))
    norm_sq = float(np.sum(xy**2))
    bound = t * s_level * norm_sq / (s_level - norm_sq)
    p_hat = float(np.mean(S1 > s_level))
    se = float(np.sqrt(max(p_hat * (1 - p_hat), 1.0 / replicates) / replicates))

    joint = mcmw_batch(xy, y, t, replicates, rng, xi_batch=xi)
    S_xy = np.sum(base**2, axis=1)
    S_joint = np.sum(joint**2, axis=1)
    chain_slack = S_joint - float(np.sum(y**2)) - 2.0 * float(np.sum(x * y)) - S_xy
    return {
        "mean_diff_sq": float(np.mean(diff_sq)),
        "max_diff_sq": float(np.max(diff_sq)),
        "envelope": {
            "s": s_level,
            "empirical": p_hat,
            "bound": bound,
            "stderr": se,
            "holds": bool(p_hat <= bound + 4 * se),
        },
        "chain_min_slack": float(np.min(chain_slack)),
        "chain_violations": int(np.sum(chain_slack < -1e-9)),
    }


def bipartite_bound_check(x, y, m_split: int, t: float, epsilon: float, replicates: int, rng_seed) -> dict:
    """Empirical check of the bipartite susceptibility-increment bound.

    Edges only across the split, P(i~j) = 1 - exp(-t y_i y_j). With
    alpha1 = sum_{i<=m} x_i^2 and alpha2 = sum_{i<=m} y_i^2 the bound reads

      eps P(sum Z_i^2 > alpha1 + eps)
        <= (t (alpha1 + 2 alpha2 + 3 eps) + t^2 (alpha1 + alpha2 + 2 eps)^2)
           * sum_{k>m} (x_k + y_k)^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if not 1 <= m_split < n:
        raise ValueError("split must satisfy 1 <= m < n")
    rng = as_generator(rng_seed)
    left = np.arange(n) < m_split
    p = -np.expm1(-t * np.outer(y[left], y[~left]))
    alpha1 = float(np.sum(x[left] ** 2))
    alpha2 = float(np.sum(y[left] ** 2))
    tail = float(np.sum((x[~left] + y[~left]) ** 2))
    rhs = (t * (alpha1 + 2 * alpha2 + 3 * epsilon) + t**2 * (alpha1 + alpha2 + 2 * epsilon) ** 2) * tail

    E = rng.random((replicates, m_split, n - m_split)) < p
    r, a, b = np.nonzero(E)
    labels = labels_from_edges(r * n + a, r * n + m_split + b, replicates * n)
    # components made of right-side vertices only never entered the left
    # susceptibility ledger: with no edges the sum is exactly alpha1
    has_left = np.bincount(labels, weights=np.tile(left, replicates)) > 0
    left_mass = np.where(has_left[labels].reshape(replicates, n), _root_masses(labels, x, replicates), 0.0)
    Z_sq = np.sum(left_mass**2, axis=1)
    p_hat = float(np.mean(Z_sq > alpha1 + epsilon))
    lhs = epsilon * p_hat
    se = epsilon * float(np.sqrt(max(p_hat * (1 - p_hat), 1.0 / replicates) / replicates))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "stderr": se,
        "holds": bool(lhs <= rhs + 4 * se),
        "p_hat": p_hat,
        "alpha1": alpha1,
        "alpha2": alpha2,
    }


def write_masses_csv(masses: np.ndarray, path):
    """One replicate per row, ordered masses, zero-padded columns."""
    masses = np.atleast_2d(masses)
    write_rows(path, ",".join(["{:.12g}"] * masses.shape[1]) + "\n", masses.T)
