"""The multiplicative coalescent with mass and weight.

Fixed-time marginals come from the graphical construction: independent
rate-1 exponentials xi_ij per unordered pair, edge {i,j} present iff
xi_ij <= y_i y_j t, component masses read off in decreasing order. Rows of
shared clocks (``sample_xi_batch``) give the xi-coupling across inputs; a
per-pair Bernoulli shortcut is used when only one fixed time is needed.
One engine draws and labels every system: ``mcmw_batch`` runs many
replicates at once and ``mcmw_graphical`` is its one-replicate case.
"""

from __future__ import annotations

import numpy as np

from .core import _ROWS_PER_WRITE, InvariantError, as_generator
from .graphs import labels_from_edges


def _least_members(labels: np.ndarray) -> np.ndarray:
    """Least vertex of each component, indexed by label."""
    least = np.full(labels.max() + 1 if labels.size else 0, labels.size)
    np.minimum.at(least, labels, np.arange(labels.size))
    return least


class BlockSystem:
    """A finished partition of 0..n-1 into blocks with summed (mass, weight).

    ``labels`` numbers each index's block 0..k-1 (``None``: every index is
    its own block). ``mass`` and ``weight`` hold each block's sums at the
    block's least index and zero elsewhere.
    """

    def __init__(self, mass, weight, labels=None):
        mass = np.asarray(mass, dtype=float)
        weight = np.asarray(weight, dtype=float)
        labels = np.arange(mass.size) if labels is None else np.asarray(labels)
        least = _least_members(labels)
        self._roots = np.sort(least)
        self.mass, self.weight = np.zeros(mass.size), np.zeros(mass.size)
        self.mass[least] = np.bincount(labels, weights=mass)
        self.weight[least] = np.bincount(labels, weights=weight)
        scale = max(1.0, float(mass.sum()), float(weight.sum()))
        if abs(self.mass.sum() - mass.sum()) > 1e-12 * scale:
            raise InvariantError("mass not conserved")
        if abs(self.weight.sum() - weight.sum()) > 1e-12 * scale:
            raise InvariantError("weight not conserved")

    def roots(self) -> np.ndarray:
        """The least index of every block, increasing."""
        return self._roots

    def ordered_masses(self) -> np.ndarray:
        return np.sort(self.mass[self._roots])[::-1]


def _sample_labels(x, y, t: float, reps: int, rng_seed, xi_batch=None):
    """Draw the edges of ``reps`` independent graphical constructions of
    MC2(x, y, t) and label them as one block-diagonal graph: replicate r
    owns vertices r*n .. r*n + n - 1.

    Edges are per-pair Bernoullis ``rng.random((reps, pairs)) < p``, or
    ``xi <= y_i y_j t`` on shared clock rows ``xi_batch`` (reps, pairs).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("masses and weights must be 1-D and of equal length")
    if not (np.all(x >= 0) and np.all(y >= 0) and t >= 0):
        raise ValueError("masses, weights and time must be non-negative")
    n = x.size
    # the pairs i < j in np.triu_indices(n, 1) order; that call is slower at small n
    iu, ju = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    if xi_batch is None:
        p = -np.expm1(-y[iu] * y[ju] * t)
        E = as_generator(rng_seed).random((reps, iu.size)) < p
    else:
        if np.shape(xi_batch) != (reps, iu.size):
            raise ValueError(f"xi_batch must have shape {(reps, iu.size)}")
        E = xi_batch <= y[iu] * y[ju] * t
    r, k = np.nonzero(E)
    return x, y, labels_from_edges(r * n + iu[k], r * n + ju[k], reps * n)


def mcmw_graphical(x, y, t: float, rng_seed, xi_batch: np.ndarray | None = None):
    """MC2(x, y, t): ordered component masses plus the block system.

    The one-replicate case of :func:`mcmw_batch`, drawing the same edges
    from the same stream; ``xi_batch`` is then one clock row, shape
    (1, n_pairs).
    """
    x, y, labels = _sample_labels(x, y, t, 1, rng_seed, xi_batch)
    blocks = BlockSystem(x, y, labels)
    return blocks.ordered_masses(), blocks


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


# -- batches of replicates ----------------------------------------------


def _root_masses(labels: np.ndarray, x: np.ndarray, reps: int) -> np.ndarray:
    """(reps, n): each component's mass at its least vertex, zero elsewhere,
    for ``reps`` disjoint copies of n vertices labelled as one graph."""
    least = _least_members(labels)
    out = np.zeros(labels.size)
    out[least] = np.bincount(labels, weights=np.tile(x, reps))
    return out.reshape(reps, x.size)


def mcmw_batch(x, y, t: float, reps: int, rng_seed, xi_batch: np.ndarray | None = None) -> np.ndarray:
    """(reps, n) ordered component masses of MC2(x, y, t), zero-padded.

    ``xi_batch`` (reps, n_pairs) reuses clocks across calls for coupled
    comparisons; otherwise per-pair Bernoulli edges are drawn. All
    replicates are labelled in a single sparse pass. MC1(x, t), the
    classical multiplicative coalescent, is ``mcmw_batch(x, x, t, ...)``.
    """
    x, y, labels = _sample_labels(x, y, t, reps, rng_seed, xi_batch)
    masses = _root_masses(labels, x, reps)
    masses.sort(axis=1)
    masses = masses[:, ::-1]
    if np.any(np.abs(masses.sum(axis=1) - x.sum()) > 1e-12 * np.abs(x).sum()):
        raise InvariantError("batch masses not conserved")
    return masses


def sample_xi_batch(n: int, reps: int, rng_seed) -> np.ndarray:
    rng = as_generator(rng_seed)
    return rng.exponential(size=(reps, n * (n - 1) // 2))


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
    """One replicate per row, ordered masses, zero-padded columns.

    Masses repeat a lot (the zero padding above all), so each distinct
    value is formatted once, keyed by its bits so that -0.0 keeps its sign.
    """
    masses = np.ascontiguousarray(np.atleast_2d(masses), dtype=float)
    bits, inverse = np.unique(masses.view(np.uint64), return_inverse=True)
    text = np.array([format(v, ".12g") for v in bits.view(float).tolist()], dtype=object)
    inverse = inverse.reshape(masses.shape)
    with open(path, "w", newline="") as fh:
        for s in range(0, len(masses), _ROWS_PER_WRITE):
            fh.write("\n".join(map(",".join, text[inverse[s : s + _ROWS_PER_WRITE]].tolist())) + "\n")
