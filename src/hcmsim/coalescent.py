"""The multiplicative coalescent with mass and weight.

Fixed-time marginals come from the graphical construction: independent
rate-1 exponentials xi_ij per unordered pair, edge {i,j} present iff
xi_ij <= y_i y_j t, component masses read off in decreasing order. Rows of
shared clocks (``sample_xi_batch``) give the xi-coupling across inputs; a
per-pair Bernoulli shortcut is used when only one fixed time is needed.
One engine draws and labels every system, many systems as one
block-diagonal graph: ``mcmw_batch`` runs replicates of one system on one
stream, ``mcmw_systems`` systems of different sizes on a stream each, and
``mcmw_graphical`` is their one-system case.
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


def _sample_labels(x, y, t: float, sizes, rng_seed, xi_batch=None):
    """Draw the edges of independent graphical constructions of MC2 and
    label them as one block-diagonal graph, system r owning vertices
    r*J .. r*J + J - 1.

    With 1-D x and y (J = n), the systems are ``sizes`` replicates of
    MC2(x, y, t). Their edges are per-pair Bernoullis drawn from the one
    stream ``rng_seed`` as ``random((R, pairs)) < p``, or ``xi <= y_i y_j t``
    on shared clock rows ``xi_batch`` (R, pairs).

    With (R, J) x and y, system r is MC2(x[r, :k], y[r, :k], t) with
    k = sizes[r] <= J and draws ``random(k(k-1)/2) < p`` from its own stream
    ``rng_seed[r]``. Its pairs, in np.triu_indices(k, 1) order, are the
    ju < k subset of the J-vertex order; its vertices from k on stay single,
    with mass 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != np.ndim(sizes) + 1 or x.shape != y.shape:
        raise ValueError("masses and weights must be 1-D (or one row per system) and of equal shape")
    if not (np.all(np.isfinite(x) & (x >= 0)) and np.all(np.isfinite(y) & (y >= 0)) and 0 <= t < np.inf):
        raise ValueError("masses, weights and time must be finite and non-negative")
    R, J = (sizes, x.size) if x.ndim == 1 else (len(sizes), x.shape[1])
    # the pairs i < j in np.triu_indices(J, 1) order; that call is slower at small J
    iu, ju = np.nonzero(np.arange(J)[:, None] < np.arange(J))
    w = (y[iu] * y[ju] if x.ndim == 1 else y[:, iu] * y[:, ju]) * t
    if xi_batch is not None:
        if np.shape(xi_batch) != (R, iu.size):
            raise ValueError(f"xi_batch must have shape {(R, iu.size)}")
        E = xi_batch <= w
    elif x.ndim == 1:
        E = as_generator(rng_seed).random((R, iu.size)) < -np.expm1(-w)
    else:
        keep = ju < sizes[:, None]
        u = [as_generator(g).random(k * (k - 1) // 2) for g, k in zip(rng_seed, sizes.tolist())]
        E = np.zeros(keep.shape, dtype=bool)
        E[keep] = np.concatenate([np.empty(0), *u]) < -np.expm1(-w[keep])
        x = np.where(np.arange(J) < sizes[:, None], x, 0.0)
    r, k = np.nonzero(E)
    return x, y, labels_from_edges(r * J + iu[k], r * J + ju[k], R * J)


def mcmw_graphical(x, y, t: float, rng_seed, xi_batch: np.ndarray | None = None):
    """MC2(x, y, t): ordered component masses plus the block system.

    The one-replicate case of :func:`mcmw_batch`, drawing the same edges
    from the same stream; ``xi_batch`` is then one clock row, shape
    (1, n_pairs).
    """
    x, y, labels = _sample_labels(x, y, t, 1, rng_seed, xi_batch)
    blocks = BlockSystem(x, y, labels)
    return blocks.ordered_masses(), blocks


# -- batches of replicates ----------------------------------------------


def _root_masses(labels: np.ndarray, x: np.ndarray, reps: int) -> np.ndarray:
    """(reps, J): each component's mass at its least vertex, zero elsewhere,
    for ``reps`` disjoint systems of J vertices labelled as one graph; ``x``
    holds their masses, (reps, J), or (J,) when they share them."""
    least = _least_members(labels)
    out = np.zeros(labels.size)
    out[least] = np.bincount(labels, weights=np.tile(x, reps) if x.ndim == 1 else x.ravel())
    return out.reshape(reps, x.shape[-1])


def _ordered_masses(x: np.ndarray, labels: np.ndarray, reps: int) -> np.ndarray:
    """Each system's block masses in decreasing order, zero-padded."""
    masses = _root_masses(labels, x, reps)
    masses.sort(axis=1)
    masses = masses[:, ::-1]
    if np.any(np.abs(masses.sum(axis=1) - x.sum(axis=-1)) > 1e-12 * np.abs(x).sum(axis=-1)):
        raise InvariantError("batch masses not conserved")
    return masses


def mcmw_batch(x, y, t: float, reps: int, rng_seed, xi_batch: np.ndarray | None = None) -> np.ndarray:
    """(reps, n) ordered component masses of MC2(x, y, t), zero-padded.

    ``xi_batch`` (reps, n_pairs) reuses clocks across calls for coupled
    comparisons; otherwise per-pair Bernoulli edges are drawn. All
    replicates are labelled in a single sparse pass. MC1(x, t), the
    classical multiplicative coalescent, is ``mcmw_batch(x, x, t, ...)``.
    """
    x, _, labels = _sample_labels(x, y, t, reps, rng_seed, xi_batch)
    return _ordered_masses(x, labels, reps)


def mcmw_systems(x, y, t: float, sizes, rng_seeds) -> np.ndarray:
    """(R, J) ordered component masses of the R systems
    MC2(x[r, :k], y[r, :k], t), k = sizes[r], zero-padded.

    System r draws its edges from its own stream ``rng_seeds[r]``, the same
    as ``mcmw_graphical(x[r, :k], y[r, :k], t, rng_seeds[r])``; all systems
    are labelled in a single sparse pass.
    """
    x, sizes = np.asarray(x, dtype=float), np.asarray(sizes, dtype=np.int64)
    shapes = x.ndim == 2 and sizes.shape == x.shape[:1] and len(rng_seeds) == sizes.size
    if not shapes or np.any((sizes < 0) | (sizes > x.shape[1])):
        raise ValueError("need (R, J) masses and weights, R streams and R block counts in [0, J]")
    x, _, labels = _sample_labels(x, y, t, sizes, rng_seeds)
    return _ordered_masses(x, labels, sizes.size)


def sample_xi_batch(n: int, reps: int, rng_seed) -> np.ndarray:
    rng = as_generator(rng_seed)
    return rng.exponential(size=(reps, n * (n - 1) // 2))


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
