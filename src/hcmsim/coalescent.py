"""The multiplicative coalescent with mass and weight.

Fixed-time marginals come from the graphical construction: independent
rate-1 exponentials xi_ij per unordered pair, edge {i,j} present iff
xi_ij <= y_i y_j t, component masses read off in decreasing order. Rows of
shared clocks (``sample_xi_batch``) give the xi-coupling across inputs; a
per-pair Bernoulli shortcut is used when only one fixed time is needed.
One engine draws and labels every system, many systems as one
block-diagonal graph on one stream: ``mcmw_batch`` runs replicates of one
system or one system per row, and ``mcmw_graphical`` is its one-system
case. Systems with fewer blocks are rows padded with blocks of zero mass
and weight, which never join anything.
"""

from __future__ import annotations

import numpy as np

from .core import _ROWS_PER_WRITE, InvariantError
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


def _sample_labels(x, y, t: float, reps: int, rng, xi_batch=None):
    """Draw the edges of ``reps`` independent graphical constructions of MC2
    and label them as one block-diagonal graph, system r owning vertices
    r*J .. r*J + J - 1.

    x and y are 1-D (J,), shared by every system, or (reps, J), system r
    being MC2(x[r], y[r], t). The edges are per-pair Bernoullis drawn from
    the one stream ``rng`` as ``random((reps, pairs)) < p``, or
    ``xi <= y_i y_j t`` on shared clock rows ``xi_batch`` (reps, pairs),
    pairs in np.triu_indices(J, 1) order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2) or x.shape != y.shape or x.shape[:-1] not in ((), (reps,)):
        raise ValueError("masses and weights must be 1-D (or one row per replicate) and of equal shape")
    if not (np.all(np.isfinite(x) & (x >= 0)) and np.all(np.isfinite(y) & (y >= 0)) and 0 <= t < np.inf):
        raise ValueError("masses, weights and time must be finite and non-negative")
    J = x.shape[-1]
    # the pairs i < j in np.triu_indices(J, 1) order; that call is slower at small J
    iu, ju = np.nonzero(np.arange(J)[:, None] < np.arange(J))
    w = (y[iu] * y[ju] if y.ndim == 1 else y[:, iu] * y[:, ju]) * t
    if xi_batch is not None:
        if np.shape(xi_batch) != (reps, iu.size):
            raise ValueError(f"xi_batch must have shape {(reps, iu.size)}")
        E = xi_batch <= w
    else:
        E = rng.random((reps, iu.size)) < -np.expm1(-w)
    r, k = np.nonzero(E)
    return x, y, labels_from_edges(r * J + iu[k], r * J + ju[k], reps * J)


def mcmw_graphical(x, y, t: float, rng: np.random.Generator, xi_batch: np.ndarray | None = None):
    """MC2(x, y, t): ordered component masses plus the block system.

    The one-replicate case of :func:`mcmw_batch`, drawing the same edges
    from the same stream; ``xi_batch`` is then one clock row, shape
    (1, n_pairs).
    """
    x, y, labels = _sample_labels(x, y, t, 1, rng, xi_batch)
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


def mcmw_batch(x, y, t: float, reps: int, rng: np.random.Generator, xi_batch: np.ndarray | None = None) -> np.ndarray:
    """(reps, n) ordered component masses of MC2(x, y, t), zero-padded.

    x and y are shared by all replicates (n,), or give each its own row
    (reps, n); every replicate draws its row of one ``random((reps, pairs))``
    from ``rng``, so row r is the same for every ``reps`` > r.
    ``xi_batch`` (reps, n_pairs) reuses clocks across calls for coupled
    comparisons; otherwise per-pair Bernoulli edges are drawn. All
    replicates are labelled in a single sparse pass. MC1(x, t), the
    classical multiplicative coalescent, is ``mcmw_batch(x, x, t, ...)``.
    """
    x, _, labels = _sample_labels(x, y, t, reps, rng, xi_batch)
    return _ordered_masses(x, labels, reps)


def sample_xi_batch(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    return rng.exponential(size=(reps, n * (n - 1) // 2))


def write_masses_csv(masses: np.ndarray, path):
    """One replicate per row, ordered masses, zero-padded columns; each
    mass as ``format(v, ".12g")``, joined by ``,``.

    Masses repeat a lot (the zero padding above all), so each distinct
    value is formatted once, keyed by its bits so that -0.0 keeps its sign.
    The texts form a (distinct, width) byte table, NUL-padded and ending in
    ``,``. About 16k cells at a time are gathered from it, each row's last
    ``,`` becomes a newline, and ``bytes.translate`` drops the NULs.
    """
    bits = np.ascontiguousarray(np.atleast_2d(masses), dtype=float).view(np.uint64)
    if bits.shape[1] == 0:  # no masses: np.savetxt's empty line per row
        return np.savetxt(path, bits)
    distinct = np.sort(bits, axis=None)
    # the first value (if any), then each one that differs from the one before
    distinct = distinct[np.r_[distinct[:1] == distinct[:1], distinct[1:] != distinct[:-1]]]
    text = np.array([format(v, ".12g") for v in distinct.view(float).tolist()], dtype=bytes)
    table = text.astype(f"S{text.itemsize + 1}").view(np.uint8).reshape(text.size, text.itemsize + 1)
    table[:, -1] = ord(",")
    rows = max(1, _ROWS_PER_WRITE // bits.shape[1])
    with open(path, "wb") as fh:
        for s in range(0, len(bits), rows):
            chunk = np.take(table, np.searchsorted(distinct, bits[s : s + rows]), axis=0)
            chunk[:, -1, -1] = ord("\n")
            fh.write(chunk.tobytes().translate(None, b"\0"))
