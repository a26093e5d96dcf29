"""The sparse MC2 engine against two oracles.

The dense oracle is the former implementation of ``mcmw_batch`` and
``bipartite_bound_check``: per replicate a dense (n, n) adjacency closed
under repeated boolean matrix products, with each component's mass read at
its least vertex. The union-find oracle is the former ``BlockSystem``
find/merge loop behind ``mcmw_graphical``. Given one seed the engine and
the oracles draw the same edge indicators, so they must agree up to the
order of floating-point mass sums.
"""

import numpy as np
import pytest

from hcmsim.coalescent import _root_masses, mcmw_batch, mcmw_graphical, sample_xi_batch
from hcmsim.core import InvariantError, as_generator, stream_gen
from hcmsim.graphs import labels_from_edges


# The bipartite susceptibility-increment bound, a lemma check that no CLI
# command runs; the acceptance suite imports it from here.
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


def union_find(mass, weight, edges):
    """Merge blocks along ``edges`` in order, the smaller root absorbing the
    larger. Returns each index's root (the least index of its block) and
    the (mass, weight) accumulated at the roots; other entries are stale."""
    parent = list(range(len(mass)))
    mass = [float(v) for v in mass]
    weight = [float(v) for v in weight]

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for i, j in edges:
        ri, rj = sorted((find(int(i)), find(int(j))))
        if ri != rj:
            parent[rj] = ri
            mass[ri] += mass[rj]
            weight[ri] += weight[rj]
    return np.array([find(i) for i in range(len(parent))], dtype=np.int64), np.array(mass), np.array(weight)


def _reach(adj):
    """Transitive closure per replicate of (reps, n, n) boolean adjacency."""
    n = adj.shape[1]
    R = adj | np.eye(n, dtype=bool)
    hops = 1
    while hops < n:
        R = np.matmul(R.astype(np.uint8), R.astype(np.uint8)).astype(bool)
        hops *= 2
    return R


def _roots(R):
    """Vertex i is a root iff no smaller vertex reaches it."""
    reps, n, _ = R.shape
    root = np.ones((reps, n), dtype=bool)
    for i in range(1, n):
        root[:, i] = ~R[:, i, :i].any(axis=1)
    return root


def _edge_indicators(y, t, reps, rng, xi_batch=None):
    iu, ju = np.triu_indices(y.size, 1)
    if xi_batch is None:
        p = -np.expm1(-y[iu] * y[ju] * t)
        return iu, ju, rng.random((reps, iu.size)) < p
    return iu, ju, xi_batch <= y[iu] * y[ju] * t


def dense_blocks(x, y, t, reps, rng_seed, xi_batch=None):
    """(root, mass, weight), each (reps, n): the mask of each block's least
    vertex and the block's sums there, zero elsewhere."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    iu, ju, E = _edge_indicators(y, t, reps, stream_gen(*rng_seed), xi_batch)
    adj = np.zeros((reps, n, n), dtype=bool)
    adj[:, iu, ju] = E
    adj[:, ju, iu] = E
    R = _reach(adj)
    root = _roots(R)
    return root, np.where(root, R @ x, 0.0), np.where(root, R @ y, 0.0)


def dense_mcmw_batch(x, y, t, reps, rng_seed, xi_batch=None):
    _, masses, _ = dense_blocks(x, y, t, reps, rng_seed, xi_batch)
    masses.sort(axis=1)
    return masses[:, ::-1]


def dense_bipartite_p_hat(x, y, m_split, t, epsilon, replicates, rng_seed):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    left = np.arange(m_split)
    right = np.arange(m_split, n)
    p = -np.expm1(-t * np.outer(y[left], y[right]))
    alpha1 = float(np.sum(x[left] ** 2))
    E = stream_gen(*rng_seed).random((replicates, m_split, n - m_split)) < p
    adj = np.zeros((replicates, n, n), dtype=bool)
    adj[:, left[:, None], right[None, :]] = E
    adj[:, right[:, None], left[None, :]] = np.transpose(E, (0, 2, 1))
    R = _reach(adj)
    has_left = R[:, :, :m_split].any(axis=2)
    Z_sq = np.sum(np.where(_roots(R) & has_left, R @ x, 0.0) ** 2, axis=1)
    return float(np.mean(Z_sq > alpha1 + epsilon))


def _inputs(m, seed):
    rng = stream_gen(seed, 0)
    # heavy-ish spread of masses and weights, like rescaled critical blocks
    return np.sort(rng.pareto(2.5, m) + 0.05)[::-1], np.sort(rng.pareto(2.5, m) + 0.05)[::-1]


@pytest.mark.parametrize("m", [1, 2, 3, 20, 100])
@pytest.mark.parametrize("coupled", [False, True])
def test_batch_equals_dense_oracle(m, coupled):
    x, y = _inputs(m, 100 + m)
    reps = 400 if m <= 3 else 25
    t = 1.5 / max(1.0, float(np.sum(y**2)))  # near the merging threshold
    xi = sample_xi_batch(m, reps, stream_gen(m, 1)) if coupled else None
    got = mcmw_batch(x, y, t, reps, stream_gen(m, 2), xi_batch=xi)
    want = dense_mcmw_batch(x, y, t, reps, (m, 2), xi_batch=xi)
    assert got.shape == want.shape == (reps, m)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # at this time the oracle's rows show both merges and separate blocks
    blocks = np.count_nonzero(want, axis=1)
    assert m == 1 or (blocks.min() < m and blocks.max() > 1)


@pytest.mark.parametrize("n, m_split, t", [(2, 1, 0.5), (3, 1, 0.5), (10, 4, 0.1), (40, 15, 0.005)])
def test_bipartite_equals_dense_oracle(n, m_split, t):
    x, y = _inputs(n, 200 + n)
    eps, reps = 0.3, 300
    rep = bipartite_bound_check(x, y, m_split, t, eps, reps, stream_gen(n, 3))
    p_hat = dense_bipartite_p_hat(x, y, m_split, t, eps, reps, (n, 3))
    assert rep["p_hat"] == pytest.approx(p_hat, rel=1e-12, abs=0)
    assert 0.0 < p_hat < 1.0


def test_batch_past_the_dense_size_limit_matches_union_find():
    # m = 300 was out of reach of the dense closure (capped at 255); compare
    # row by row with a union-find over the same edge indicators
    m, reps = 300, 4
    x, y = _inputs(m, 300)
    t = 1.0 / float(np.sum(y**2))
    got = mcmw_batch(x, y, t, reps, stream_gen(300, 2))
    iu, ju, E = _edge_indicators(y, t, reps, stream_gen(300, 2))
    assert got.shape == (reps, m)
    for r in range(reps):
        root, mass, _ = union_find(x, y, zip(iu[E[r]], ju[E[r]]))
        want = np.zeros(m)
        ordered = np.sort(mass[np.unique(root)])[::-1]
        want[: ordered.size] = ordered
        np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=1e-12 * x.sum())
        assert 1 < ordered.size < m


@pytest.mark.parametrize("m", [1, 2, 3, 20])
@pytest.mark.parametrize("coupled", [False, True])
def test_graphical_equals_dense_oracle(m, coupled):
    # mcmw_graphical is mcmw_batch's one-replicate case: same stream, same
    # edges, same blocks as the closure, with sums at each block's least index
    x, y = _inputs(m, 400 + m)
    t = 1.5 / max(1.0, float(np.sum(y**2)))
    block_counts = []
    for s in range(40 if m <= 3 else 10):
        xi = sample_xi_batch(m, 1, stream_gen(m, 10 + s)) if coupled else None
        masses, blocks = mcmw_graphical(x, y, t, stream_gen(m, 100 + s), xi_batch=xi)
        root, mass, weight = dense_blocks(x, y, t, 1, (m, 100 + s), xi_batch=xi)
        np.testing.assert_array_equal(blocks.roots(), np.flatnonzero(root[0]))
        np.testing.assert_allclose(blocks.mass, mass[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(blocks.weight, weight[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(masses, np.sort(mass[0][root[0]])[::-1], rtol=1e-12, atol=0)
        block_counts.append(masses.size)
    assert m == 1 or (min(block_counts) < m and max(block_counts) > 1)


def test_graphical_empty_input():
    masses, blocks = mcmw_graphical([], [], 1.0, 0)
    assert masses.shape == blocks.mass.shape == blocks.weight.shape == blocks.roots().shape == (0,)


@pytest.mark.parametrize(
    "x, y, t",
    [
        ([1.0, 2.0], [1.0, 1.0], -1.0),
        ([1.0, 2.0], [1.0, 1.0], float("nan")),
        ([1.0, 2.0, 3.0], [1.0, 1.0], 0.5),
        ([-1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 0.5),
        ([1.0, 2.0, 3.0], [-1.0, -1.0, 1.0], 0.5),
    ],
)
def test_engine_rejects_bad_input(x, y, t):
    with pytest.raises(ValueError):
        mcmw_batch(x, y, t, 3, 0)
    with pytest.raises(ValueError):
        mcmw_graphical(x, y, t, 0)


def test_batch_detects_a_labelling_that_leaks_across_replicates(monkeypatch):
    import hcmsim.coalescent as coalescent

    # one label for every vertex puts all replicates' mass into one row
    monkeypatch.setattr(coalescent, "labels_from_edges", lambda rows, cols, n: np.zeros(n, dtype=np.int64))
    with pytest.raises(InvariantError):
        mcmw_batch([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 0.5, 4, 0)


def test_batch_empty_shapes():
    assert mcmw_batch([1.0, 2.0], [1.0, 1.0], 1.0, 0, 0).shape == (0, 2)
    assert mcmw_batch([], [], 1.0, 3, 0).shape == (3, 0)


def test_batch_rejects_clocks_of_another_shape():
    # one clock row for many replicates would leave the other rows edgeless
    xi = sample_xi_batch(3, 1, 0)
    with pytest.raises(ValueError):
        mcmw_batch([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 0.5, 4, 0, xi_batch=xi)
