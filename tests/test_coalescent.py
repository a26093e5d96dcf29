import itertools

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hcmsim.coalescent import (
    BlockSystem,
    mcmw_batch,
    mcmw_graphical,
    sample_xi_batch,
)
from hcmsim.core import InvariantError, stream_gen
from seeding import philox
from test_mc2_engine import bipartite_bound_check, union_find


# Lemma checks on MC2 that no CLI command runs, used by these tests and
# the acceptance suite: the susceptibility, the scaling identity's inputs
# and the Feller-type continuity probe.
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


def feller_probe(x, y, perturbation_scale: float, t: float, replicates: int, rng) -> dict:
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


def test_time_zero_returns_sorted_input():
    masses, _ = mcmw_graphical([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], 0.0, philox(0))
    assert masses.tolist() == [3.0, 2.0, 1.0]


def test_two_block_merge_probability():
    t = np.log(2.0)  # merge probability exactly 1/2 for unit weights
    reps = 100_000
    m = mcmw_batch([1.0, 2.0], [1.0, 1.0], t, reps, philox(5))
    p_hat = np.mean(m[:, 0] == 3.0)
    se = np.sqrt(0.25 / reps)
    assert abs(p_hat - 0.5) <= 3 * se


def test_three_block_distribution_vs_enumeration():
    x = np.array([1.0, 2.0, 4.0])
    y = np.array([1.0, 1.0, 1.0])
    t = 0.7
    p = 1.0 - np.exp(-t)
    # brute force over the 8 edge patterns
    probs = {}
    for pattern in itertools.product([0, 1], repeat=3):
        pr = np.prod([p if e else 1 - p for e in pattern])
        edges = [(0, 1), (0, 2), (1, 2)]
        parent = list(range(3))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for e, (i, j) in zip(pattern, edges):
            if e:
                parent[find(i)] = find(j)
        groups = {}
        for i in range(3):
            groups.setdefault(find(i), 0.0)
            groups[find(i)] += x[i]
        key = tuple(sorted(groups.values(), reverse=True))
        probs[key] = probs.get(key, 0.0) + pr
    reps = 100_000
    m = mcmw_batch(x, y, t, reps, philox(6))
    counts = {}
    for row in m:
        key = tuple(v for v in row if v > 0)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(probs)
    for key, pr in probs.items():
        se = np.sqrt(pr * (1 - pr) / reps)
        assert abs(counts.get(key, 0) / reps - pr) <= 4 * se, key


def test_graphical_batch_same_law():
    x = np.array([1.0, 0.5, 0.25, 2.0])
    y = np.array([0.5, 1.0, 1.5, 0.25])
    reps = 4000
    rng = stream_gen(17, 0)
    singles = np.array([mcmw_graphical(x, y, 0.8, rng)[0][0] for _ in range(reps)])
    batch = mcmw_batch(x, y, 0.8, reps, philox(18))[:, 0]
    assert ks_2samp(singles, batch).pvalue > 1e-3


def test_coupled_pair_identical_inputs():
    # with shared clock rows the edges do not depend on the stream
    xi = sample_xi_batch(2, 50, philox(3))
    m1 = mcmw_batch([1, 2], [1, 1], 0.9, 50, philox(4), xi_batch=xi)
    m2 = mcmw_batch([1, 2], [1, 1], 0.9, 50, philox(5), xi_batch=xi)
    assert np.array_equal(m1, m2)
    assert 0 < np.count_nonzero(m1[:, 0] == 3.0) < 50


def test_xi_coupling_edge_inclusion_monotone():
    n = 6
    x = np.linspace(1.0, 0.5, n)
    y = np.linspace(0.2, 1.0, n)
    y2 = y + 0.3
    xi = sample_xi_batch(n, 200, stream_gen(23, 0))
    iu, ju = np.triu_indices(n, 1)
    e1 = xi <= y[iu] * y[ju] * 0.7
    e2 = xi <= y2[iu] * y2[ju] * 0.7
    assert np.all(e2 | ~e1)
    assert np.any(e2 & ~e1)
    # more edges only merge blocks: the susceptibility cannot drop
    S1 = np.sum(mcmw_batch(x, y, 0.7, 200, philox(0), xi_batch=xi) ** 2, axis=1)
    S2 = np.sum(mcmw_batch(x, y2, 0.7, 200, philox(0), xi_batch=xi) ** 2, axis=1)
    assert np.all(S2 >= S1 - 1e-12) and np.any(S2 > S1)


def test_norm_difference_inequality_coupled():
    # ||MC2(x', y', t) - MC2(x, y, t)||^2 <= ||MC2(x', y', t)||^2 - ||MC2(x, y, t)||^2
    rng = stream_gen(29, 0)
    n = 5
    x = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    y = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    x2 = x + 0.25
    y2 = y + 0.25
    reps = 10_000
    xi = sample_xi_batch(n, reps, rng)
    a = mcmw_batch(x, y, 0.6, reps, rng, xi_batch=xi)
    b = mcmw_batch(x2, y2, 0.6, reps, rng, xi_batch=xi)
    diff = np.sum((b - a) ** 2, axis=1)
    gap = np.sum(b**2, axis=1) - np.sum(a**2, axis=1)
    assert np.all(diff <= gap + 1e-9)


def test_mc1_two_block_closed_form():
    reps = 50_000
    t = 0.35
    m = mcmw_batch([1.0, 1.0], [1.0, 1.0], t, reps, philox(31))
    p_hat = np.mean(m[:, 0] == 2.0)
    p = 1 - np.exp(-t)
    assert abs(p_hat - p) <= 3 * np.sqrt(p * (1 - p) / reps)


def test_mc1_speed_identity():
    # MC2(x, c x, t) =d MC1(x, c^2 t)
    x = np.array([1.0, 0.7, 0.4])
    c = 2.0
    t = 0.22
    reps = 50_000
    lhs = mcmw_batch(x, c * x, t, reps, philox(37))[:, 0]
    rhs = mcmw_batch(x, x, c**2 * t, reps, philox(38))[:, 0]
    assert ks_2samp(lhs, rhs).pvalue > 1e-3
    single = mcmw_batch(x, x, c**2 * t, 1, philox(39))[0]
    assert 1 <= np.count_nonzero(single) <= 3
    assert single.sum() == pytest.approx(x.sum(), rel=1e-12)


def test_susceptibility_values_and_merge_monotonicity():
    assert susceptibility([3.0]) == 9.0
    assert susceptibility([3.0, 1.0]) == 10.0
    pre = susceptibility(BlockSystem([1.0, 2.0], [1.0, 1.0]).ordered_masses())
    merged = BlockSystem([1.0, 2.0], [1.0, 1.0], labels=np.array([0, 0]))
    post = susceptibility(merged.ordered_masses())
    assert pre == 5.0 and post == 9.0 and post >= pre
    assert merged.roots().tolist() == [0]
    assert merged.mass.tolist() == [3.0, 0.0] and merged.weight.tolist() == [2.0, 0.0]


def test_scaling_transform_values():
    (x, y2), a = scaling_transform([1.0, 2.0], [1.0, 1.0], 1.0, 1.0, 1.0)
    assert a == 1.0 and y2.tolist() == [1.0, 1.0]
    (x, y2), a = scaling_transform([1.0, 2.0], [1.0, 3.0], 2.0, 1.0, 4.0)
    assert a == 2.0 and y2.tolist() == [2.0, 6.0]
    with pytest.raises(ValueError):
        scaling_transform([1.0], [1.0], 0.0, 1.0, 1.0)


def test_scaling_identity_distributional():
    # MC2(ax, by, ct) =d a MC2(x, b sqrt(c) y, t) for (a, b, c) = (2, 1, 4)
    x = np.array([1.0, 0.6, 0.3])
    y = np.array([0.8, 0.5, 0.2])
    a, b, c = 2.0, 1.0, 4.0
    t = 0.3
    reps = 50_000
    lhs = mcmw_batch(a * x, b * y, c * t, reps, philox(41))[:, 0]
    (xt, yt), scale = scaling_transform(x, y, a, b, c)
    rhs = scale * mcmw_batch(xt, yt, t, reps, philox(42))[:, 0]
    assert ks_2samp(lhs, rhs).pvalue > 1e-3


def test_subgraph_coupling_induces_subgraph():
    n, reps = 7, 50
    x = np.linspace(1.0, 0.4, n)
    y = np.linspace(0.3, 1.2, n)
    xi = sample_xi_batch(n, reps, stream_gen(53, 0))
    sub = [1, 3, 4, 6]
    iu, ju = np.triu_indices(n, 1)
    column = np.full((n, n), -1)
    column[iu, ju] = np.arange(iu.size)
    iu2, ju2 = np.triu_indices(len(sub), 1)
    # the clock row of the subsystem: the full row's columns of its pairs
    xi_sub = xi[:, column[np.take(sub, iu2), np.take(sub, ju2)]]
    ys = y[sub]
    for r in range(reps):
        full_edges = {(int(i), int(j)) for i, j, k in zip(iu, ju, xi[r] <= y[iu] * y[ju] * 0.5) if k}
        sub_edges = {
            (sub[int(i)], sub[int(j)]) for i, j, k in zip(iu2, ju2, xi_sub[r] <= ys[iu2] * ys[ju2] * 0.5) if k
        }
        induced = {(i, j) for (i, j) in full_edges if i in sub and j in sub}
        assert sub_edges == induced
    # MC2 of the subsystem = MC2 of the full system with the others' mass
    # and weight set to zero (zero weight: no edges), zero-padded
    outside = np.ones(n, dtype=bool)
    outside[sub] = False
    full = mcmw_batch(np.where(outside, 0.0, x), np.where(outside, 0.0, y), 0.5, reps, philox(0), xi_batch=xi)
    part = mcmw_batch(x[sub], ys, 0.5, reps, philox(0), xi_batch=xi_sub)
    assert np.array_equal(full[:, : len(sub)], part) and not full[:, len(sub) :].any()
    assert 1 < np.count_nonzero(part, axis=1).max() and np.count_nonzero(part, axis=1).min() < len(sub)


def test_feller_probe_zero_perturbation():
    rep = feller_probe([1.0, 0.5], [1.0, 1.0], 0.0, 0.5, 2000, philox(61))
    assert rep["mean_diff_sq"] == 0.0
    assert rep["chain_violations"] == 0
    assert rep["envelope"]["holds"]


def test_feller_probe_rejects_zero_weights():
    with pytest.raises(ValueError):
        feller_probe([1.0], [0.0], 0.1, 1.0, 100, philox(0))


def test_feller_probe_small_perturbation_small_change():
    rep = feller_probe([1.0, 0.5, 0.25], [1.0, 0.75, 0.5], 0.01, 0.5, 5000, philox(63))
    assert rep["mean_diff_sq"] < 0.05
    assert rep["chain_violations"] == 0


def test_bipartite_bound_trivial_time_zero():
    rep = bipartite_bound_check([1.0, 1.0], [1.0, 1.0], 1, 0.0, 0.5, 1000, philox(71))
    assert rep["p_hat"] == 0.0 and rep["lhs"] == 0.0 and rep["holds"]


def test_bipartite_single_pair_closed_form():
    # one vertex each side: sum Z^2 > alpha1 + eps iff the edge is present
    x = np.array([1.0, 1.0])
    y = np.array([0.8, 0.9])
    t = 0.6
    eps = 0.5
    reps = 50_000
    rep = bipartite_bound_check(x, y, 1, t, eps, reps, philox(73))
    p_edge = 1 - np.exp(-t * y[0] * y[1])
    assert abs(rep["p_hat"] - p_edge) <= 4 * np.sqrt(p_edge * (1 - p_edge) / reps)
    assert rep["holds"]


def test_block_system_conservation_exact():
    rng = stream_gen(81, 0)
    mass = rng.random(20)
    weight = rng.random(20)
    edges = rng.integers(20, size=(30, 2))
    sizes = []
    for k in (10, 30):
        root, uf_mass, uf_weight = union_find(mass, weight, edges[:k])
        blocks = BlockSystem(mass, weight, labels=np.unique(root, return_inverse=True)[1])
        roots = blocks.roots()
        assert roots.tolist() == np.unique(root).tolist()
        np.testing.assert_allclose(blocks.mass[roots], uf_mass[roots], rtol=1e-12)
        np.testing.assert_allclose(blocks.weight[roots], uf_weight[roots], rtol=1e-12)
        assert blocks.mass[roots].sum() == pytest.approx(mass.sum(), rel=1e-12)
        assert blocks.weight[roots].sum() == pytest.approx(weight.sum(), rel=1e-12)
        sizes.append(roots.size)
    assert 1 < sizes[0] < 20


def test_block_system_detects_lost_mass(monkeypatch):
    # block sums that lose mass break conservation
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda labels, weights: 0.5 * bincount(labels, weights))
    with pytest.raises(InvariantError):
        BlockSystem([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], labels=np.array([0, 1, 1]))


def test_susceptibility_monotone_in_time_under_shared_clocks():
    # with one set of clock rows, edges only accumulate as t grows, so the sum of
    # squared masses is non-decreasing along t pathwise
    x = np.array([1.0, 0.8, 0.5, 0.3, 0.2])
    y = np.array([0.6, 0.5, 0.7, 0.4, 0.3])
    reps = 3000
    xi = sample_xi_batch(x.size, reps, stream_gen(97, 0))
    prev = None
    for t in (0.1, 0.4, 1.0, 2.5):
        masses = mcmw_batch(x, y, t, reps, philox(0), xi_batch=xi)
        S = np.sum(masses**2, axis=1)
        if prev is not None:
            assert np.all(S >= prev - 1e-9)
        prev = S
