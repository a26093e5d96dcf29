import csv
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from hcmsim.core import stream_gen
from hcmsim.degrees import (
    DEFAULT_BULK_WHITE,
    DegreeSequence,
    ScalingConstants,
    build_degree_sequence,
    make_limit_parameters,
    make_scaling,
)
from hcmsim.exploration import (
    ExplorationTrace,
    _seed_order,
    _walk,
    explore,
    write_trace_csv,
)
from hcmsim.graphs import ColoredMultigraph, labels_from_edges, sample_white_matching
from hcmsim.paths import CadlagPath
from seeding import philox
from test_graphs import full_table, involution, relabel_table
from test_paths import step_path


@dataclass
class DiscoveredComponent:
    ordinal: int
    edge_count: int
    size: int
    black_half_edges: int
    surplus: int


def components(tr: ExplorationTrace) -> list[DiscoveredComponent]:
    out = []
    prev = 0
    for k, t in enumerate(tr.tau, start=1):
        dN = int(tr.N[t] - tr.N[prev])
        out.append(
            DiscoveredComponent(
                ordinal=k,
                edge_count=int(t - prev - 1),
                size=int(t - prev - dN),
                black_half_edges=int(tr.Y[t] - tr.Y[prev]),
                surplus=dN,
            )
        )
        prev = t
    return out


def vertex_time_walks(tr: ExplorationTrace):
    """Walks with surplus steps removed, plus the re-indexed hitting times.

    In vertex time each component occupies exactly ``size`` ticks, so
    the hitting-time spacings reproduce component sizes and the Y
    increments reproduce black half-edge counts.
    """
    keep = np.ones(tr.X.size, dtype=bool)
    keep[1:] = np.diff(tr.N) == 0
    return step_path(tr.X[keep]), step_path(tr.Y[keep]), tr.tau - tr.N[tr.tau]


# Lemma checks on the exploration walk that no CLI command runs.
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


def discovery_probability_check(seq, t_checks, replicates, rng, hubs=None, T_cap=None) -> dict:
    """Empirical P(eta_i <= t) for hub vertices against the a priori bounds.

    For t <= T b_n the per-step discovery chance of vertex i lies between
    d_i/l_n and d_i/(l_n - 2 T b_n), which brackets P(eta_i <= t) between
    d_i t/l_n - d_i^2 t^2/l_n^2 and (d_i/(l_n - 2Tb_n) + d_i^2/(l_n - 2Tb_n)^2) t.
    Monte Carlo bands are 4 binomial standard errors. Diagnostic only.
    """
    if replicates < 1000:
        raise ValueError("discovery probability check needs at least 1e3 replicates")
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


def _seq(white, black=None, n_scale=None):
    white = np.asarray(white, dtype=np.int64)
    black = np.zeros_like(white) if black is None else np.asarray(black, dtype=np.int64)
    sc = make_scaling(n_scale or white.size, 3.5)
    lim = make_limit_parameters(3.5, 2)
    return DegreeSequence(white, black, sc, lim, np.zeros(white.size, bool))


def _matched(white, pairs, black=None):
    """Graph with the white matching given as half-edge pairs."""
    return ColoredMultigraph(_seq(white, black), np.array(pairs, dtype=np.int64).reshape(-1))


def _labels(g):
    return labels_from_edges(g.seq.white_owner, g.seq.white_owner[involution(g.pairs)], g.n)


def _loop_oracle(g, seeds) -> ExplorationTrace:
    """The exploration as one step at a time, starting each new component
    at the next of ``seeds``."""
    seq = g.seq
    n = seq.n
    d_w = seq.white
    d_b = seq.black
    owner = g.seq.white_owner
    match = involution(g.pairs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(d_w, out=indptr[1:])
    is_alive = np.ones(owner.size, dtype=bool)
    alive_count = owner.size
    discovered = np.zeros(n, dtype=bool)
    eta = np.full(n, -1, dtype=np.int64)
    next_he = indptr[:-1].copy()  # per-vertex cursor over its half-edges
    queue: deque[int] = deque()
    exploring = -1
    order: list[int] = []
    seeds = iter(seeds)
    X, Y, N = [0], [0], [0]
    tau: list[int] = []
    t = 0

    def has_active(v: int) -> bool:
        c = next_he[v]
        while c < indptr[v + 1] and not is_alive[c]:
            c += 1
        next_he[v] = c
        return c < indptr[v + 1]

    def discover(v: int, gain: int, black: int):
        discovered[v] = True
        eta[v] = t
        order.append(v)
        X.append(X[-1] + gain)
        Y.append(Y[-1] + black)
        N.append(N[-1])

    while alive_count > 0:
        if exploring < 0:
            while queue:
                v = queue.popleft()
                if has_active(v):
                    exploring = v
                    break
            if exploring < 0:
                v = int(next(seeds))
                assert not discovered[v]
                t += 1
                discover(v, int(d_w[v]) - 2, int(d_b[v]))
                exploring = v
                continue
        v = exploring
        assert has_active(v)
        e = int(next_he[v])
        f = int(match[e])
        assert is_alive[f]
        is_alive[e] = is_alive[f] = False
        alive_count -= 2
        u = int(owner[f])
        t += 1
        if not discovered[u]:
            discover(u, int(d_w[u]) - 2, int(d_b[u]))
            if has_active(u):
                queue.append(u)
        else:
            X.append(X[-1] - 2)
            Y.append(Y[-1])
            N.append(N[-1] + 1)
        if not has_active(v):
            exploring = -1
        if X[-1] == -2 * (len(tau) + 1):
            tau.append(t)
            assert exploring < 0 and not any(has_active(u) for u in queue)
            queue.clear()
    return ExplorationTrace(np.array(X), np.array(Y), np.array(N), eta, np.array(tau), np.array(order))


def _assert_kernel_equals_oracle(g, seeds):
    tr = _walk(g, seeds)
    oracle = _loop_oracle(g, seeds)
    for field in ("X", "Y", "N", "eta", "tau", "order"):
        assert np.array_equal(getattr(tr, field), getattr(oracle, field)), field


_SMALL_GRAPHS = {
    "self_loop": ([2], [(0, 1)]),
    "two_vertex": ([1, 1], [(0, 1)]),
    "multi_edge": ([3, 3], [(0, 4), (1, 3), (2, 5)]),
    "multi_edge_and_loops": ([2, 4, 2], [(0, 3), (1, 4), (2, 5), (6, 7)]),
    "all_degree_one": ([1] * 8, [(0, 5), (1, 2), (3, 7), (4, 6)]),
}


@pytest.mark.parametrize("name", sorted(_SMALL_GRAPHS))
def test_kernel_equals_loop_oracle_small(name):
    white, pairs = _SMALL_GRAPHS[name]
    g = _matched(white, pairs, black=np.arange(len(white)) % 3)
    for seed in range(10):
        _assert_kernel_equals_oracle(g, _seed_order(g, stream_gen(seed, 0)))


@pytest.mark.parametrize("n", [1000, 10_000])
@pytest.mark.parametrize("seed", [1, 2, 9001])
def test_kernel_equals_loop_oracle_critical(n, seed):
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    seq = build_critical_sequence(ExperimentConfig(master_seed=seed), n)
    g = sample_white_matching(seq, stream_gen(seed, 2))
    labels = _labels(g)
    seeds = _seed_order(g, stream_gen(seed, 3))
    _assert_kernel_equals_oracle(g, seeds)
    # any seed order works: components reversed, each started at its last vertex
    last = np.zeros(labels.max() + 1, dtype=np.int64)
    last[labels] = np.arange(g.n)
    _assert_kernel_equals_oracle(g, last[labels[seeds]][::-1])
    tr = explore(g, stream_gen(seed, 3))
    assert np.array_equal(tr.X, _walk(g, seeds).X)


def _chi2_gate(counts, probs, alpha=1e-3) -> bool:
    """Pearson goodness of fit of ``counts`` to ``probs`` at level alpha."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() * np.asarray(probs, dtype=float)
    stat = np.sum((counts - expected) ** 2 / expected)
    return stat <= chi2.ppf(1.0 - alpha, counts.size - 1)


# three components: {0, 1} with 4 white half-edges, {2, 3} with 2, {4, 5, 6} with 8
_LAW_GRAPH = ([3, 1, 1, 1, 4, 3, 1], [(0, 1), (2, 3), (4, 5), (6, 10), (7, 8), (9, 13), (11, 12)])


def _component_order_law(white_per_component):
    """Probability of each order of the components under size-biased sampling."""
    from itertools import permutations

    w = np.asarray(white_per_component, dtype=float)
    orders = list(permutations(range(w.size)))
    probs = []
    for o in orders:
        left, p = w.sum(), 1.0
        for c in o:
            p *= w[c] / left
            left -= w[c]
        probs.append(p)
    return orders, np.array(probs)


def _seed_gates(seed_draws, labels, white):
    """(component-order gate, seed-within-component gate) over repeated
    draws of the seed order, each a sequence of seed vertices."""
    comps = labels.max() + 1
    w_comp = np.bincount(labels, weights=white)
    orders, probs = _component_order_law(w_comp)
    index = {o: k for k, o in enumerate(orders)}
    order_counts = np.zeros(len(orders))
    seed_counts = np.zeros(labels.size)
    for seeds in seed_draws:
        order_counts[index[tuple(labels[seeds].tolist())]] += 1
        seed_counts[seeds] += 1
    order_ok = _chi2_gate(order_counts, probs)
    # each component's seed follows its vertices' white degrees
    expected = len(seed_draws) * white / w_comp[labels]
    stat = np.sum((seed_counts - expected) ** 2 / expected)
    seed_ok = stat <= chi2.ppf(1.0 - 1e-3, labels.size - comps)
    return order_ok, seed_ok


def test_seed_order_is_size_biased():
    g = _matched(*_LAW_GRAPH)
    labels = _labels(g)
    white = g.seq.white.astype(float)
    rng = stream_gen(2024, 0)
    draws = [_seed_order(g, rng) for _ in range(4000)]
    assert all(sorted(labels[s].tolist()) == [0, 1, 2] for s in draws)
    assert _seed_gates(draws, labels, white) == (True, True)


def test_seed_order_gates_reject_wrong_laws():
    g = _matched(*_LAW_GRAPH)
    labels = _labels(g)
    white = g.seq.white.astype(float)
    rng = stream_gen(2024, 1)
    members = [np.flatnonzero(labels == c) for c in range(3)]

    def draw(component_order, vertex_law):
        return np.array([rng.choice(members[c], p=vertex_law(members[c])) for c in component_order])

    by_degree = lambda vs: white[vs] / white[vs].sum()  # noqa: E731
    uniform = lambda vs: np.full(vs.size, 1.0 / vs.size)  # noqa: E731
    uniform_components = [draw(rng.permutation(3), by_degree) for _ in range(4000)]
    assert _seed_gates(uniform_components, labels, white) == (False, True)
    kernel_orders = [labels[_seed_order(g, rng)] for _ in range(4000)]
    uniform_vertices = [draw(o, uniform) for o in kernel_orders]
    assert _seed_gates(uniform_vertices, labels, white) == (True, False)


def test_self_loop_trace():
    seq = _seq([2])
    g = sample_white_matching(seq, philox(0))
    tr = explore(g, philox(1))
    assert list(tr.X) == [0, 0, -2]
    assert list(tr.N) == [0, 0, 1]
    assert list(tr.tau) == [2]
    comps = components(tr)
    assert comps[0].size == 1 and comps[0].surplus == 1 and comps[0].edge_count == 1


def test_two_vertex_edge_trace():
    seq = _seq([1, 1])
    g = sample_white_matching(seq, philox(0))
    tr = explore(g, philox(1))
    assert list(tr.tau) == [2]
    c = components(tr)[0]
    assert c.edge_count == 1 and c.size == 2 and c.surplus == 0


def test_trace_matches_union_find_oracle():
    lim = make_limit_parameters(3.5, 10)
    rng = stream_gen(12, 0)
    for n in (30, 100, 400):
        sc = make_scaling(n, 3.5)
        seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, rng)
        for _ in range(30):
            g = sample_white_matching(seq, rng)
            tr = explore(g, rng)
            walk = sorted((c.size, c.black_half_edges, c.surplus, c.edge_count) for c in components(tr))
            sizes, blacks, white_edges, surplus, *_ = relabel_table(g)
            oracle = sorted(zip(sizes.tolist(), blacks.tolist(), surplus.tolist(), white_edges.tolist()))
            assert walk == oracle


def test_walk_final_identities():
    lim = make_limit_parameters(3.5, 5)
    sc = make_scaling(300, 3.5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, philox(4))
    rng = stream_gen(5, 5)
    g = sample_white_matching(seq, rng)
    tr = explore(g, rng)
    assert tr.X[-1] == seq.total_white - 2 * tr.steps
    assert tr.Y[-1] == seq.total_black
    assert np.all(tr.X[tr.tau] == -2 * np.arange(1, tr.tau.size + 1))
    # X hits each -2k for the first time at tau_k
    for k, t in enumerate(tr.tau, start=1):
        assert np.all(tr.X[:t] > -2 * k)
    # increments limited to {-2} union {d - 2}
    dX = set(np.diff(tr.X).tolist())
    allowed = {-2} | {int(d) - 2 for d in seq.white}
    assert dX <= allowed


def test_eta_marks_discovery_steps():
    seq = _seq([2, 1, 1])
    g = sample_white_matching(seq, philox(0))
    tr = explore(g, philox(3))
    order = tr.order
    assert sorted(order.tolist()) == [0, 1, 2]
    for v in range(3):
        assert tr.eta[v] >= 1
        step = int(tr.eta[v])
        gain = tr.X[step] - tr.X[step - 1]
        assert gain == seq.white[v] - 2


def test_rescale_trace_arithmetic():
    # X = -2t: one component would not produce this; build the trace directly
    X = np.arange(0, -22, -2)
    tr = ExplorationTrace(
        X=X,
        Y=np.zeros_like(X),
        N=np.zeros_like(X),
        eta=np.zeros(1, dtype=np.int64),
        tau=np.array([k for k in range(1, 11)], dtype=np.int64),
        order=np.zeros(1, dtype=np.int64),
    )
    from hcmsim.degrees import ScalingConstants

    sc = ScalingConstants(n=8, tau=3.5, a_n=2.0, b_n=4.0, c_n=2.0)
    Xp, Yp, Np = rescale_trace(tr, sc, T=2.0)
    # step function through (-2 * floor(4t)) / 2 = -floor(4t): slope -4 on grid points
    assert float(Xp.eval(1.0)) == pytest.approx(-4.0)
    assert float(Xp.eval(2.0)) == pytest.approx(-8.0)
    with pytest.raises(ValueError):
        rescale_trace(tr, sc, T=100.0)


def test_rescale_single_step_trivial():
    seq = _seq([2])
    g = sample_white_matching(seq, philox(0))
    tr = explore(g, philox(1))
    Xp, Yp, Np = rescale_trace(tr, seq.scaling)
    assert float(Xp.eval(0.0)) == 0.0


def test_vertex_time_walks_spacings_are_sizes():
    lim = make_limit_parameters(3.5, 5)
    sc = make_scaling(150, 3.5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, philox(6))
    rng = stream_gen(6, 6)
    g = sample_white_matching(seq, rng)
    tr = explore(g, rng)
    _, _, tau_v = vertex_time_walks(tr)
    comps = components(tr)
    spacings = np.diff(np.concatenate(([0], tau_v)))
    assert list(spacings) == [c.size for c in comps]


def test_discovery_probability_bounds():
    lim = make_limit_parameters(3.5, 3)
    sc = make_scaling(400, 3.5)
    seq = build_degree_sequence(sc, lim, 3, DEFAULT_BULK_WHITE, philox(7))
    t_checks = [0, 5, 20]
    rep = discovery_probability_check(seq, t_checks, replicates=1500, rng=philox(17))
    assert rep["all_contained"], rep
    # t = 0 is trivially zero with zero-width bounds
    for rows in rep["hubs"].values():
        assert rows[0]["p_hat"] == 0.0 and rows[0]["lower"] == 0.0


def test_single_vertex_discovered_immediately():
    seq = _seq([2])
    g = sample_white_matching(seq, philox(0))
    tr = explore(g, philox(9))
    assert tr.eta[0] == 1


def test_rescaled_walk_mean_matches_limit_oracle():
    # desk-scale check of the scaling: mean of X_n(b_n t)/a_n against the
    # Monte Carlo / closed-form mean of the limit process at matched
    # parameters (exploration clock convention)
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    cfg = ExperimentConfig(n_grid=[100_000], master_seed=11)
    seq = build_critical_sequence(cfg, 100_000)
    a_n, b_n = seq.scaling.a_n, seq.scaling.b_n
    lim = seq.limits
    theta, kappa, lam = lim.theta, lim.kappa, lim.lam

    def limit_mean(t):
        return lam * t - np.sum(theta**2) / kappa * t + np.sum(theta * (1.0 - np.exp(-theta * t / kappa)))

    reps = 60
    ts = [0.5, 1.0]
    acc = np.zeros((reps, len(ts)))
    for r in range(reps):
        rng = stream_gen(11, r)
        g = sample_white_matching(seq, rng)
        tr = explore(g, rng)
        for j, t in enumerate(ts):
            acc[r, j] = tr.X[min(int(b_n * t), tr.steps)] / a_n
    for j, t in enumerate(ts):
        se = acc[:, j].std(ddof=1) / np.sqrt(reps)
        assert abs(acc[:, j].mean() - limit_mean(t)) <= 3 * se, (t, acc[:, j].mean(), limit_mean(t))


@st.composite
def _small_walks(draw):
    """Explorations of white graphs on 1-10 vertices with even white totals."""
    n = draw(st.integers(1, 10))
    white = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    black = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    white[-1] += sum(white) % 2
    g = sample_white_matching(_seq(white, black), philox(draw(st.integers(0, 2**32 - 1))))
    return g, explore(g, philox(draw(st.integers(0, 2**32 - 1))))


_PROPERTY = settings(max_examples=200)


@_PROPERTY
@given(_small_walks())
def test_walk_euler_per_component(walk):
    g, tr = walk
    assert sorted(tr.order.tolist()) == list(range(g.n))
    start = 0
    for c in components(tr):
        members = tr.order[start : start + c.size]
        start += c.size
        assert 2 * c.edge_count == g.seq.white[members].sum()
        assert c.edge_count == c.size - 1 + c.surplus and c.surplus >= 0
        assert c.black_half_edges == g.seq.black[members].sum()


@_PROPERTY
@given(_small_walks())
def test_walk_first_hits_minus_2k_at_tau(walk):
    _, tr = walk
    for k, t in enumerate(tr.tau, start=1):
        assert tr.X[t] == -2 * k
        assert tr.X[:t].min() > -2 * k
    assert tr.tau[-1] == tr.steps


@_PROPERTY
@given(_small_walks())
def test_walk_multiset_equals_component_table(walk):
    g, tr = walk
    walk_rows = sorted((c.size, c.black_half_edges, c.surplus, c.edge_count) for c in components(tr))
    sizes, blacks, white_edges, surplus, *_ = full_table(g)
    assert walk_rows == sorted(zip(sizes.tolist(), blacks.tolist(), surplus.tolist(), white_edges.tolist()))


@_PROPERTY
@given(_small_walks())
def test_eta_marks_exactly_the_discovery_steps(walk):
    g, tr = walk
    assert sorted(tr.eta.tolist()) == (np.flatnonzero(np.diff(tr.N) == 0) + 1).tolist()
    assert np.array_equal(tr.eta[tr.order], np.sort(tr.eta))
    assert np.array_equal(tr.X[tr.eta] - tr.X[tr.eta - 1], g.seq.white - 2)
    assert np.array_equal(tr.Y[tr.eta] - tr.Y[tr.eta - 1], g.seq.black)


@pytest.mark.parametrize("stride", [0, -3])
def test_trace_csv_refuses_a_stride_below_one(tmp_path, stride):
    tr = explore(sample_white_matching(_seq([3, 2, 1, 1, 1]), philox(1)), philox(2))
    with pytest.raises(ValueError, match="stride"):
        write_trace_csv(tr, tmp_path / "t.csv", stride=stride)
    assert not (tmp_path / "t.csv").exists()


def _csv_writer_trace(tr, path, stride):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "X", "Y", "N"])
        for t in range(0, tr.X.size, stride):
            writer.writerow([t, int(tr.X[t]), int(tr.Y[t]), int(tr.N[t])])


@pytest.mark.parametrize("stride", [1, 3, 40_000])
def test_trace_csv_bytes_equal_csv_writer(tmp_path, stride):
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    seq = build_critical_sequence(ExperimentConfig(master_seed=1), 20_000)
    tr = explore(sample_white_matching(seq, philox(1)), philox(2))
    assert tr.X.size > 16384  # more than one chunk
    write_trace_csv(tr, tmp_path / "new.csv", stride=stride)
    _csv_writer_trace(tr, tmp_path / "old.csv", stride)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

