import numpy as np
import pytest

from hcmsim.core import stream_gen
from hcmsim.degrees import (
    DEFAULT_BULK_WHITE,
    DegreeSequence,
    build_degree_sequence,
    make_limit_parameters,
    make_scaling,
)
from hcmsim.exploration import ExplorationTrace, discovery_probability_check, explore, rescale_trace
from hcmsim.graphs import component_table, sample_white_matching


def _seq(white, black=None, n_scale=None):
    white = np.asarray(white, dtype=np.int64)
    black = np.zeros_like(white) if black is None else np.asarray(black, dtype=np.int64)
    sc = make_scaling(n_scale or white.size, 3.5)
    lim = make_limit_parameters(3.5, 2)
    return DegreeSequence(white, black, sc, lim, np.zeros(white.size, bool))


def test_self_loop_trace():
    seq = _seq([2])
    g = sample_white_matching(seq, 0)
    tr = explore(g, 1)
    assert list(tr.X) == [0, 0, -2]
    assert list(tr.N) == [0, 0, 1]
    assert list(tr.tau) == [2]
    comps = tr.components()
    assert comps[0].size == 1 and comps[0].surplus == 1 and comps[0].edge_count == 1


def test_two_vertex_edge_trace():
    seq = _seq([1, 1])
    g = sample_white_matching(seq, 0)
    tr = explore(g, 1)
    assert list(tr.tau) == [2]
    c = tr.components()[0]
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
            walk = sorted((c.size, c.black_half_edges, c.surplus, c.edge_count) for c in tr.components())
            sizes, blacks, white_edges, surplus, *_ = component_table(g)
            oracle = sorted(zip(sizes.tolist(), blacks.tolist(), surplus.tolist(), white_edges.tolist()))
            assert walk == oracle


def test_walk_final_identities():
    lim = make_limit_parameters(3.5, 5)
    sc = make_scaling(300, 3.5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, 4)
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
    g = sample_white_matching(seq, 0)
    tr = explore(g, 3)
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

    sc = ScalingConstants(n=8, tau=3.5, slowly_varying_at_n=1.0, a_n=2.0, b_n=4.0, c_n=2.0)
    Xp, Yp, Np = rescale_trace(tr, sc, T=2.0)
    # step function through (-2 * floor(4t)) / 2 = -floor(4t): slope -4 on grid points
    assert float(Xp.eval(1.0)) == pytest.approx(-4.0)
    assert float(Xp.eval(2.0)) == pytest.approx(-8.0)
    with pytest.raises(ValueError):
        rescale_trace(tr, sc, T=100.0)


def test_rescale_single_step_trivial():
    seq = _seq([2])
    g = sample_white_matching(seq, 0)
    tr = explore(g, 1)
    Xp, Yp, Np = rescale_trace(tr, seq.scaling)
    assert float(Xp.eval(0.0)) == 0.0


def test_vertex_time_walks_spacings_are_sizes():
    lim = make_limit_parameters(3.5, 5)
    sc = make_scaling(150, 3.5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, 6)
    rng = stream_gen(6, 6)
    g = sample_white_matching(seq, rng)
    tr = explore(g, rng)
    _, _, tau_v = tr.vertex_time_walks()
    comps = tr.components()
    spacings = np.diff(np.concatenate(([0], tau_v)))
    assert list(spacings) == [c.size for c in comps]


def test_discovery_probability_bounds():
    lim = make_limit_parameters(3.5, 3)
    sc = make_scaling(400, 3.5)
    seq = build_degree_sequence(sc, lim, 3, DEFAULT_BULK_WHITE, 7)
    t_checks = [0, 5, 20]
    rep = discovery_probability_check(seq, t_checks, replicates=1500, rng_seed=17)
    assert rep["all_contained"], rep
    # t = 0 is trivially zero with zero-width bounds
    for rows in rep["hubs"].values():
        assert rows[0]["p_hat"] == 0.0 and rows[0]["lower"] == 0.0


def test_single_vertex_discovered_immediately():
    seq = _seq([2])
    g = sample_white_matching(seq, 0)
    tr = explore(g, 9)
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
