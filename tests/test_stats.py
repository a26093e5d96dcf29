import numpy as np
import pytest

from hcmsim.core import stream_gen
from hcmsim.stats import (
    ExperimentConfig,
    _sidx,
    build_critical_sequence,
    ks_two_sample,
    sample_limit_pairs,
    theorem_1_6_experiment,
    theorem_1_7_experiment,
    trend_non_increasing,
)


# The ord map and the l2 norms of the paper's state spaces.
def ord_vec(v) -> np.ndarray:
    """The ord map: non-negative entries sorted in decreasing order."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("ord is defined on non-negative vectors")
    return np.sort(v)[::-1]


def l2_norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def l22_norm(pairs) -> float:
    """(sum_i x_i^2 + y_i^2)^{1/2} for a list of (x, y) pairs."""
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return float(np.sqrt(np.sum(arr**2)))


def test_norm_hand_values():
    assert l2_norm([]) == 0.0
    assert l2_norm([3.0, 4.0]) == pytest.approx(5.0)
    assert l22_norm([(3.0, 4.0)]) == pytest.approx(5.0)
    assert l22_norm([(1.0, 1.0), (1.0, 1.0)]) == pytest.approx(2.0)
    assert l22_norm([]) == 0.0


def test_ord_properties():
    v = np.array([0.5, 2.0, 1.0, 0.0])
    o = ord_vec(v)
    assert np.array_equal(o, np.array([2.0, 1.0, 0.5, 0.0]))
    assert np.array_equal(ord_vec(o), o)  # idempotent
    rng = stream_gen(3, 3)
    w = rng.random(30)
    assert l2_norm(ord_vec(w)) == pytest.approx(l2_norm(w), rel=1e-14)
    perm = rng.permutation(30)
    assert np.array_equal(ord_vec(w[perm]), ord_vec(w))
    with pytest.raises(ValueError):
        ord_vec([-1.0, 2.0])


def test_refinement_norm_inequality():
    # merging entries of a refinement can only grow the squared norm
    rng = stream_gen(4, 4)
    for _ in range(200):
        fine = rng.random(12)
        groups = rng.integers(0, 5, size=12)
        coarse = np.array([fine[groups == k].sum() for k in range(5)])
        assert l2_norm(fine) ** 2 <= l2_norm(coarse) ** 2 + 1e-12


def test_ks_two_sample_basics():
    a = np.arange(100.0)
    stat, p = ks_two_sample(a, a)
    assert stat == 0.0
    stat, p = ks_two_sample(np.zeros(50), np.ones(50))
    assert stat == 1.0
    with pytest.raises(ValueError):
        ks_two_sample([1.0] * 5, [2.0] * 50)


def test_ks_self_calibration():
    rng = stream_gen(5, 5)
    a = rng.exponential(size=10_000)
    b = rng.exponential(size=10_000)
    _, p = ks_two_sample(a, b)
    assert p > 1e-3


def test_trend_check_logic():
    assert trend_non_increasing({1: 0.3, 2: 0.2, 3: 0.1})["ok"]
    assert trend_non_increasing({1: 0.3, 2: 0.35, 3: 0.1})["ok"]  # 2 of 3 hold
    assert not trend_non_increasing({1: 0.1, 2: 0.2, 3: 0.3})["ok"]


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=[100, 100])
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=0)
    cfg = ExperimentConfig(n_grid=[500, 200])
    assert cfg.n_grid == [200, 500]


def test_stream_index_fields_cannot_overflow():
    # unchecked, (1, 2**22, 0) would alias (2, 0, 0) and (2, 1000, 2**22) would alias (2, 1001, 0)
    for code, n, r in [(1, 2**22, 0), (2, 1000, 2**22)]:
        with pytest.raises(ValueError):
            _sidx(code, n, r)
    assert _sidx(1, 2**22 - 1, 2**22 - 1) < _sidx(2, 0, 0)
    assert _sidx(2, 1000, 2**22 - 1) < _sidx(2, 1001, 0)
    for bad in (dict(n_grid=[2**22]), dict(n_grid=[-1]), dict(replicates=2**22 + 1),
                dict(limit_replicates=2**22 + 1), dict(n_grid=[100], replicates_by_n={100: 2**22 + 1})):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    ExperimentConfig(n_grid=[2**22 - 1], replicates=2**22, limit_replicates=2**22)


def test_limit_pairs_shape_and_padding():
    cfg = ExperimentConfig(n_grid=[200, 400], replicates=5, limit_replicates=40, top_j=6, master_seed=1)
    pairs = sample_limit_pairs(cfg)
    assert pairs.shape == (40, 13)  # top_j * 2 + tail mass
    assert np.all(pairs[:, -1] >= 0)


def test_thm16_smoke_and_determinism():
    cfg = ExperimentConfig(
        n_grid=[200, 400], replicates=40, limit_replicates=60, master_seed=9, K_max=6, levy_horizon=16.0
    )
    out1 = theorem_1_6_experiment(cfg)
    out2 = theorem_1_6_experiment(cfg)
    assert out1["size_stats"] == out2["size_stats"]
    assert len(out1["records"]) == 2
    for rec in out1["records"]:
        assert 0.0 <= rec["statistic"] <= 1.0
        assert rec["tail_mass"] >= 0.0


def test_thm16_threads_do_not_change_results():
    cfg1 = ExperimentConfig(n_grid=[200], replicates=30, limit_replicates=40, master_seed=2, K_max=5, threads=1)
    cfg8 = ExperimentConfig(n_grid=[200], replicates=30, limit_replicates=40, master_seed=2, K_max=5, threads=8)
    r1 = theorem_1_6_experiment(cfg1)
    r8 = theorem_1_6_experiment(cfg8)
    assert r1["size_stats"] == r8["size_stats"]


def test_thm17_mu_zero_reduces_to_thm16_sizes():
    from hcmsim.graphs import component_table, sample_white_matching
    from hcmsim.dynamics import run_dynamic
    from hcmsim.core import stream_gen as sg

    cfg = ExperimentConfig(n_grid=[300], replicates=25, limit_replicates=30, master_seed=4, K_max=5, mu=0.0)
    seq = build_critical_sequence(cfg, 300)
    for r in range(10):
        rng = sg(cfg.master_seed, r)
        g = sample_white_matching(seq, rng)
        sizes0, *_ = component_table(g)
        state = run_dynamic(g, 0.0, rng)
        assert np.array_equal(state.component_sizes(), sizes0)


def test_thm17_smoke():
    cfg = ExperimentConfig(
        n_grid=[200, 400], replicates=30, limit_replicates=40, master_seed=12, K_max=5, levy_horizon=16.0, mu=0.4
    )
    out = theorem_1_7_experiment(cfg)
    assert len(out["records"]) == 2
    for rec in out["records"]:
        assert 0.0 < rec["giant_fraction"] <= 1.0
        assert rec["largest_over_bn_mean"] > 0


def test_subcritical_lambda_shrinks_largest_component():
    # deeply subcritical tuning drives the rescaled largest component down
    from hcmsim.graphs import component_table, sample_white_matching
    from hcmsim.core import stream_gen as sg

    tops = {}
    for lam in (0.0, -2.0):
        cfg = ExperimentConfig(n_grid=[4000], replicates=60, limit_replicates=30, master_seed=6, lam=lam)
        seq = build_critical_sequence(cfg, 4000)
        b_n = seq.scaling.b_n
        vals = []
        for r in range(60):
            g = sample_white_matching(seq, sg(6, r))
            sizes, *_ = component_table(g)
            vals.append(sizes[0] / b_n)
        tops[lam] = np.mean(vals)
    assert tops[-2.0] < 0.5 * tops[0.0]
