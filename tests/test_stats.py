import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp

from hcmsim.core import InvariantError, stream_gen
from hcmsim.degrees import make_limit_parameters
from hcmsim.excursions import gamma_down
from hcmsim.levy import exploration_limit_params, sample_thinned_levy
from hcmsim.stats import (
    ExperimentConfig,
    _pad_pairs,
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


def test_ks_two_sample_rejects_non_finite_samples():
    # a NaN or infinity must stop the run (exit 3), never reach a report
    good = np.linspace(0.0, 1.0, 20)
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = good.copy()
        spoiled[7] = bad
        for a, b in ((spoiled, good), (good, spoiled)):
            with pytest.raises(InvariantError, match="non-finite"):
                ks_two_sample(a, b)
    with pytest.raises(ValueError, match="at least 10"):
        ks_two_sample([np.nan] * 9, good)


# few distinct values, so ties within and across the samples are common
_KS_POOL = [0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, 1e300]
_KS_SAMPLE = hnp.arrays(
    float,
    st.integers(10, 300),
    elements=st.one_of(st.sampled_from(_KS_POOL), st.floats(-1e6, 1e6, allow_nan=False)),
)


@settings(max_examples=300)
@given(_KS_SAMPLE, _KS_SAMPLE, st.sampled_from([None, 0, 1]))
@example(np.arange(10.0), np.arange(300.0) / 30, None)
@example(np.zeros(17), np.r_[np.zeros(40), np.ones(3)], None)
def test_ks_statistic_equals_scipy_bit_for_bit(a, b, decimals):
    # method="asymp" keeps d as computed; "exact" rounds it onto the
    # 1/lcm(n1, n2) lattice, which can move its last bit
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    assert ks_two_sample(a, b)[0] == ks_2samp(a, b, method="asymp").statistic


def _ks_lattice(n1, n2):
    """Sample pairs of sizes n1, n2, one for each value d = |i/n1 - j/n2| a
    KS statistic can take: i points of the first sample and j of the second
    at 0, the rest at 1."""
    g = math.gcd(n1, n2)
    i, j = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    k = np.abs(i * (n2 // g) - j * (n1 // g)).ravel()
    _, first = np.unique(k, return_index=True)
    for i0, j0 in zip(i.ravel()[first], j.ravel()[first]):
        yield np.repeat([0.0, 1.0], [i0, n1 - i0]), np.repeat([0.0, 1.0], [j0, n2 - j0])


@pytest.mark.parametrize("n1,n2", [(10, 150), (50, 250), (100, 150)])
def test_ks_p_value_near_the_exact_two_sample_p_value(n1, n2):
    from scipy.special import kolmogorov

    root = np.sqrt(n1 * n2 / (n1 + n2))
    err = uncorrected = 0.0
    for count, (a, b) in enumerate(_ks_lattice(n1, n2), 1):
        d, p = ks_two_sample(a, b)
        exact = ks_2samp(a, b, method="exact").pvalue
        err = max(err, abs(p - exact))
        uncorrected = max(uncorrected, abs(kolmogorov(root * d) - exact))
    assert count >= n1 * n2 // math.gcd(n1, n2)  # all but a few of the k / lcm(n1, n2)
    assert err <= 0.02
    if (n1, n2) == (10, 150):
        # the gate can fail: without Stephens' 0.12 + 0.11 / sqrt(Ne) the
        # Kolmogorov law is 0.067 off at these sizes
        assert uncorrected > 0.05


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


def test_limit_pairs_open_the_same_streams_at_any_replicate_count(monkeypatch):
    import hcmsim.stats as stats

    opened = []

    def spy(*args):
        opened.append(args)
        return stream_gen(*args)

    monkeypatch.setattr(stats, "stream_gen", spy)
    by_count = {}
    for R in (10, 40):
        opened.clear()
        cfg = ExperimentConfig(limit_replicates=R, top_j=6, master_seed=1, K_max=5, levy_horizon=16.0)
        by_count[R] = sample_limit_pairs(cfg), list(opened)
    assert by_count[10][1] == by_count[40][1]
    # row r does not depend on the replicate count
    assert by_count[10][0].tobytes() == by_count[40][0][:10].tobytes()


def test_limit_row_r_is_the_rth_path_draw_on_one_stream():
    cfg = ExperimentConfig(limit_replicates=30, top_j=6, master_seed=1, K_max=5, levy_horizon=16.0)
    rows = sample_limit_pairs(cfg)
    params = exploration_limit_params(make_limit_parameters(cfg.tau, cfg.K_max, lam=cfg.lam))
    rng = stream_gen(cfg.master_seed, _sidx(4, 0))
    for r in range(cfg.limit_replicates):
        real = sample_thinned_levy(params, cfg.levy_horizon, rng)
        if r in (0, 1, 7, 29):
            assert rows[r].tobytes() == _pad_pairs(gamma_down(real.X_path, real.Y_path), cfg.top_j).tobytes(), r


def _off_by_one_ulp(monkeypatch):
    """Make the array pass return row 0 one ulp away from the path form."""
    import hcmsim.stats as stats

    batch = stats.limit_pairs_batch

    def nudged(*args):
        rows = batch(*args)
        rows[0, 0] = np.nextafter(rows[0, 0], np.inf)
        return rows

    monkeypatch.setattr(stats, "limit_pairs_batch", nudged)


def test_limit_pairs_cross_check_replicate_zero(monkeypatch):
    cfg = ExperimentConfig(n_grid=[200], replicates=5, limit_replicates=20, top_j=6, master_seed=1)
    sample_limit_pairs(cfg)
    _off_by_one_ulp(monkeypatch)
    with pytest.raises(InvariantError, match="replicate 0"):
        sample_limit_pairs(cfg)


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


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("experiment", [theorem_1_6_experiment, theorem_1_7_experiment])
def test_one_pool_per_experiment(monkeypatch, experiment, threads):
    # the degree builds, the limit side and every (n, r) replicate are tasks
    # of one pool, at every thread count
    import hcmsim.stats as stats

    made = []

    class Counting(stats.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(stats, "ThreadPoolExecutor", Counting)
    cfg = ExperimentConfig(n_grid=[200, 300], replicates=10, limit_replicates=12, master_seed=1, K_max=5,
                           threads=threads)
    experiment(cfg)
    assert made == [threads]


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


def test_thm17_cross_checks_limit_mc2_replicate_zero(monkeypatch):
    import hcmsim.stats as stats

    cfg = ExperimentConfig(n_grid=[200], replicates=10, limit_replicates=12, master_seed=1, K_max=5)
    theorem_1_7_experiment(cfg)
    batch = stats.mcmw_batch

    def nudged(*args):
        masses = batch(*args)
        masses[0, 0] = np.nextafter(masses[0, 0], np.inf)
        return masses

    monkeypatch.setattr(stats, "mcmw_batch", nudged)
    with pytest.raises(InvariantError, match="replicate 0"):
        theorem_1_7_experiment(cfg)


def test_thm17_cross_check_sees_the_edges_of_a_merging_replicate(monkeypatch):
    import hcmsim.stats as stats

    # at mu = 1 most limit replicates end as one block, whose mass is the
    # row's total whatever edges were drawn; the checked replicate merged a
    # pair and kept two or more blocks, so weights from the wrong row show
    cfg = ExperimentConfig(n_grid=[200], replicates=10, limit_replicates=12, master_seed=1, K_max=5)
    theorem_1_7_experiment(cfg)
    batch = stats.mcmw_batch
    monkeypatch.setattr(stats, "mcmw_batch", lambda x, y, *args: batch(x, y[::-1], *args))
    with pytest.raises(InvariantError, match="limit replicate"):
        theorem_1_7_experiment(cfg)
