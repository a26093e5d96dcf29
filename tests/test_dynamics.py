import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2_contingency, chisquare, ks_2samp, kstest

from hcmsim.coalescent import BlockSystem, mcmw_batch
from hcmsim.core import InvariantError, stream_gen
from hcmsim.degrees import DegreeSequence, make_limit_parameters, make_scaling
from hcmsim.dynamics import (
    EVENT_DTYPE,
    PercolationState,
    run_coupled,
    run_dynamic,
    run_modified,
)
from hcmsim.exploration import explore
from hcmsim.graphs import ColoredMultigraph, component_table, merged_sizes, sample_white_matching
from seeding import philox
from test_graphs import component_labels, percolate_black, relabel_table, sample_black_matching


# Lemma checks on the percolation dynamics that no CLI command runs, used
# by these tests and the acceptance suite.
def q_trajectory_check(
    g: ColoredMultigraph,
    T: float,
    replicates: int,
    rng,
    delta_exponent: float = 0.4,
    t_mean_check: float = 1.0,
) -> dict:
    """Deviation of Q(t)/n from the pure-death ODE solution (Q(0)/n) e^{-t}.

    Records sup_{t <= T/c_n} |Q(t)/n - (Q(0)/n) e^{-t}| per replicate and
    the exceedance rate of delta_n = n^{-delta_exponent}, to compare with
    the bound 2 gamma T / (delta_n^2 n c_n). Also reports the mean of
    Q(t)/n at ``t_mean_check`` against its exact value. All replicates are
    held at once: memory is O(replicates * Q(0)).
    """
    if replicates < 100:
        raise ValueError("trajectory check needs at least 1e2 replicates")
    n = g.n
    q0 = g.seq.total_black // 2
    c_n = g.seq.scaling.c_n
    gamma = g.seq.total_black / n
    horizon_sup = T / c_n
    delta_n = n ** (-delta_exponent)
    # one row of pairing-clock event times per replicate, drawn as the
    # successive waiting times of the pure-death chain (rates Q0, Q0-1, ...)
    rates = np.arange(q0, 0, -1, dtype=float)
    times = np.cumsum(rng.exponential(1.0 / rates, size=(replicates, q0)), axis=1)
    # Q/n is constant between events and the ODE curve is monotone, so the
    # sup is attained at event times (just before/after) or the endpoints.
    k = np.sum(times <= horizon_sup, axis=1)
    j = np.arange(1, q0 + 1)
    f = q0 * np.exp(-times)
    dev = np.maximum(np.abs(q0 - (j - 1) - f), np.abs(q0 - j - f)) / n
    at_events = np.where(j <= k[:, None], dev, 0.0).max(axis=1, initial=0.0)
    sups = np.maximum(at_events, np.abs(q0 - k - q0 * np.exp(-horizon_sup)) / n)
    q_at_t = (q0 - np.sum(times <= t_mean_check, axis=1)) / n
    exceed = float(np.mean(sups > delta_n))
    bound = 2.0 * gamma * T / (delta_n**2 * n * c_n)
    se_exceed = float(np.sqrt(max(exceed * (1 - exceed), 1.0 / replicates) / replicates))
    mean_target = q0 * np.exp(-t_mean_check) / n
    sd = float(np.std(q_at_t, ddof=1))
    return {
        "sup_deviation_mean": float(np.mean(sups)),
        "delta_n": delta_n,
        "exceedance_rate": exceed,
        "exceedance_bound": bound,
        "exceedance_stderr": se_exceed,
        "exceedance_ok": bool(exceed <= bound + 4 * se_exceed),
        "mean_q_at_t": float(np.mean(q_at_t)),
        "mean_q_target": float(mean_target),
        "mean_q_sd": sd,
        "mean_ok": bool(abs(np.mean(q_at_t) - mean_target) <= 3 * sd / np.sqrt(replicates)),
    }


def edge_probability_estimate(
    g: ColoredMultigraph,
    component_i: np.ndarray,
    component_j: np.ndarray,
    s: float,
    replicates: int,
    rng,
) -> float:
    """Monte Carlo frequency that a black edge joins the two components by
    time s*gamma_n/c_n in the dynamic process, given the initial graph."""
    in_i = np.zeros(g.n, dtype=bool)
    in_j = np.zeros(g.n, dtype=bool)
    in_i[np.asarray(component_i, dtype=np.int64)] = True
    in_j[np.asarray(component_j, dtype=np.int64)] = True
    if np.any(in_i & in_j):
        raise ValueError("components must be disjoint")
    gamma_n = g.seq.total_black / g.n
    horizon = s * gamma_n / g.seq.scaling.c_n
    hits = 0
    for _ in range(replicates):
        u, v = run_dynamic(g, horizon, rng).event_vertex_pairs().T
        hits += bool(np.any((in_i[u] & in_j[v]) | (in_j[u] & in_i[v])))
    return hits / replicates


def modified_block_view(g: ColoredMultigraph) -> BlockSystem:
    """Initial blocks of the modified process: one block per component of
    G_n(0) with mass = size and weight = incident black half-edges."""
    sizes, blacks, *_ = component_table(g)
    return BlockSystem(sizes.astype(float), blacks.astype(float))


def _graph(white, black, seed=0, pairs=None):
    """Graph on the degrees with its white matching sampled, or ``pairs``."""
    white = np.asarray(white, dtype=np.int64)
    black = np.asarray(black, dtype=np.int64)
    sc = make_scaling(white.size, 3.5)
    lim = make_limit_parameters(3.5, 2)
    seq = DegreeSequence(white, black, sc, lim, np.zeros(white.size, bool))
    return sample_white_matching(seq, philox(seed)) if pairs is None else ColoredMultigraph(seq, np.array(pairs))


def test_zero_horizon_no_events():
    g = _graph([1, 1, 2, 2], [2, 2, 1, 1])
    for runner in (run_dynamic, run_modified):
        state = runner(g, 0.0, philox(3))
        assert len(state.event_log) == 0
        assert state.q0 == 3


def test_single_pair_exponential_clock():
    g = _graph([1, 1], [1, 1])
    rng = stream_gen(5, 0)
    reps = 60_000
    s = 0.8
    paired = sum(len(run_dynamic(g, s, rng).event_log) for _ in range(reps))
    p = 1 - np.exp(-s)
    assert abs(paired / reps - p) <= 3 * np.sqrt(p * (1 - p) / reps)


def test_q_decreases_by_one_per_event():
    g = _graph([1, 1, 2, 2], [2, 2, 2, 2], seed=2)
    state = run_dynamic(g, 10.0, philox(7))
    assert state.q0 == 4
    assert len(state.event_log) == state.q0  # every pair formed by time 10
    he = state.event_log[["a", "b"]].tolist()
    assert len({h for pair in he for h in pair}) == 2 * state.q0
    times = state.event_log["time"].tolist()
    assert times == sorted(times)
    assert len(set(times)) == len(times)


# Law gates of run_dynamic's direct draws. Each fails under a wrong law:
# a Poisson(Q0 s) count, untruncated Exp(1) times, unshuffled or
# with-replacement picks.


def test_dynamic_event_count_binomial():
    g = _graph([1, 1, 2, 2], [2, 2, 2, 2], seed=2)  # Q0 = 4
    rng = stream_gen(41, 0)
    reps, s = 20_000, 0.7
    counts = np.bincount([len(run_dynamic(g, s, rng).event_log) for _ in range(reps)], minlength=5)
    assert counts.size == 5
    expected = reps * binom.pmf(np.arange(5), 4, -np.expm1(-s))
    assert chisquare(counts, expected).pvalue > 1e-3


def test_dynamic_event_times_truncated_exponential():
    # given the count, the times are i.i.d. Exp(1) truncated to [0, s]
    g = _graph([1, 1, 2, 2], [2, 2, 2, 2], seed=2)
    rng = stream_gen(43, 0)
    s = 0.7
    logs = [run_dynamic(g, s, rng).event_log for _ in range(6000)]
    cdf = lambda t: np.minimum(np.expm1(-t) / np.expm1(-s), 1.0)  # noqa: E731
    for k in range(1, 5):
        times = np.concatenate([log["time"] for log in logs if len(log) == k])
        assert times.size > 1000
        assert kstest(times, cdf).pvalue > 1e-3, k
        assert np.all(times <= s)


def test_dynamic_first_pair_uniform():
    # the first event pairs an ordered pair uniform over the n_he (n_he - 1)
    # ordered pairs of distinct half-edges; at s = 2 all Q0 pairs form in
    # 65% of the runs
    g = _graph([1, 1, 2, 2], [2, 2, 1, 1])  # n_he = 6
    n_he = 6
    rng = stream_gen(47, 0)
    logs = [run_dynamic(g, 2.0, rng).event_log for _ in range(30_000)]
    a, b = np.array([(log["a"][0], log["b"][0]) for log in logs if len(log)]).T
    assert np.all(a != b)
    code = a * (n_he - 1) + b - (b > a)  # index among the ordered pairs a != b
    counts = np.bincount(code, minlength=n_he * (n_he - 1))
    assert chisquare(counts).pvalue > 1e-3


def test_dynamic_first_pick_uniform_on_a_sparse_sample():
    # with more than 1e4 half-edges and 2K at most a fiftieth of them, numpy
    # draws the picks by Floyd's method, whose raw order is not exchangeable;
    # the first pick must still be uniform over the half-edges
    n_he = 10_050
    g = _graph([1, 1], [n_he // 2, n_he // 2], pairs=[0, 1])
    s = -np.log1p(-70 / (n_he // 2))  # 70 events on average
    rng = stream_gen(53, 0)
    first = np.array([run_dynamic(g, s, rng).event_log["a"][0] for _ in range(10_000)])
    counts = np.bincount(first // (n_he // 50), minlength=50)  # 50 bins of 201
    assert chisquare(counts).pvalue > 1e-3


class _RepeatingPicks:
    """Generator stand-in whose half-edge picks repeat one half-edge."""

    def __init__(self, picks):
        self.picks = np.asarray(picks)
        self.rng = np.random.default_rng(0)

    def binomial(self, n, p):
        return self.picks.size // 2

    def random(self, size):
        return self.rng.random(size)

    def choice(self, n, size, replace=True):
        return self.picks


@pytest.mark.parametrize("picks", [[0, 1, 2, 0], [3, 3], [1, 2, 0, 5, 4, 2]])
def test_repeated_half_edge_raises_invariant_error(picks):
    import hcmsim.dynamics as dynamics

    g = _graph([1, 1, 2, 2], [2, 2, 1, 1])
    with pytest.raises(InvariantError):
        dynamics.run_dynamic(g, 1.0, _RepeatingPicks(picks))
    log = np.zeros(len(picks) // 2, dtype=EVENT_DTYPE)
    log["a"], log["b"] = picks[0::2], picks[1::2]
    with pytest.raises(InvariantError):
        dynamics._check_partial_matching(log)


def test_modified_event_count_poisson():
    g = _graph([1, 1], [2, 2], seed=3)
    rng = stream_gen(9, 0)
    reps = 40_000
    s = 1.2
    q0 = 2
    counts = np.array([len(run_modified(g, s, rng).event_log) for _ in range(reps)])
    lam = q0 * s
    assert abs(counts.mean() - lam) <= 3 * np.sqrt(lam / reps)
    assert abs(counts.var(ddof=1) - lam) <= 4 * np.sqrt(2 * lam**2 / reps) + 0.05


def test_dynamic_marginal_equals_static_percolation():
    # same conditional law given the white graph: KS on largest component size
    rng = stream_gen(13, 0)
    lim = make_limit_parameters(3.5, 2)
    sc = make_scaling(60, 3.5)
    white = np.full(60, 2, dtype=np.int64)
    black = np.tile([2, 1, 1, 0], 15).astype(np.int64)
    seq = DegreeSequence(white, black, sc, lim, np.zeros(60, bool))
    g = sample_white_matching(seq, philox(99))
    s = 0.7
    reps = 3000
    dyn = np.empty(reps)
    stat = np.empty(reps)
    for r in range(reps):
        dyn[r] = run_dynamic(g, s, rng).component_sizes()[0]
        gb = sample_black_matching(g, rng)
        gp = percolate_black(gb, 1 - np.exp(-s), rng)
        sizes, *_ = relabel_table(g, gp.vertex_pairs())
        stat[r] = sizes[0]
    assert ks_2samp(dyn, stat).pvalue > 1e-3


def test_modified_two_block_merge_probability():
    # two white components with black half-edge counts (2, 2): merge by s
    # with probability 1 - exp(-y1 y2 s / (2 Q0 - 1))
    g = _graph([1, 1, 1, 1], [2, 0, 0, 2], pairs=[0, 1, 2, 3])  # components {0,1}, {2,3}
    rng = stream_gen(15, 0)
    reps = 60_000
    s = 1.5
    q0 = 2
    merged = 0
    for _ in range(reps):
        state = run_modified(g, s, rng)
        merged += state.component_sizes()[0] == 4
    p = 1 - np.exp(-2 * 2 * s / (2 * q0 - 1))
    assert abs(merged / reps - p) <= 3 * np.sqrt(p * (1 - p) / reps)


def test_modified_matches_mcmw_at_matched_time():
    g = _graph([2, 2, 1, 1, 1, 1], [2, 1, 2, 1, 1, 1], seed=4)
    rng = stream_gen(17, 0)
    blocks = modified_block_view(g)
    x = blocks.mass.copy()
    y = blocks.weight.copy()
    q0 = g.seq.total_black // 2
    s = 1.0
    reps = 5000
    mod = np.array([run_modified(g, s, rng).component_sizes()[0] for _ in range(reps)])
    ref = mcmw_batch(x, y, s / (2 * q0 - 1), reps, rng)[:, 0]
    assert ks_2samp(mod, ref, method="asymp").pvalue > 1e-3


def test_coupled_subset_and_refinement():
    g = _graph([2, 2, 1, 1, 1, 1], [2, 2, 2, 2, 1, 1], seed=6)
    rng = stream_gen(19, 0)
    for _ in range(300):
        pair = run_coupled(g, 1.0, rng)
        dyn_events = set(pair.dynamic.event_log.tolist())
        mod_events = set(pair.modified.event_log.tolist())
        assert dyn_events <= mod_events
        # refinement of the partition and the norm inequality
        lab_dyn = component_labels(g, pair.dynamic.event_vertex_pairs())
        lab_mod = component_labels(g, pair.modified.event_vertex_pairs())
        assert refines(lab_dyn, lab_mod)
        sd = pair.dynamic.component_sizes()
        sm = pair.modified.component_sizes()
        assert np.sum(sd.astype(float) ** 2) <= np.sum(sm.astype(float) ** 2) + 1e-9


def test_coupled_single_pair_coincide_until_first_event():
    g = _graph([1, 1], [1, 1])
    rng = stream_gen(23, 0)
    for _ in range(200):
        pair = run_coupled(g, 3.0, rng)
        if len(pair.modified.event_log):
            assert pair.dynamic.event_log[0] == pair.modified.event_log[0]


def test_q_trajectory_trivial_and_mean():
    lim = make_limit_parameters(3.5, 2)
    sc = make_scaling(2000, 3.5)
    white = np.full(2000, 2, dtype=np.int64)
    black = np.tile([1, 1], 1000).astype(np.int64)
    seq = DegreeSequence(white, black, sc, lim, np.zeros(2000, bool))
    g = sample_white_matching(seq, philox(1))
    rep0 = q_trajectory_check(g, 0.0, 100, philox(2))
    assert rep0["sup_deviation_mean"] == 0.0
    rep = q_trajectory_check(g, 1.0, 150, philox(3))
    assert rep["mean_ok"], rep
    assert rep["exceedance_ok"], rep


def _q_trajectory_oracle(g, T, replicates, rng, delta_exponent=0.4, t_mean_check=1.0):
    """The per-replicate loop q_trajectory_check replaced; returns (sups, q_at_t)."""
    n = g.n
    q0 = g.seq.total_black // 2
    horizon_sup = T / g.seq.scaling.c_n
    horizon = max(horizon_sup, t_mean_check)
    sups = np.empty(replicates)
    q_at_t = np.empty(replicates)
    for r in range(replicates):
        times = _death_times(q0, horizon, rng)
        k = np.searchsorted(times, horizon_sup, side="right")
        ts = times[:k]
        grid = np.concatenate(([0.0], ts, [horizon_sup]))
        q_left = q0 - np.concatenate(([0], np.arange(len(ts)), [len(ts)]))
        q_right = q0 - np.concatenate(([0], np.arange(1, len(ts) + 1), [len(ts)]))
        f = q0 * np.exp(-grid)
        dev = np.maximum(np.abs(q_left - f), np.abs(q_right - f)) / n
        sups[r] = dev.max()
        q_at_t[r] = (q0 - np.searchsorted(times, t_mean_check, side="right")) / n
    return sups, q_at_t


@pytest.mark.parametrize("n,T,t_mean", [(2000, 0.0, 1.0), (2000, 1.0, 1.0), (2000, 40.0, 0.5), (301, 5.0, 2.0)])
def test_q_trajectory_check_equals_loop_oracle(n, T, t_mean):
    lim = make_limit_parameters(3.5, 2)
    white = np.full(n, 2, dtype=np.int64)
    black = np.tile([1, 1, 2, 0], n)[:n].astype(np.int64)
    black[-1] += black.sum() % 2
    seq = DegreeSequence(white, black, make_scaling(n, 3.5), lim, np.zeros(n, bool))
    g = sample_white_matching(seq, philox(1))
    rep = q_trajectory_check(g, T, 120, philox(4), t_mean_check=t_mean)
    sups, q_at_t = _q_trajectory_oracle(g, T, 120, philox(4), t_mean_check=t_mean)
    assert rep["sup_deviation_mean"] == float(np.mean(sups))
    assert rep["exceedance_rate"] == float(np.mean(sups > rep["delta_n"]))
    assert rep["mean_q_at_t"] == float(np.mean(q_at_t))
    assert rep["mean_q_sd"] == float(np.std(q_at_t, ddof=1))


def test_edge_probability_zero_time():
    g = _graph([1, 1, 1, 1], [1, 1, 1, 1], pairs=[0, 1, 2, 3])
    p = edge_probability_estimate(g, [0, 1], [2, 3], 0.0, 200, philox(5))
    assert p == 0.0


def test_edge_probability_two_singletons_closed_form():
    # two singleton components with one black half-edge each in a 2-pair
    # system: P(direct edge by time s) = (1 - e^{-s}) / 3, obtained by
    # enumerating the pairing orders of the four half-edges
    white = np.array([2, 2, 2], dtype=np.int64)
    black = np.array([1, 1, 2], dtype=np.int64)
    sc = make_scaling(3, 3.5)
    lim = make_limit_parameters(3.5, 2)
    seq = DegreeSequence(white, black, sc, lim, np.zeros(3, bool))
    g = ColoredMultigraph(seq, np.array([0, 1, 2, 3, 4, 5]))  # three self-loop singletons
    # horizon: edge_probability_estimate works at s * gamma_n / c_n; invert so
    # the effective horizon is exactly 0.7
    horizon = 0.7
    gamma_n = g.seq.total_black / g.n
    s = horizon * sc.c_n / gamma_n
    reps = 40_000
    p_hat = edge_probability_estimate(g, [0], [1], s, reps, philox(11))
    p = (1 - np.exp(-horizon)) / 3.0
    assert abs(p_hat - p) <= 3 * np.sqrt(p * (1 - p) / reps)


def test_edge_probability_rejects_overlap():
    g = _graph([1, 1], [1, 1])
    with pytest.raises(ValueError):
        edge_probability_estimate(g, [0], [0], 1.0, 10, philox(0))


def test_dynamic_pairs_distinct_and_consumed():
    g = _graph([1, 1, 2, 2], [3, 1, 2, 2], seed=9)
    state = run_dynamic(g, 50.0, philox(21))
    used = [h for _, a, b in state.event_log for h in (a, b)]
    assert len(used) == len(set(used))
    for _, a, b in state.event_log:
        assert a != b


def test_edge_probability_tracks_limit_formula_at_scale():
    # across-component connection probability approaches
    # 1 - exp(-(Y_i/b_n)(Y_j/b_n) s); at n = 4000 the measured gap with this
    # seed is ~0.03, asserted within 0.05 (the trend has no pinned rate)
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    n = 4000
    cfg = ExperimentConfig(n_grid=[n], master_seed=3)
    seq = build_critical_sequence(cfg, n)
    g = sample_white_matching(seq, stream_gen(3, 1))
    sizes, blacks, labels, order = component_table(g)
    comp_i = np.flatnonzero(labels == order[0])
    comp_j = np.flatnonzero(labels == order[1])
    b_n = seq.scaling.b_n
    s = 0.5
    p_hat = edge_probability_estimate(g, comp_i, comp_j, s, 3000, stream_gen(3, 2))
    ref = 1 - np.exp(-(blacks[0] / b_n) * (blacks[1] / b_n) * s)
    assert abs(p_hat - ref) <= 0.05


def refines(fine_labels: np.ndarray, coarse_labels: np.ndarray) -> bool:
    """True if every fine component is contained in one coarse component."""
    seen = {}
    for f, c in zip(fine_labels, coarse_labels):
        if f in seen and seen[f] != c:
            return False
        seen[f] = c
    return True


# Reference loops: the per-event implementations the array kernels replaced,
# one scalar draw per pick. run_modified and run_coupled must reproduce
# theirs exactly; run_dynamic draws its events directly and must agree with
# its oracle in law.


def _death_times(q0: int, horizon: float, rng) -> np.ndarray:
    """Event times of the pure-death pairing clock: rate Q, Q-1, ... within horizon."""
    if q0 <= 0:
        return np.zeros(0)
    rates = np.arange(q0, 0, -1, dtype=float)
    times = np.cumsum(rng.exponential(1.0 / rates))
    return times[times <= horizon]


def _dynamic_oracle(g, s_max, rng) -> list:
    n_he = g.seq.total_black
    times = _death_times(n_he // 2, s_max, rng)
    pool = np.arange(n_he, dtype=np.int64)  # swap-pop pool of unpaired half-edges
    m = n_he
    log = []
    for t in times:
        i = int(rng.integers(m))
        a = int(pool[i])
        pool[i], pool[m - 1] = pool[m - 1], pool[i]
        m -= 1
        j = int(rng.integers(m))
        b = int(pool[j])
        pool[j], pool[m - 1] = pool[m - 1], pool[j]
        m -= 1
        log.append((float(t), a, b))
    return log


def _modified_oracle(g, s_max, rng) -> list:
    n_he = g.seq.total_black
    n_events = rng.poisson(n_he // 2 * s_max)
    times = np.sort(rng.random(n_events) * s_max)
    log = []
    for t in times:
        a = int(rng.integers(n_he))
        b = int(rng.integers(n_he - 1))
        if b >= a:
            b += 1
        log.append((float(t), a, b))
    return log


def _coupled_oracle(g, s_max, rng) -> tuple[list, list]:
    mod_log = _modified_oracle(g, s_max, rng)
    paired = np.zeros(g.seq.total_black, dtype=bool)
    dyn_log = []
    for t, a, b in mod_log:
        if not paired[a] and not paired[b]:
            paired[a] = paired[b] = True
            dyn_log.append((t, a, b))
    return dyn_log, mod_log


def _assert_kernels_match_oracles(g, s, seed):
    assert run_modified(g, s, stream_gen(seed, 1)).event_log.tolist() == _modified_oracle(g, s, stream_gen(seed, 1))
    pair = run_coupled(g, s, stream_gen(seed, 2))
    dyn, mod = _coupled_oracle(g, s, stream_gen(seed, 2))
    assert pair.dynamic.event_log.tolist() == dyn
    assert pair.modified.event_log.tolist() == mod


def _assert_partial_matching(state, s):
    log, n_he = state.event_log, state.graph.seq.total_black
    he = np.concatenate((log["a"], log["b"]))
    assert np.unique(he).size == he.size
    assert np.all((0 <= he) & (he < n_he))
    assert len(log) <= state.q0 == n_he // 2
    assert np.all(np.diff(log["time"]) > 0) and np.all(log["time"] <= s)


def _dynamic_logs(g, s, reps, rng, kernel: bool) -> list:
    """``reps`` event logs of run_dynamic, or of its loop oracle, as (time, a, b) arrays."""
    if kernel:
        return [run_dynamic(g, s, rng).event_log for _ in range(reps)]
    return [np.array(_dynamic_oracle(g, s, rng), dtype=EVENT_DTYPE) for _ in range(reps)]


def _same_categories(x, y) -> float:
    """p-value of the chi-square test that two samples of category codes
    share one law; 1.0 when both hold the same single category."""
    cats, codes = np.unique(np.concatenate((x, y)), return_inverse=True)
    if cats.size == 1:
        return 1.0
    table = np.stack((np.bincount(codes[: len(x)], minlength=cats.size), np.bincount(codes[len(x) :], minlength=cats.size)))
    return chi2_contingency(table).pvalue


def _assert_dynamic_laws_agree(g, s, reps, seed, alpha=1e-4):
    """run_dynamic and its loop oracle agree in law: the event count, the
    pooled event times and the first ordered pair (chi-square or KS).

    Each test calling this makes about a dozen comparisons, so each is held
    to 1e-4 for a false alarm rate near 1e-3 per test."""
    n_he = g.seq.total_black
    sides = [_dynamic_logs(g, s, reps, stream_gen(seed, k), kernel) for k, kernel in ((0, True), (1, False))]
    counts = [np.array([len(log) for log in logs]) for logs in sides]
    assert _same_categories(*counts) > alpha, ("count", s)
    times = [np.concatenate([log["time"] for log in logs]) for logs in sides]
    if times[0].size and times[1].size:
        assert ks_2samp(*times).pvalue > alpha, ("times", s)
    first = [np.array([log["a"][0] * n_he + log["b"][0] for log in logs if len(log)]) for logs in sides]
    if first[0].size and first[1].size:
        assert _same_categories(*first) > alpha, ("first pair", s)
    return sides


SMALL_GRAPHS = [
    ([1, 1, 2, 2], [2, 2, 1, 1], 0),
    ([1, 1], [1, 1], 0),  # a single pair
    ([1, 1, 2, 2], [2, 2, 2, 2], 2),
    ([1, 1, 2, 2], [3, 1, 2, 2], 9),
    ([2, 2, 1, 1, 1, 1], [2, 2, 2, 2, 1, 1], 6),
    ([1, 1], [0, 0], 0),  # no black half-edges
]


@pytest.mark.parametrize("white,black,graph_seed", SMALL_GRAPHS)
def test_event_kernels_equal_loop_oracles_small(white, black, graph_seed):
    g = _graph(white, black, seed=graph_seed)
    for s in (0.0, 0.3, 1.0, 50.0):  # zero horizon up to every pair consumed
        for seed in range(20):
            _assert_kernels_match_oracles(g, s, seed)
        _assert_dynamic_laws_agree(g, s, 1500, 31)
    if g.seq.total_black:
        assert len(run_dynamic(g, 50.0, philox(0)).event_log) == g.seq.total_black // 2


@pytest.mark.parametrize("n", [1000, 10_000])
def test_event_kernels_equal_loop_oracles_critical(n):
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    for seed in (1, 2, 9001):
        seq = build_critical_sequence(ExperimentConfig(n_grid=[n], master_seed=seed), n)
        g = sample_white_matching(seq, stream_gen(seed, 2))
        s = (g.seq.total_black / n) / seq.scaling.c_n  # mu = 1
        _assert_kernels_match_oracles(g, s, seed)
        sides = _assert_dynamic_laws_agree(g, s, 150, seed)
        kernel, oracle = ([PercolationState(g, seq.total_black // 2, log) for log in logs] for logs in sides)
        for state in kernel:
            _assert_partial_matching(state, s)
        # the percolated graph's largest component, the statistic thm17 reads
        largest = [[state.component_sizes()[0] for state in side] for side in (kernel, oracle)]
        assert ks_2samp(*largest).pvalue > 1e-4


@st.composite
def _small_graphs(draw):
    """White-only graphs on 1-8 vertices with even colour totals."""
    n = draw(st.integers(1, 8))
    white = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    black = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    white[-1] += sum(white) % 2
    black[-1] += sum(black) % 2
    return _graph(white, black, seed=draw(st.integers(0, 2**32 - 1)))


_PROPERTY = settings(max_examples=150)


@_PROPERTY
@given(_small_graphs(), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_dynamic_events_partial_matching_property(g, s, seed):
    rng = philox(seed)
    states = [run_dynamic(g, s, rng) for _ in range(200)]
    for state in states:
        _assert_partial_matching(state, s)
    # law: the event count is Binomial(Q0, 1 - e^{-s}), mean within 5 SE
    q0, p = states[0].q0, -np.expm1(-s)
    mean = np.mean([len(state.event_log) for state in states])
    assert abs(mean - q0 * p) <= 5 * np.sqrt(q0 * p * (1 - p) / len(states)) + 1e-12


@_PROPERTY
@given(_small_graphs(), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_coupled_subset_and_refinement_property(g, s, seed):
    pair = run_coupled(g, s, philox(seed))
    dyn, mod = pair.dynamic.event_log, pair.modified.event_log
    assert set(dyn.tolist()) <= set(mod.tolist())
    he = np.concatenate((dyn["a"], dyn["b"]))
    assert np.unique(he).size == he.size
    lab_dyn = component_labels(g, pair.dynamic.event_vertex_pairs())
    lab_mod = component_labels(g, pair.modified.event_vertex_pairs())
    assert refines(lab_dyn, lab_mod)
    assert (dyn.tolist(), mod.tolist()) == _coupled_oracle(g, s, philox(seed))


def _assert_merge_equals_relabel(state):
    want = relabel_table(state.graph, state.event_vertex_pairs())[0]
    assert np.array_equal(state.component_sizes(), want)


def _assert_merges_equal_relabel(g, s, seed):
    pair = run_coupled(g, s, stream_gen(seed, 2))
    for state in (run_dynamic(g, s, stream_gen(seed, 0)), run_modified(g, s, stream_gen(seed, 1)),
                  pair.dynamic, pair.modified):
        _assert_merge_equals_relabel(state)


@_PROPERTY
@given(_small_graphs(), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_block_merge_equals_full_relabel_property(g, s, seed):
    _assert_merges_equal_relabel(g, s, seed)
    static = percolate_black(sample_black_matching(g, philox(seed)), 1 - np.exp(-s), philox(seed + 1))
    pairs = static.vertex_pairs()
    assert np.array_equal(merged_sizes(g, pairs[:, 0], pairs[:, 1]), relabel_table(g, pairs)[0])


@pytest.mark.parametrize("n", [1000, 10_000])
def test_block_merge_equals_full_relabel_critical(n):
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    for seed in (1, 2, 9001):
        seq = build_critical_sequence(ExperimentConfig(n_grid=[n], master_seed=seed), n)
        g = sample_white_matching(seq, stream_gen(seed, 2))
        for mu in (0.5, 1.0, 4.0):
            _assert_merges_equal_relabel(g, mu * (g.seq.total_black / n) / seq.scaling.c_n, seed)


@pytest.mark.parametrize("field", ["size", "black"])
def test_component_sizes_rejects_a_broken_block_table(field, monkeypatch):
    g = _graph([1, 1, 2, 2], [2, 2, 1, 1], seed=0)
    state = run_dynamic(g, 1.0, philox(3))
    broken = getattr(g.blocks, field).copy()
    broken[0] += 1
    monkeypatch.setitem(g.__dict__, "blocks", g.blocks._replace(**{field: broken}))
    with pytest.raises(InvariantError):
        state.component_sizes()


def test_block_table_is_read_only():
    g = _graph([1, 1, 2, 2], [2, 2, 1, 1], seed=0)
    for column in (*g.blocks, g.block_edges):
        with pytest.raises(ValueError):
            column[0] += 1


def test_white_graph_labelled_once_per_graph(monkeypatch):
    import hcmsim.graphs as graphs

    calls = []
    label = graphs._component_labels

    def counting(indices, indptr, indices_t, indptr_t):
        calls.append(indptr.size - 1)
        return label(indices, indptr, indices_t, indptr_t)

    monkeypatch.setattr(graphs, "_component_labels", counting)
    g = _graph([1, 1, 1, 1, 2], [1, 1, 1, 1, 2], seed=0)
    state = run_dynamic(g, 1.0, philox(3))
    first = state.component_sizes()
    assert np.array_equal(state.component_sizes(), first)
    explore(g, philox(4))
    modified_block_view(g)
    ncomp = g.blocks.size.size
    assert ncomp < g.n
    assert calls == [g.n, ncomp, ncomp]  # the white graph once, then one merge per call


@pytest.mark.parametrize("s", [-1.0, np.nan, np.inf])
def test_bad_horizon_rejected(s):
    g = _graph([1, 1, 2, 2], [2, 2, 1, 1])
    for runner in (run_dynamic, run_modified, run_coupled):
        with pytest.raises(ValueError):
            runner(g, s, philox(0))
