import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmsim.core import stream_gen
from hcmsim.degrees import LimitParameters, make_limit_parameters
from hcmsim.excursions import gamma_down
from hcmsim.levy import (
    ThinnedLevyRealization,
    exploration_limit_params,
    limit_pairs_batch,
    sample_surplus_process,
    sample_thinned_levy,
)
from hcmsim.paths import CadlagPath, _segment_minima, eval_rows, jump_rows
from hcmsim.stats import _pad_pairs
from seeding import philox
from test_excursions import gamma_down_loop
from test_paths import from_jumps_unique, is_nondecreasing, jumps, reflected_loop


def identity_residuals(real: ThinnedLevyRealization, times) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the defining formulas at the given times (exact up to rounding)."""
    p = real.params
    t = np.atleast_1d(np.asarray(times, dtype=float))
    ind = real.xi[None, :] <= p.kappa * t[:, None]
    x_ref = (ind * p.theta).sum(axis=1) - np.sum(p.theta**2) / p.kappa * t + p.lam * t
    y_ref = (ind * p.beta).sum(axis=1) + p.alpha * t
    return (
        np.atleast_1d(real.X_path.eval(t)) - x_ref,
        np.atleast_1d(real.Y_path.eval(t)) - y_ref,
    )


def final_value(path: CadlagPath):
    return path.eval(path.horizon)


# Truncation bound for the limit pair, which no CLI command reports.
def truncation_gap_bound(params: LimitParameters, k_lo: int, k_hi: int, T: float) -> float:
    """Analytic bound on |X_{k_hi}(T) - X_{k_lo}(T)| for shared clocks:
    each extra term moves X(T) by at most theta_i (1 + theta_i T / kappa)."""
    theta = params.theta[k_lo:k_hi]
    return float(np.sum(theta * (1.0 + theta * T / params.kappa)))


def _params(theta, beta, alpha=0.0, lam=0.0, kappa=1.0):
    return LimitParameters(
        theta=np.asarray(theta, float),
        beta=np.asarray(beta, float),
        alpha=alpha,
        lam=lam,
        kappa=kappa,
        gamma=1.0,
    )


def test_pure_drift_when_clock_exceeds_horizon():
    p = _params([1.0], [0.0])
    # find a seed whose single clock lands beyond T = 1
    for seed in range(100):
        real = sample_thinned_levy(p, T=1.0, rng=philox(seed))
        if real.xi[0] > 1.0:
            break
    else:
        pytest.fail("no seed with xi > T found")
    t = np.linspace(0, 1, 50)
    assert np.allclose(np.atleast_1d(real.X_path.eval(t)), -t, atol=1e-12)
    assert np.allclose(np.atleast_1d(real.Y_path.eval(t)), 0.0)


def test_zero_beta_and_alpha_gives_flat_y():
    p = _params([1.0, 0.5], [0.0, 0.0], alpha=0.0)
    real = sample_thinned_levy(p, T=5.0, rng=philox(3))
    t = np.linspace(0, 5, 64)
    assert np.allclose(np.atleast_1d(real.Y_path.eval(t)), 0.0)


def test_identity_residuals_below_1e9():
    p = make_limit_parameters(3.7, 200)
    for seed in range(5):
        real = sample_thinned_levy(p, T=6.0, rng=philox(seed))
        rx, ry = identity_residuals(real, np.linspace(0, 6, 257))
        assert np.max(np.abs(rx)) < 1e-9
        assert np.max(np.abs(ry)) < 1e-9
        assert is_nondecreasing(real.Y_path)


def test_y_jump_times_subset_of_x():
    p = make_limit_parameters(3.5, 100)
    real = sample_thinned_levy(p, T=4.0, rng=philox(11))
    xt, _ = jumps(real.X_path)
    yt, ys = jumps(real.Y_path)
    assert np.all(ys > 0)
    assert set(yt.tolist()) <= set(xt.tolist())


def y_rows_at(params, T, xi, ts) -> np.ndarray:
    """Y at ``ts`` of the pair that ``sample_thinned_levy`` builds from each
    row of the clock matrix ``xi``, from one segment table of all rows."""
    jump_times = xi / params.kappa
    Y, _ = jump_rows(T, jump_times, params.beta, jump_times <= T, drift=params.alpha)
    row = np.repeat(np.arange(xi.shape[0]), ts.size)
    return eval_rows(Y, row, np.tile(ts, xi.shape[0])).reshape(-1, ts.size)


def test_mean_of_y_matches_closed_form():
    p = _params([1.0, 0.6, 0.3], [0.5, 0.25, 0.1], alpha=0.4, kappa=1.7)
    reps = 20_000
    rng = stream_gen(21, 0)
    ts = np.array([0.5, 1.0, 2.0])
    # the clocks of one sample_thinned_levy call per replicate, in draw order
    acc = y_rows_at(p, 2.0, rng.exponential(1.0 / p.theta, size=(reps, p.theta.size)), ts)
    for j, t in enumerate(ts):
        target = p.alpha * t + np.sum(p.beta * (1.0 - np.exp(-p.theta * p.kappa * t)))
        se = acc[:, j].std(ddof=1) / np.sqrt(reps)
        assert abs(acc[:, j].mean() - target) <= 3 * se


def test_truncation_stability_bound():
    p = make_limit_parameters(3.5, 2000)
    T = 5.0
    rng = stream_gen(31, 0)
    xi = rng.exponential(1.0 / p.theta)  # shared clocks across truncations
    for k_lo in (500, 1000):
        jt = xi / p.kappa
        def x_at_T(k):
            inside = jt[:k] <= T
            drift = p.lam - np.sum(p.theta[:k] ** 2) / p.kappa
            return np.sum(p.theta[:k][inside]) + drift * T
        gap = abs(x_at_T(2000) - x_at_T(k_lo))
        bound = truncation_gap_bound(p, k_lo, 2000, T)
        assert gap <= bound + 1e-12


def test_surplus_zero_intensity():
    down = CadlagPath.from_jumps(1.0, [], [], drift=-2.0)
    N = sample_surplus_process(down, philox(5))
    assert final_value(N) == 0.0


def test_surplus_poisson_moments():
    # reflected height h over [0,1]: N(1) ~ Poisson(h)
    reps = 20_000
    for h in (0.5, 2.0):
        ramp = CadlagPath(np.array([0.0, 1e-9]), np.array([0.0, h]), np.array([h * 1e9, 0.0]), 1.0)
        rng = stream_gen(77, int(h * 10))
        vals = np.array([final_value(sample_surplus_process(ramp, rng)) for _ in range(reps)])
        se_mean = np.sqrt(h / reps)
        assert abs(vals.mean() - h) <= 3 * se_mean
        var_se = np.sqrt(2 * h**2 / reps) + 3 * h / reps  # rough Poisson var-of-var
        assert abs(vals.var(ddof=1) - h) <= 4 * var_se + 0.05


def test_surplus_intensity_additivity():
    reps = 8_000
    means = []
    for h in (1.0, 2.0):
        ramp = CadlagPath(np.array([0.0, 1e-9]), np.array([0.0, h]), np.array([h * 1e9, 0.0]), 1.0)
        rng = stream_gen(78, int(h))
        means.append(np.mean([final_value(sample_surplus_process(ramp, rng)) for _ in range(reps)]))
    assert abs(means[1] - 2 * means[0]) <= 4 * np.sqrt(2.0 / reps + 4 * 1.0 / reps)


def test_surplus_mean_on_a_limit_path():
    # given X, N(T) is Poisson with mean the integral of X - inf X; this
    # path has segments that fall through their running minimum, below
    # which the intensity is 0
    X = sample_thinned_levy(make_limit_parameters(3.5, 15), 8.0, stream_gen(3, 7)).X_path
    a, v, s, b, _ = (c[0] for c in X.rows())
    end, m = _segment_minima(a, v, s, b)
    assert np.any((v > m) & (end < m))
    a, v, s, b, _ = (c[0] for c in reflected_loop(X).rows())
    mean = float(np.sum((v + s * (b - a) / 2) * (b - a)))  # exact on linear pieces
    reps = 4_000
    rng = stream_gen(3, 8)
    vals = np.array([final_value(sample_surplus_process(X, rng)) for _ in range(reps)])
    assert abs(vals.mean() - mean) <= 4 * np.sqrt(mean / reps)


def test_exploration_limit_params_embedding():
    p = make_limit_parameters(3.5, 50)
    q = exploration_limit_params(p)
    # ring rate theta*kappa' = theta/kappa
    assert q.kappa == pytest.approx(1.0 / p.kappa)
    # effective X drift = lam - sum(theta^2)/kappa
    C = float(np.sum(p.theta**2))
    assert q.lam - C / q.kappa == pytest.approx(p.lam - C / p.kappa)


def test_thinned_levy_needs_a_seed():
    # the generator has no default: a sampler draws from the stream it is handed
    with pytest.raises(TypeError):
        sample_thinned_levy(make_limit_parameters(3.5, 5), T=1.0)


# -- the array pass over a clock matrix ------------------------------------------


class FixedClocks(np.random.Generator):
    """A generator whose exponential draw is a given clock row, so that
    sample_thinned_levy builds the paths of crafted clocks."""

    def __init__(self, xi):
        super().__init__(np.random.Philox(0))
        self.xi = np.asarray(xi, dtype=float)

    def exponential(self, scale):
        return self.xi.copy()


def path_form_rows(params, T, xi, top_j) -> np.ndarray:
    """The rows of limit_pairs_batch, one path pair per clock row; raises
    the ValueError of the first row that the paths reject."""
    rows = []
    for clocks in xi:
        real = sample_thinned_levy(params, T, FixedClocks(clocks))
        rows.append(_pad_pairs(gamma_down(real.X_path, real.Y_path), top_j))
    return np.array(rows)


def pad_pairs_slice(pairs: np.ndarray, top_j: int) -> np.ndarray:
    """stats._pad_pairs for one row by slicing: the first top_j pairs, then
    the sum of squares of the rest."""
    out = np.zeros((top_j, 2))
    k = min(top_j, pairs.shape[0])
    out[:k] = pairs[:k]
    tail = pairs[k:]
    tail_mass = float(np.sum(tail**2)) if tail.size else 0.0
    return np.concatenate((out.ravel(), [tail_mass]))


def oracle_rows(params, T, xi, top_j) -> np.ndarray:
    """The rows of limit_pairs_batch from code that it does not share: the
    unique-merge from_jumps, the segment loop of the excursions and the
    slicing pad, one clock row at a time, with gamma_down's checks in
    gamma_down's order."""
    rows = []
    for clocks in xi:
        jump_times = clocks / params.kappa
        inside = jump_times <= T
        drift = params.lam - float(np.sum(params.theta**2)) / params.kappa
        X = from_jumps_unique(T, jump_times[inside], params.theta[inside], drift=drift)
        Y = from_jumps_unique(T, jump_times[inside], params.beta[inside], drift=params.alpha)
        if not is_nondecreasing(Y):
            raise ValueError("g must be non-decreasing")
        rows.append(pad_pairs_slice(gamma_down_loop(X, Y), top_j))
    return np.array(rows)


def assert_batch_equals_path_form(params, T, xi, top_j, reference=path_form_rows):
    xi = np.asarray(xi, dtype=float)
    try:
        expected = reference(params, T, xi, top_j)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            limit_pairs_batch(params, T, xi, top_j)
        return
    batch = limit_pairs_batch(params, T, xi, top_j)
    assert batch.shape == expected.shape == (xi.shape[0], 2 * top_j + 1)
    for got, want in zip(batch, expected):
        assert got.tobytes() == want.tobytes()


def _drift_lam(theta, kappa, sign):
    """lambda that makes X's drift negative, exactly zero or positive."""
    c = float(np.sum(np.asarray(theta) ** 2)) / kappa
    return {-1: 0.0, 0: c, 1: c + 5.0}[sign]


@pytest.mark.parametrize("drift", [-1, 0, 1])
def test_batch_equals_path_form_on_crafted_clocks(drift):
    theta, beta = [1.5, 1.0, 0.75, 0.5], [0.5, 0.0, 1.0, 0.25]
    p = _params(theta, beta, alpha=0.5, lam=_drift_lam(theta, 1.0, drift))
    T = 4.0
    xi = [
        [1.0, 1.0, 2.0, 2.0],  # tied jump times, one of them with a zero beta
        [9.0, 5.0, 7.5, 4.5],  # no jump inside the horizon
        [4.0, 0.5, 9.0, 4.0],  # jumps exactly at T
        [0.25, 0.5, 0.75, 1.0],  # more excursions than top_j below
        [3.0, 0.5, 0.5, 0.5],  # three hubs on one time
    ]
    for top_j in (1, 2, 20):
        assert_batch_equals_path_form(p, T, xi, top_j)
    assert_batch_equals_path_form(p, T, xi[1:2], 2)  # no row jumps at all
    one = _params([1.0], [0.5], lam=_drift_lam([1.0], 1.0, drift))  # K = 1
    assert_batch_equals_path_form(one, T, [[0.5], [4.0], [7.0]], 1)


@pytest.mark.parametrize("seed", range(3))
def test_batch_equals_path_form_on_random_clocks(seed):
    """Non-dyadic profiles, where the rounding of a sum or of a drift term
    depends on the order of the adds and on the segment Y is evaluated on:
    24 hubs on three ring times, and 6 hubs half of which have beta = 0."""
    rng = np.random.default_rng(seed)
    for K, ties in [(24, True), (6, False)]:
        theta = np.sort(rng.uniform(0.05, 2.0, K))[::-1]
        beta = rng.uniform(0.01, 2.0, K) * (rng.random(K) < 0.5)
        p = _params(theta, beta, alpha=1 / 3, lam=_drift_lam(theta, 1.0, -1))
        xi = rng.choice([0.5, 1.5, 2.5], size=(4, K)) if ties else rng.uniform(0.01, 6.0, (4, K))
        assert_batch_equals_path_form(p, 4.0, xi, 3)


def test_batch_equals_path_form_on_exact_closes():
    # X = 2 hub jumps of 1 on drift -1: excursions [1, 2] and [3, 4] of equal
    # length, the first closing exactly on the next jump, whose beta Y(r) takes
    p = _params([1.0, 1.0], [0.5, 0.25], alpha=0.5, lam=1.0)
    assert_batch_equals_path_form(p, 5.0, [[1.0, 3.0], [1.0, 2.0], [2.0, 1.0]], 2)
    # one jump whose excursion closes exactly at T, the last column of its row
    assert_batch_equals_path_form(_params([1.0], [0.5], lam=0.0), 3.0, [[2.0], [1.0]], 1)


@st.composite
def _clock_matrices(draw):
    """Limit parameters, a horizon and a clock matrix whose rows tie, jump
    at T and beyond it, with X's drift negative, zero or positive."""
    K, R = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    kappa = draw(st.sampled_from([0.5, 1.0, 2.0]))
    T = draw(st.sampled_from([1.0, 2.5, 4.0]))
    theta = np.sort(draw(st.lists(st.floats(0.05, 2.0), min_size=K, max_size=K)))[::-1]
    beta = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), min_size=K, max_size=K))
    lam = _drift_lam(theta, kappa, draw(st.sampled_from([-1, 0, 1])))
    p = _params(theta, beta, alpha=draw(st.sampled_from([0.0, 0.5])), lam=lam, kappa=kappa)
    # quarter-grid clocks tie; T * kappa rings exactly at T, 3 T kappa beyond it
    clock = st.one_of(st.sampled_from([0.25, 0.5, 1.0, T * kappa, 3 * T * kappa]), st.floats(0.01, 2 * T * kappa))
    xi = draw(st.lists(st.lists(clock, min_size=K, max_size=K), min_size=R, max_size=R))
    return p, T, xi, draw(st.integers(1, 4))


@settings(max_examples=300)
@given(_clock_matrices())
def test_batch_equals_path_form_row_by_row(case):
    assert_batch_equals_path_form(*case)


@settings(max_examples=300)
@given(_clock_matrices())
def test_batch_equals_the_oracles_row_by_row(case):
    assert_batch_equals_path_form(*case, reference=oracle_rows)


def test_batch_raises_the_path_forms_errors():
    p = _params([1.0, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="jump times must lie"):
        limit_pairs_batch(p, 4.0, np.array([[1.0, 2.0], [0.0, 2.0]]), 3)
    assert_batch_equals_path_form(p, 4.0, [[1.0, 2.0], [0.0, 2.0]], 3)
    # negative theta or beta jumps, which LimitParameters itself refuses
    # Y's second jump falls though Y stays above its start
    for theta, beta, msg in [([1.0, -0.5], [0.5, 0.5], "negative jumps"), ([1.0, 0.5], [1.0, -0.5], "non-decreasing")]:
        bad = SimpleNamespace(theta=np.array(theta), beta=np.array(beta), alpha=0.0, lam=0.0, kappa=1.0)
        xi = np.array([[5.0, 6.0], [1.0, 2.0], [1.0, 3.0]])  # row 0 rings no hub
        with pytest.raises(ValueError, match=msg):
            limit_pairs_batch(bad, 4.0, xi, 3)
        assert_batch_equals_path_form(bad, 4.0, xi, 3)
    # the first rejected row decides the error, as it does row by row
    bad = SimpleNamespace(theta=np.array([1.0, -0.5]), beta=np.array([0.5, -0.5]), alpha=0.0, lam=0.0, kappa=1.0)
    assert_batch_equals_path_form(bad, 4.0, [[3.0, 1.0], [0.5, 5.0], [-1.0, 5.0]], 3)
    with pytest.raises(ValueError, match="at least one hub"):
        limit_pairs_batch(_params([], []), 4.0, np.zeros((2, 0)), 3)
