import numpy as np
import pytest

from hcmsim.core import stream_gen
from hcmsim.degrees import LimitParameters, make_limit_parameters
from hcmsim.levy import (
    ThinnedLevyRealization,
    exploration_limit_params,
    sample_surplus_process,
    sample_thinned_levy,
)
from hcmsim.paths import CadlagPath


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
        real = sample_thinned_levy(p, T=1.0, rng_seed=seed)
        if real.xi[0] > 1.0:
            break
    else:
        pytest.fail("no seed with xi > T found")
    t = np.linspace(0, 1, 50)
    assert np.allclose(np.atleast_1d(real.X_path.eval(t)), -t, atol=1e-12)
    assert np.allclose(np.atleast_1d(real.Y_path.eval(t)), 0.0)


def test_zero_beta_and_alpha_gives_flat_y():
    p = _params([1.0, 0.5], [0.0, 0.0], alpha=0.0)
    real = sample_thinned_levy(p, T=5.0, rng_seed=3)
    t = np.linspace(0, 5, 64)
    assert np.allclose(np.atleast_1d(real.Y_path.eval(t)), 0.0)


def test_identity_residuals_below_1e9():
    p = make_limit_parameters(3.7, 200)
    for seed in range(5):
        real = sample_thinned_levy(p, T=6.0, rng_seed=seed)
        rx, ry = identity_residuals(real, np.linspace(0, 6, 257))
        assert np.max(np.abs(rx)) < 1e-9
        assert np.max(np.abs(ry)) < 1e-9
        assert real.Y_path.is_nondecreasing()


def test_y_jump_times_subset_of_x():
    p = make_limit_parameters(3.5, 100)
    real = sample_thinned_levy(p, T=4.0, rng_seed=11)
    xt, _ = real.X_path.jumps()
    yt, ys = real.Y_path.jumps()
    assert np.all(ys > 0)
    assert set(yt.tolist()) <= set(xt.tolist())


def test_mean_of_y_matches_closed_form():
    p = _params([1.0, 0.6, 0.3], [0.5, 0.25, 0.1], alpha=0.4, kappa=1.7)
    reps = 20_000
    rng = stream_gen(21, 0)
    ts = np.array([0.5, 1.0, 2.0])
    acc = np.zeros((reps, ts.size))
    for r in range(reps):
        real = sample_thinned_levy(p, T=2.0, rng_seed=rng)
        acc[r] = np.atleast_1d(real.Y_path.eval(ts))
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


def test_reflected_paths():
    # non-decreasing path reflects to x - x(0)
    up = CadlagPath.from_jumps(2.0, [0.5], [1.0], drift=0.2, start=3.0)
    r = up.reflected()
    t = np.linspace(0, 2, 40)
    assert np.allclose(np.atleast_1d(r.eval(t)), np.atleast_1d(up.eval(t)) - 3.0)
    # pure down-drift reflects to zero
    down = CadlagPath.from_jumps(2.0, [], [], drift=-1.0)
    rd = down.reflected()
    assert np.allclose(np.atleast_1d(rd.eval(t)), 0.0)


def test_surplus_zero_intensity():
    down = CadlagPath.from_jumps(1.0, [], [], drift=-2.0)
    N = sample_surplus_process(down, 5)
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


def test_exploration_limit_params_embedding():
    p = make_limit_parameters(3.5, 50)
    q = exploration_limit_params(p)
    # ring rate theta*kappa' = theta/kappa
    assert q.kappa == pytest.approx(1.0 / p.kappa)
    # effective X drift = lam - sum(theta^2)/kappa
    C = float(np.sum(p.theta**2))
    assert q.lam - C / q.kappa == pytest.approx(p.lam - C / p.kappa)


def test_thinned_levy_needs_a_seed():
    # a default seed of None could not work: as_generator(None) calls int(None)
    import inspect

    params = inspect.signature(sample_thinned_levy).parameters
    assert params["rng_seed"].default is inspect.Parameter.empty
