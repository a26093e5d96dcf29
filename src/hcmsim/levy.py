"""The limit pair (X, Y) with hub-clock jumps, and the conditional surplus process.

With hub clocks xi_i ~ Exp(theta_i), the pair is

    X(t) = sum_i theta_i (1[xi_i <= kappa t] - theta_i t / kappa) + lambda t
    Y(t) = sum_i beta_i   1[xi_i <= kappa t] + alpha t

truncated at K_max terms; jumps are exact events, drift is analytic, and a
grid step only controls export density. Conditionally on X, the surplus
count N is Poisson with intensity (X(t) - inf_{s<=t} X(s)) dt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import InvariantError, as_generator, write_rows
from .degrees import LimitParameters
from .paths import CadlagPath


@dataclass
class ThinnedLevyRealization:
    xi: np.ndarray
    X_path: CadlagPath
    Y_path: CadlagPath
    params: LimitParameters

    def identity_residuals(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the defining formulas at the given times (exact up to rounding)."""
        p = self.params
        t = np.atleast_1d(np.asarray(times, dtype=float))
        ind = self.xi[None, :] <= p.kappa * t[:, None]
        x_ref = (ind * p.theta).sum(axis=1) - np.sum(p.theta**2) / p.kappa * t + p.lam * t
        y_ref = (ind * p.beta).sum(axis=1) + p.alpha * t
        return (
            np.atleast_1d(self.X_path.eval(t)) - x_ref,
            np.atleast_1d(self.Y_path.eval(t)) - y_ref,
        )


def sample_thinned_levy(params: LimitParameters, T: float, rng_seed) -> ThinnedLevyRealization:
    """Draw the clocks and build (X, Y) on [0, T] as exact jump+drift paths."""
    if params.theta.size == 0:
        raise ValueError("the limit pair needs at least one hub: K_max must be >= 1")
    rng = as_generator(rng_seed)
    theta, beta = params.theta, params.beta
    xi = rng.exponential(1.0 / theta)
    jump_times = xi / params.kappa
    inside = jump_times <= T
    drift_x = params.lam - float(np.sum(theta**2)) / params.kappa
    X = CadlagPath.from_jumps(T, jump_times[inside], theta[inside], drift=drift_x)
    Y = CadlagPath.from_jumps(T, jump_times[inside], beta[inside], drift=params.alpha)
    return ThinnedLevyRealization(xi=xi, X_path=X, Y_path=Y, params=params)


def sample_surplus_process(x: CadlagPath, rng_seed) -> CadlagPath:
    """Counting path with conditional intensity (X - running min) dt.

    Simulated by thinning each linear cell of the reflected path against
    its sup; the reflected path must be non-negative.
    """
    rng = as_generator(rng_seed)
    R = x.reflected()
    if float(np.min(R.values)) < -1e-9:
        raise InvariantError("reflected path went negative")
    events = []
    K = len(R.times)
    for k in range(K):
        a = R.times[k]
        b = R.times[k + 1] if k + 1 < K else R.horizon
        if b <= a:
            continue
        v, s = float(R.values[k]), float(R.slopes[k])
        hi = max(v, v + s * (b - a))
        if hi <= 0:
            continue
        n_cand = rng.poisson(hi * (b - a))
        if n_cand == 0:
            continue
        u = a + (b - a) * rng.random(n_cand)
        rate = v + s * (u - a)
        accept = rng.random(n_cand) * hi < rate
        events.extend(u[accept])
    events.sort()
    times = np.concatenate(([0.0], np.asarray(events)))
    values = np.arange(times.size, dtype=float)
    return CadlagPath(times, values, np.zeros_like(values), x.horizon)


def exploration_limit_params(params: LimitParameters) -> LimitParameters:
    """Re-express the exploration-scaling limit in the hub-clock convention.

    The sampler rings hub i at rate theta_i * kappa, while the rescaled
    exploration walk discovers hub i at rate theta_i / kappa and carries
    hub drift -theta_i^2 t / kappa. Replacing kappa by 1/kappa matches the
    ring rates, and the drift is re-centred through lambda:

        lambda' = lambda + (kappa - 1/kappa) * sum(theta^2).

    With these parameters the sampled pair has jump rate theta_i/kappa and
    X-drift lambda - sum(theta^2)/kappa, i.e. the walk limit.
    """
    C = float(np.sum(params.theta**2))
    return replace(
        params,
        kappa=1.0 / params.kappa,
        lam=params.lam + (params.kappa - 1.0 / params.kappa) * C,
    )


def write_limit_path_csv(real: ThinnedLevyRealization, path, grid_step: float, surplus: CadlagPath | None = None):
    t, xv = real.X_path.sample_grid(grid_step)
    yv = np.atleast_1d(real.Y_path.eval(t))
    nv = np.atleast_1d(surplus.eval(t)) if surplus is not None else np.zeros_like(t)
    write_rows(path, "{:.12g},{:.12g},{:.12g},{:.12g}\r\n", (t, xv, yv, nv), header="t,X,Y,N\r\n")
