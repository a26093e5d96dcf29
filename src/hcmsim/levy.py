"""The limit pair (X, Y) with hub-clock jumps, and the conditional surplus process.

With hub clocks xi_i ~ Exp(theta_i), the pair is

    X(t) = sum_i theta_i (1[xi_i <= kappa t] - theta_i t / kappa) + lambda t
    Y(t) = sum_i beta_i   1[xi_i <= kappa t] + alpha t

truncated at K_max terms; jumps are exact events, drift is analytic, and a
grid step only controls export density. Conditionally on X, the surplus
count N is Poisson with intensity (X(t) - inf_{s<=t} X(s)) dt.
``limit_pairs_batch`` turns many rows of clocks into their ordered
excursion vectors in one array pass: X and Y of all rows are one segment
table each (``paths.jump_rows``), of which one path is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import write_rows
from .degrees import LimitParameters
from .excursions import gamma_rows, pad_rows
from .paths import CadlagPath, _segment_minima, jump_rows, raise_first


@dataclass
class ThinnedLevyRealization:
    xi: np.ndarray
    X_path: CadlagPath
    Y_path: CadlagPath
    params: LimitParameters


def sample_thinned_levy(params: LimitParameters, T: float, rng: np.random.Generator) -> ThinnedLevyRealization:
    """Draw the clocks and build (X, Y) on [0, T] as exact jump+drift paths."""
    if params.theta.size == 0:
        raise ValueError("the limit pair needs at least one hub: K_max must be >= 1")
    if not 0 < T < np.inf:
        raise ValueError(f"levy_horizon must be finite and > 0, got {T}")
    theta, beta = params.theta, params.beta
    xi = rng.exponential(1.0 / theta)
    jump_times = xi / params.kappa
    inside = jump_times <= T
    X = CadlagPath.from_jumps(T, jump_times[inside], theta[inside], drift=_x_drift(params, T))
    Y = CadlagPath.from_jumps(T, jump_times[inside], beta[inside], drift=params.alpha)
    return ThinnedLevyRealization(xi=xi, X_path=X, Y_path=Y, params=params)


def _x_drift(params: LimitParameters, T: float) -> float:
    drift = params.lam - float(np.sum(params.theta**2)) / params.kappa
    if not np.isfinite(drift * T):
        raise ValueError(f"lambda = {params.lam} makes X's drift overflow over [0, {T}]")
    return drift


def limit_pairs_batch(params: LimitParameters, T: float, xi: np.ndarray, top_j: int) -> np.ndarray:
    """``stats._pad_pairs(gamma_down(X, Y), top_j)`` for the pair (X, Y) that
    ``sample_thinned_levy`` builds from each row of the (R, K) clock matrix
    ``xi``: one (R, 2 top_j + 1) pass over the segment tables of all rows,
    of which those functions are the one-row case."""
    if params.theta.size == 0:
        raise ValueError("the limit pair needs at least one hub: K_max must be >= 1")
    jump_times = xi / params.kappa
    inside = jump_times <= T
    X, x_check = jump_rows(T, jump_times, params.theta, inside, drift=_x_drift(params, T))
    Y, y_check = jump_rows(T, jump_times, params.beta, inside, drift=params.alpha)
    row, pairs, checks = gamma_rows(X, Y)
    raise_first(x_check, y_check, *checks)
    return pad_rows(row, pairs, xi.shape[0], top_j)


_MAX_SURPLUS_CANDIDATES = 1e7


def sample_surplus_process(x: CadlagPath, rng: np.random.Generator) -> CadlagPath:
    """Counting path with conditional intensity (X - running min) dt.

    On a segment of X whose running minimum where it starts is m, the
    intensity is X(u) - m clipped at 0, with sup max(v, end) - m; the
    candidates of all segments are thinned against their sups in one pass.
    Their expected number, the sum of sup times length over the segments,
    may be at most 1e7; a larger one raises ``ValueError``, since every
    candidate takes array slots.
    """
    a, v, s, b, _ = (c[0] for c in x.rows())
    end, m = _segment_minima(a, v, s, b)
    hi = np.maximum(v, end) - m
    cells = (b > a) & (hi > 0)
    a, v, s, w, m, hi = (c[cells] for c in (a, v, s, b - a, m, hi))
    with np.errstate(over="ignore"):  # an overflow reads inf, which the cap rejects
        mean = hi * w
        total = mean.sum()
    if not total <= _MAX_SURPLUS_CANDIDATES:
        raise ValueError(
            f"lambda or levy_horizon is too large: the surplus process would draw {total:.3g} "
            f"candidate events, above the cap of {_MAX_SURPLUS_CANDIDATES:.0e}"
        )
    k = np.repeat(np.arange(a.size), rng.poisson(mean))
    u = a[k] + w[k] * rng.random(k.size)
    # where X is under m, X - m < 0 <= every draw: the clip at 0
    events = np.sort(u[rng.random(k.size) * hi[k] < v[k] + s[k] * (u - a[k]) - m[k]])
    times = np.concatenate(([0.0], events))
    return CadlagPath(times, np.arange(times.size, dtype=float), np.zeros(times.size), x.horizon)


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
