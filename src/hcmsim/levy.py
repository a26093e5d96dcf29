"""The limit pair (X, Y) with hub-clock jumps, and the conditional surplus process.

With hub clocks xi_i ~ Exp(theta_i), the pair is

    X(t) = sum_i theta_i (1[xi_i <= kappa t] - theta_i t / kappa) + lambda t
    Y(t) = sum_i beta_i   1[xi_i <= kappa t] + alpha t

truncated at K_max terms; jumps are exact events, drift is analytic, and a
grid step only controls export density. Conditionally on X, the surplus
count N is Poisson with intensity (X(t) - inf_{s<=t} X(s)) dt.
``limit_pairs_batch`` turns many rows of clocks into their ordered
excursion vectors in one array pass, with the paths' float operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import InvariantError, as_generator, write_rows
from .degrees import LimitParameters
from .paths import CadlagPath, _tol


@dataclass
class ThinnedLevyRealization:
    xi: np.ndarray
    X_path: CadlagPath
    Y_path: CadlagPath
    params: LimitParameters


def sample_thinned_levy(params: LimitParameters, T: float, rng_seed) -> ThinnedLevyRealization:
    """Draw the clocks and build (X, Y) on [0, T] as exact jump+drift paths."""
    if params.theta.size == 0:
        raise ValueError("the limit pair needs at least one hub: K_max must be >= 1")
    rng = as_generator(rng_seed)
    theta, beta = params.theta, params.beta
    xi = rng.exponential(1.0 / theta)
    jump_times = xi / params.kappa
    inside = jump_times <= T
    X = CadlagPath.from_jumps(T, jump_times[inside], theta[inside], drift=_x_drift(params))
    Y = CadlagPath.from_jumps(T, jump_times[inside], beta[inside], drift=params.alpha)
    return ThinnedLevyRealization(xi=xi, X_path=X, Y_path=Y, params=params)


def _x_drift(params: LimitParameters) -> float:
    return params.lam - float(np.sum(params.theta**2)) / params.kappa


def limit_pairs_batch(params: LimitParameters, T: float, xi: np.ndarray, top_j: int) -> np.ndarray:
    """``stats._pad_pairs(gamma_down(X, Y), top_j)`` for the pair (X, Y) that
    ``sample_thinned_levy`` builds from each row of the (R, K) clock matrix
    ``xi``, as one (R, 2 top_j + 1) array pass.

    Each row repeats the float operations of ``from_jumps``, ``gamma_down``
    and ``_pad_pairs`` in their order, so it equals the path form bit for
    bit, and the first row that the path form rejects raises its
    ``ValueError``. Row i holds X's breakpoints in columns 0..nb_i - 1, then
    copies of T, over as many columns as the most jumps in (0, T] of any
    row. Every theta is non-zero (LimitParameters keeps it
    positive), so X breaks at each distinct jump time in (0, T]; Y breaks
    only where some non-zero beta jumps, and is evaluated on its own
    segments through ``ylast``.
    """
    theta, beta, drift, alpha = params.theta, params.beta, _x_drift(params), params.alpha
    if theta.size == 0:
        raise ValueError("the limit pair needs at least one hub: K_max must be >= 1")
    jump_times = xi / params.kappa
    inside = jump_times <= T
    n_in = inside.sum(axis=1)
    # each row's jumps in time order, tied ones in hub order, as from_jumps
    # sorts them; no row has a jump past column max(n_in)
    order = np.argsort(np.where(inside, jump_times, np.inf), axis=1, kind="stable")[:, : n_in.max(initial=0)]
    t = np.take_along_axis(jump_times, order, axis=1)
    R, K = t.shape
    cols = np.arange(K + 1)
    valid = cols[:-1] < n_in[:, None]
    new = valid & (np.diff(t, axis=1, prepend=-np.inf) != 0.0)  # t differs from the jump before
    row, jump = np.nonzero(valid)
    bp = np.cumsum(new, axis=1)[row, jump]  # the breakpoint of each jump
    nb = 1 + new.sum(axis=1)[:, None]
    y_jump = beta[order][row, jump]
    # tied jumps add into zeros in hub order, then cumsum; a zero beta adds
    # 0.0, which leaves the bits of Y's sums as they are without it
    sizes = np.zeros((2, R, K + 1))
    np.add.at(sizes, (0, row, bp), theta[order][row, jump])
    np.add.at(sizes, (1, row, bp), y_jump)
    a = np.full((R, K + 1), float(T))
    a[:, 0] = 0.0
    a[row, bp] = t[row, jump]
    v = 0.0 + drift * a + np.cumsum(sizes[0], axis=1)
    yv = 0.0 + alpha * a + np.cumsum(sizes[1], axis=1)
    has_y = np.zeros((R, K + 1), bool)
    has_y[:, 0] = True
    has_y[row[y_jump != 0], bp[y_jump != 0]] = True
    ylast = np.maximum.accumulate(np.where(has_y, cols, 0), axis=1)  # Y's segment at each column
    real = cols < nb

    b = np.concatenate((a[:, 1:], np.full((R, 1), float(T))), axis=1)
    end = v + drift * (b - a)
    m = np.minimum.accumulate(np.minimum(v, np.concatenate((v[:, :1], end[:, :-1]), axis=1)), axis=1)
    tol = _tol(np.max(np.abs(v), axis=1, where=real, initial=0.0))[:, None]
    ytol = _tol(np.max(np.abs(yv), axis=1, where=has_y, initial=0.0))
    prev = ylast[:, :-1]
    y_end = np.take_along_axis(yv, prev, axis=1) + alpha * (a[:, 1:] - np.take_along_axis(a, prev, axis=1))
    errors = (
        (np.any(inside & (jump_times <= 0.0), axis=1), "jump times must lie in (0, horizon]"),
        ((alpha < -ytol) | np.any(has_y[:, 1:] & (yv[:, 1:] - y_end < -ytol[:, None]), axis=1),
         "g must be non-decreasing"),
        (np.any(real[:, 1:] & (v[:, 1:] - end[:, :-1] < -tol), axis=1),
         "path has negative jumps; excursion intervals undefined"),
    )
    failed = np.logical_or.reduce([bad for bad, _ in errors])
    if failed.any():
        bad_row = int(np.argmax(failed))
        raise ValueError(next(msg for bad, msg in errors if bad[bad_row]))

    # excursions.gamma_down, one row per replicate
    above = real & ((v > m + tol) | (drift > 0.0))
    close = above & (drift < 0.0) & (end <= m + tol)
    opens = above & ~np.concatenate((np.zeros((R, 1), bool), (above & ~close)[:, :-1]), axis=1)
    last_open = np.maximum.accumulate(np.where(opens, cols, 0), axis=1)
    row, k = np.nonzero(close)
    o = last_open[row, k]
    ak, bk = a[row, k], b[row, k]
    rights = np.minimum(np.maximum(ak + (m[row, k] - v[row, k]) / drift, ak), bk)
    lefts = a[row, o]
    # Y(l-) on the segment before l, Y(r) on the segment that eval picks at r
    yl = ylast[row, np.maximum(o - 1, 0)]
    yr = ylast[row, k + ((rights >= bk) & (k + 1 < nb[row, 0]))]
    g_left = yv[row, yl] + alpha * (lefts - a[row, yl])
    g_right = yv[row, yr] + alpha * (rights - a[row, yr])
    lengths = rights - lefts
    rank_order = np.lexsort((lefts, -lengths, row))
    pairs = np.column_stack((lengths, g_right - g_left))[rank_order]

    # stats._pad_pairs: the top_j longest per row, then the tail's sum of squares
    row = row[rank_order]
    counts = np.bincount(row, minlength=R)
    first = np.cumsum(counts) - counts
    rank = np.arange(row.size) - first[row]
    head = rank < top_j
    out = np.zeros((R, top_j, 2))
    out[row[head], rank[head]] = pairs[head]
    tail = np.zeros(R)
    for i in np.flatnonzero(counts > top_j):
        tail[i] = np.sum(pairs[first[i] + top_j : first[i] + counts[i]] ** 2)
    return np.column_stack((out.reshape(R, 2 * top_j), tail))


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
