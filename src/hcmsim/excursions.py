"""Excursions of cadlag paths above their running minimum.

Decomposition, the ordered length/weight-increment vector, goodness
diagnostics, and the hitting-time point processes used to compare finite
walks with their limits. All interval endpoints are roots of linear
equations on the jump-plus-drift representation, so the identities
(disjointness, complement measure) are exact up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import CadlagPath, _tol


@dataclass
class ExcursionInterval:
    l: float
    r: float
    length: float


@dataclass
class ExcursionPointProcess:
    """Atoms (t_i, x_i, y_i): hitting time, spacing, weight increment."""

    atoms: np.ndarray  # shape (m, 3)

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float).reshape(-1, 3)
        t = self.atoms[:, 0]
        if np.unique(t).size != t.size:
            raise ValueError("atom times must be distinct")

    def ordered(self) -> np.ndarray:
        """Atoms sorted by decreasing x, ties broken by smaller t."""
        idx = np.lexsort((self.atoms[:, 0], -self.atoms[:, 1]))
        return self.atoms[idx]


def excursion_decompose(f: CadlagPath) -> list[ExcursionInterval]:
    """Maximal excursion intervals of ``f`` above its running minimum.

    Requires ``f`` to have no negative jumps. An excursion still open at
    the horizon is dropped (it has no right endpoint).
    """
    if f.has_negative_jumps():
        raise ValueError("path has negative jumps; excursion intervals undefined")
    scale = max(1.0, float(np.max(np.abs(f.values))))
    tol = _tol(scale)
    out: list[ExcursionInterval] = []
    m = f.values[0]
    in_exc = False
    l = 0.0
    K = len(f.times)
    for k in range(K):
        a = f.times[k]
        b = f.times[k + 1] if k + 1 < K else f.horizon
        v, s = float(f.values[k]), float(f.slopes[k])
        if not in_exc:
            if v > m + tol:
                in_exc, l = True, a  # jump lifted the path off its minimum
            elif s > 0.0 and b > a:
                in_exc, l = True, a  # drift lifts it off the minimum
                m = min(m, v)
            elif s < 0.0:
                m = min(m, v) + s * (b - a)
                continue
            else:
                m = min(m, v)
                continue
        if s < 0.0:
            end = v + s * (b - a)
            if end <= m + tol:
                tstar = a + (m - v) / s
                tstar = min(max(tstar, a), b)
                out.append(ExcursionInterval(l, tstar, tstar - l))
                in_exc = False
                m = v + s * (b - a)  # path rides the minimum down afterwards
    return out


def gamma_down(f: CadlagPath, g: CadlagPath) -> np.ndarray:
    """Ordered excursion vector of (length, g-increment) pairs.

    Pairs are sorted by decreasing length with ties broken by order of
    appearance. The increment is taken as ``g(r) - g(l-)`` so that a
    weight jump occurring exactly at the left endpoint is attributed to
    the excursion it opens; on jointly good paths ``g`` is continuous at
    both endpoints and this coincides with ``g(r) - g(l)``.
    """
    if not g.is_nondecreasing():
        raise ValueError("g must be non-decreasing")
    exc = excursion_decompose(f)
    if not exc:
        return np.zeros((0, 2))
    lefts = np.array([e.l for e in exc])
    rights = np.array([e.r for e in exc])
    g_left = _left_eval(g, lefts)
    g_right = np.atleast_1d(g.eval(rights))
    pairs = np.column_stack((rights - lefts, g_right - g_left))
    idx = np.lexsort((lefts, -pairs[:, 0]))
    return pairs[idx]


def _left_eval(g: CadlagPath, t):
    """Left limits g(t-) for an array of times."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.searchsorted(g.times, t, side="left") - 1
    idx = np.clip(idx, 0, len(g.times) - 1)
    return g.values[idx] + g.slopes[idx] * (t - g.times[idx])


def point_process_from_hitting_times(f: CadlagPath, g: CadlagPath, t_list) -> ExcursionPointProcess:
    """Atoms (t_i, t_i - t_{i-1}, g(t_i) - g(t_{i-1})) with t_0 = 0.

    Every t in ``t_list`` must be a running-minimum time of ``f``.
    """
    t = np.asarray(t_list, dtype=float)
    if np.any(np.diff(t) <= 0):
        raise ValueError("hitting times must be strictly increasing")
    m = f.running_minimum()
    fv = np.atleast_1d(f.eval(t))
    mv = np.atleast_1d(m.eval(t))
    tol = _tol(float(np.max(np.abs(f.values))))
    bad = np.abs(fv - mv) > tol
    if np.any(bad):
        raise ValueError(f"t={t[bad][0]} is not a running-minimum time of f")
    gv = np.atleast_1d(g.eval(t))
    prev_t = np.concatenate(([0.0], t[:-1]))
    prev_g = np.concatenate(([float(g.eval(0.0))], gv[:-1]))
    atoms = np.column_stack((t, t - prev_t, gv - prev_g))
    return ExcursionPointProcess(atoms)


def vague_distance(a: ExcursionPointProcess, b: ExcursionPointProcess, window) -> float:
    """Matching distance between two point processes on a compact window.

    ``window = (t_lo, t_hi, x_lo, x_hi)``. Atoms inside the window are
    greedily paired by nearest length; the distance is the largest
    coordinate discrepancy over pairs plus a penalty of 1 per unmatched
    atom.
    """
    t_lo, t_hi, x_lo, x_hi = window

    def inside(pp):
        A = pp.atoms
        keep = (A[:, 0] >= t_lo) & (A[:, 0] <= t_hi) & (A[:, 1] >= x_lo) & (A[:, 1] <= x_hi)
        return A[keep]

    A, B = inside(a), inside(b)
    used = np.zeros(len(B), dtype=bool)
    dist = 0.0
    unmatched = 0
    for atom in A[np.argsort(-A[:, 1])]:
        free = np.flatnonzero(~used)
        if free.size == 0:
            unmatched += 1
            continue
        j = free[np.argmin(np.abs(B[free, 1] - atom[1]))]
        used[j] = True
        dist = max(dist, float(np.max(np.abs(B[j] - atom))))
    unmatched += int(np.sum(~used))
    return dist + 1.0 * unmatched


def check_good(f: CadlagPath, epsilon_grid: float | None = None, measure_tol: float = 1e-9) -> dict:
    """Diagnostic report on the goodness conditions of a realized path.

    Checks, on the finite event representation: (a) the complement of the
    excursions within [0, last right endpoint] has measure below
    ``measure_tol``; (b) no excursion right endpoint is a local minimum
    within a one-sided window ``epsilon_grid``; (c) for each dyadic
    epsilon the number of excursions longer than epsilon (always finite
    here, reported for completeness). Violations are flagged, never
    raised. The no-isolated-endpoint condition is not checkable on a
    finite realization and is reported as such.
    """
    if epsilon_grid is None:
        epsilon_grid = 1e-6 * f.horizon
    exc = excursion_decompose(f)
    report: dict = {
        "n_excursions": len(exc),
        "isolated_points": "not checkable on a finite realization",
    }
    if not exc:
        report.update(
            last_right=0.0,
            complement_measure=0.0,
            complement_flag=False,
            local_min_endpoints=[],
            local_min_flag=False,
            dyadic_counts={},
        )
        return report
    last_right = max(e.r for e in exc)
    total_len = sum(e.length for e in exc)
    complement = last_right - total_len
    flagged = []
    scale = max(1.0, float(np.max(np.abs(f.values))))
    tol = _tol(scale)
    for e in exc:
        lo = e.r
        hi = min(e.r + epsilon_grid, f.horizon)
        if hi <= lo:
            continue
        if _window_min(f, lo, hi) >= float(f.eval(e.r)) - tol:
            flagged.append(e.r)
    max_len = max(e.length for e in exc)
    dyadic = {}
    eps = max_len
    for _ in range(12):
        eps /= 2.0
        dyadic[eps] = int(sum(1 for e in exc if e.length > eps))
    report.update(
        last_right=last_right,
        complement_measure=complement,
        complement_flag=bool(complement > measure_tol),
        local_min_endpoints=flagged,
        local_min_flag=bool(flagged),
        dyadic_counts=dyadic,
    )
    return report


def _window_min(f: CadlagPath, lo: float, hi: float) -> float:
    """Minimum of f over (lo, hi], exact on the segment representation."""
    ks = f.segment_index(lo)
    ke = f.segment_index(hi)
    best = float(f.eval(hi))
    for k in range(int(ks), int(ke) + 1):
        a = max(float(f.times[k]), lo)
        b = f.times[k + 1] if k + 1 < len(f.times) else f.horizon
        b = min(float(b), hi)
        if b <= a:
            continue
        # on a linear piece the minimum sits at an endpoint; lo itself is excluded
        right = float(f.values[k] + f.slopes[k] * (b - f.times[k]))
        left = float(f.values[k] + f.slopes[k] * (a - f.times[k]))
        best = min(best, right, left if a > lo else right)
        if k + 1 < len(f.times) and f.times[k + 1] <= hi:
            best = min(best, float(f.values[k + 1]))
    return best
