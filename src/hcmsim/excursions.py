"""Excursions of cadlag paths above their running minimum.

The decomposition and the ordered length/weight-increment vector used to
compare finite walks with their limits. All interval endpoints are roots
of linear equations on the jump-plus-drift representation, so the
identities (disjointness, complement measure) are exact up to float
rounding.
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
