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
    return [ExcursionInterval(l, r, r - l) for l, r in zip(*_excursion_bounds(f))]


def _excursion_bounds(f: CadlagPath) -> tuple[np.ndarray, np.ndarray]:
    """Left and right endpoints of the excursions, read off the segments."""
    a, v, s = f.times, f.values, f.slopes
    end, m = f._segment_minima()
    tol = _tol(np.max(np.abs(v)))
    if f.has_negative_jumps(tol, end):
        raise ValueError("path has negative jumps; excursion intervals undefined")
    # lifted off the minimum by a jump, or by rising drift
    above = (v > m + tol) | (s > 0.0)
    close = above & (s < 0.0) & (end <= m + tol)
    opens = np.flatnonzero(above & ~np.concatenate(([False], (above & ~close)[:-1])))
    k = np.flatnonzero(close)
    b = np.concatenate((a[1:], [f.horizon]))[k]
    r = np.minimum(np.maximum(a[k] + (m[k] - v[k]) / s[k], a[k]), b)
    # each excursion opens at the last opening segment up to its close
    return a[opens[np.searchsorted(opens, k, side="right") - 1]], r


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
    lefts, rights = _excursion_bounds(f)
    if not lefts.size:
        return np.zeros((0, 2))
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
