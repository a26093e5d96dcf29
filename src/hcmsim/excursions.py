"""Excursions of cadlag paths above their running minimum.

The decomposition and the ordered length/weight-increment vector used to
compare finite walks with their limits. Each is computed on a stack of
segment tables (``paths.jump_rows``), one path per row: a single path is
the one-row case, and the limit replicates of ``levy.limit_pairs_batch``
are many rows. All interval endpoints are roots of linear equations on
the jump-plus-drift representation, so the identities (disjointness,
complement measure) are exact up to float rounding.
"""

from __future__ import annotations

import numpy as np

from .paths import CadlagPath, _segment_minima, _tol, eval_rows, raise_first


def excursion_rows(a, v, s, b, real):
    """The excursions of each row of a segment table: their rows, left and
    right endpoints, by row and then in time order, and the ``raise_first``
    check of the rows with a negative jump (their excursions are undefined)."""
    end, m = _segment_minima(a, v, s, b)
    tol = _tol(np.max(np.abs(v), axis=1, where=real, initial=0.0))[:, None]
    # lifted off the minimum by a jump, or by rising drift
    above = real & ((v > m + tol) | (s > 0.0))
    close = above & (s < 0.0) & (end <= m + tol)
    opens = above & ~np.concatenate((np.zeros_like(above[:, :1]), (above & ~close)[:, :-1]), axis=1)
    # each excursion opens at the last opening segment up to its close
    last_open = np.maximum.accumulate(np.where(opens, np.arange(a.shape[1]), 0), axis=1)
    row, k = np.nonzero(close)
    ak = a[row, k]
    rights = np.minimum(np.maximum(ak + (m[row, k] - v[row, k]) / s[row, k], ak), b[row, k])
    falls = _negative_jumps(v, end, real, tol)
    return row, a[row, last_open[row, k]], rights, (falls, "path has negative jumps; excursion intervals undefined")


def _negative_jumps(v, end, real, tol):
    """Which rows have a jump below ``-tol``."""
    return np.any(real[:, 1:] & (v[:, 1:] - end[:, :-1] < -tol), axis=1)


def gamma_rows(f, g):
    """``gamma_down`` of each row pair of the segment tables ``f`` and ``g``:
    the rows of the pairs, the pairs in row order, and the checks for
    ``paths.raise_first``, in the order ``gamma_down`` makes them."""
    row, lefts, rights, f_check = excursion_rows(*f)
    a, v, s, b, real = g
    tol = _tol(np.max(np.abs(v), axis=1, where=real, initial=0.0))[:, None]
    g_falls = np.any(real & ~(s >= -tol), axis=1) | _negative_jumps(v, v + s * (b - a), real, tol)
    lengths = rights - lefts
    # g(r) - g(l-): a jump of g at l counts for the excursion that l opens
    pairs = np.column_stack((lengths, eval_rows(g, row, rights) - eval_rows(g, row, lefts, "left")))
    # stable, so equal lengths keep the (row, left) order excursion_rows returns
    order = np.lexsort((-lengths, row))
    return row[order], pairs[order], ((g_falls, "g must be non-decreasing"), f_check)


def gamma_down(f: CadlagPath, g: CadlagPath) -> np.ndarray:
    """Ordered excursion vector of (length, g-increment) pairs.

    Pairs are sorted by decreasing length with ties broken by order of
    appearance. The increment is taken as ``g(r) - g(l-)`` so that a
    weight jump occurring exactly at the left endpoint is attributed to
    the excursion it opens; on jointly good paths ``g`` is continuous at
    both endpoints and this coincides with ``g(r) - g(l)``.
    """
    _, pairs, checks = gamma_rows(f.rows(), g.rows())
    raise_first(*checks)
    return pairs


def pad_rows(row, pairs, R: int, top_j: int) -> np.ndarray:
    """(R, 2 top_j + 1) rows: the first ``top_j`` pairs of each row, flat and
    zero-padded, then the sum of squares of the rest. ``row`` is sorted."""
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
