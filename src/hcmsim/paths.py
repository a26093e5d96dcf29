"""Piecewise-linear cadlag paths with an exact jump-plus-drift representation.

A path is stored as breakpoints ``times[k]`` with right-continuous values
``values[k]`` and a drift slope ``slopes[k]`` on ``[times[k], times[k+1])``
(the last slope extends to the horizon). Jumps are the discontinuities
between the left limit of one segment and the value opening the next, so
evaluation at breakpoints is exact and excursion endpoints are roots of
linear equations rather than bracketed approximations.

Segments stack into a table with one path per row (``jump_rows``), which
``excursions`` and ``levy.limit_pairs_batch`` run on; a ``CadlagPath`` is
its one-row case (``from_jumps``, ``rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _tol(scale):
    """Tolerance of a path whose largest absolute value is ``scale``; an array
    of scales gives one tolerance each."""
    return 1e-9 * np.fmax(1.0, np.abs(scale))


def raise_first(*checks):
    """Raise the ``ValueError`` of the first row failing one of the ``(bad
    rows, message)`` checks, with the first message that row fails."""
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        row = int(np.argmax(failed))
        raise ValueError(next(msg for bad, msg in checks if bad[row]))


def jump_rows(horizon, t, sizes, keep=True, drift=0.0, start=0.0):
    """Segment table of the paths ``start + drift*t + sum of jumps up to t``,
    one per row of the (R, K) jump times ``t``; ``sizes`` (K,) is the jump of
    each column and ``keep`` masks the jumps to take.

    Per row, the jumps are sorted stably and zero sizes dropped; tied jumps
    add into zeros in column order, then the sums accumulate. The table is
    five (R, C) arrays ``(a, v, s, b, real)``: segment starts, values there,
    slopes, segment ends, and which columns are the row's segments (the
    rest sit at the horizon). Also returns the ``raise_first`` check of the
    rows with a jump outside (0, horizon]."""
    keep = np.broadcast_to(keep & (sizes != 0.0), t.shape)
    bad = np.any(keep & ~((t > 0.0) & (t <= horizon)), axis=1)
    n = keep.sum(axis=1)
    order = np.argsort(np.where(keep, t, np.inf), axis=1, kind="stable")[:, : n.max(initial=0)]
    ts = np.take_along_axis(t, order, axis=1)
    valid = np.arange(ts.shape[1]) < n[:, None]
    new = valid.copy()
    new[:, 1:] &= ts[:, 1:] != ts[:, :-1]  # differs from the jump before
    row, jump = np.nonzero(valid)
    col = np.cumsum(new, axis=1)[row, jump]  # the breakpoint of each jump
    nb = 1 + new.sum(axis=1)
    shape = (t.shape[0], int(nb.max(initial=1)))
    summed = np.zeros(shape)
    np.add.at(summed, (row, col), sizes[order[row, jump]])
    a = np.full(shape, float(horizon))
    a[:, 0] = 0.0
    a[row, col] = ts[row, jump]
    v = start + drift * a + np.cumsum(summed, axis=1)
    b = np.concatenate((a[:, 1:], np.full((shape[0], 1), float(horizon))), axis=1)
    real = np.arange(shape[1]) < nb[:, None]
    return (a, v, np.full(shape, float(drift)), b, real), (bad, "jump times must lie in (0, horizon]")


def _segment_minima(a, v, s, b):
    """``(end, m)`` per segment along the last axis: ``end`` is the left
    limit at its right end, ``m`` the running minimum where it starts, its
    own value included. A linear piece has its infimum at one of its ends,
    so ``m`` is exact."""
    end = v + s * (b - a)
    return end, np.minimum.accumulate(np.minimum(v, np.concatenate((v[..., :1], end[..., :-1]), axis=-1)), axis=-1)


def eval_rows(table, row, t, side="right"):
    """Row ``row[i]`` of a segment table at ``t[i]``: its value on the
    segment that ``CadlagPath.eval`` picks (``side="right"``), or its left
    limit (``side="left"``)."""
    a, v, s, _, real = table
    nb = real.sum(axis=1)
    # complex numbers order by real part, then imaginary part: one search
    # over (row, time) keys finds each time among its own row's breakpoints
    keys = np.stack((np.nonzero(real)[0], a[real]), axis=1, dtype=float).view(complex).ravel()
    k = np.searchsorted(keys, np.stack((row, t), axis=1, dtype=float).view(complex).ravel(), side)
    k = np.maximum(k - (np.cumsum(nb) - nb)[row] - 1, 0)
    return v[row, k] + s[row, k] * (t - a[row, k])


@dataclass
class CadlagPath:
    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.slopes = np.asarray(self.slopes, dtype=float)
        if self.times.size == 0 or self.times[0] != 0.0:
            raise ValueError("path must start at time 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.times[-1] > self.horizon:
            raise ValueError("breakpoint beyond horizon")
        if not (self.times.shape == self.values.shape == self.slopes.shape):
            raise ValueError("times/values/slopes must have equal length")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_jumps(cls, horizon, jump_times, jump_sizes, drift=0.0, start=0.0):
        """Path ``start + drift*t + sum of jumps up to t``: the one-row case
        of ``jump_rows``, whose rules it follows."""
        t, sizes = np.asarray(jump_times, dtype=float)[None], np.asarray(jump_sizes, dtype=float)
        (a, v, s, _, _), check = jump_rows(horizon, t, sizes, drift=drift, start=start)
        raise_first(check)
        return cls(a[0], v[0], s[0], float(horizon))

    def rows(self):
        """The path as a one-row segment table, as ``jump_rows`` returns it."""
        b = np.concatenate((self.times[1:], [self.horizon]))
        return self.times[None], self.values[None], self.slopes[None], b[None], np.ones((1, self.times.size), bool)

    # -- evaluation -----------------------------------------------------

    def segment_index(self, t):
        idx = np.searchsorted(self.times, t, side="right") - 1
        return np.clip(idx, 0, len(self.times) - 1)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        k = self.segment_index(t)
        out = self.values[k] + self.slopes[k] * (t - self.times[k])
        return out if out.ndim else float(out)

    # -- export -----------------------------------------------------------

    def sample_grid(self, step):
        """(t, f(t)) on a regular grid of spacing ``step`` (plus the horizon)."""
        if not 0 < step < np.inf:
            raise ValueError(f"grid step must be finite and > 0, got {step}")
        t = np.arange(0.0, self.horizon + step * 0.5, step)
        if t.size == 0 or t[-1] < self.horizon:
            t = np.append(t, self.horizon)
        return t, np.atleast_1d(self.eval(t))
