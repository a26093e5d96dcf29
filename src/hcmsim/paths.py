"""Piecewise-linear cadlag paths with an exact jump-plus-drift representation.

A path is stored as breakpoints ``times[k]`` with right-continuous values
``values[k]`` and a drift slope ``slopes[k]`` on ``[times[k], times[k+1])``
(the last slope extends to the horizon). Jumps are the discontinuities
between the left limit of one segment and the value opening the next, so
evaluation at breakpoints is exact and excursion endpoints are roots of
linear equations rather than bracketed approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _tol(scale):
    """Tolerance of a path whose largest absolute value is ``scale``; an array
    of scales gives one tolerance each."""
    return 1e-9 * np.fmax(1.0, np.abs(scale))


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
        """Path ``start + drift*t + sum of jumps up to t``.

        Jump times must lie in (0, horizon]; zero-size jumps are dropped.
        Coinciding jump times are merged by summing their sizes.
        """
        jt = np.asarray(jump_times, dtype=float)
        js = np.asarray(jump_sizes, dtype=float)
        keep = js != 0.0
        jt, js = jt[keep], js[keep]
        if jt.size and (jt.min() <= 0.0 or jt.max() > horizon):
            raise ValueError("jump times must lie in (0, horizon]")
        order = np.argsort(jt, kind="stable")
        jt, js = jt[order], js[order]
        ut, inv = np.unique(jt, return_inverse=True)
        us = np.zeros_like(ut)
        np.add.at(us, inv, js)
        times = np.concatenate(([0.0], ut))
        cum = np.concatenate(([0.0], np.cumsum(us)))
        values = start + drift * times + cum
        slopes = np.full(times.shape, float(drift))
        return cls(times, values, slopes, float(horizon))

    # -- evaluation -----------------------------------------------------

    def segment_index(self, t):
        idx = np.searchsorted(self.times, t, side="right") - 1
        return np.clip(idx, 0, len(self.times) - 1)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        k = self.segment_index(t)
        out = self.values[k] + self.slopes[k] * (t - self.times[k])
        return out if out.ndim else float(out)

    def slope_at(self, t):
        return self.slopes[self.segment_index(t)]

    def left_limits(self):
        """Left limit of the path at each breakpoint (= value at t=0 for k=0)."""
        return np.concatenate((self.values[:1], self._segment_ends()[:-1]))

    def _segment_ends(self):
        """Left limit at each segment's right end, the horizon for the last."""
        return self.values + self.slopes * (np.concatenate((self.times[1:], [self.horizon])) - self.times)

    def jumps(self):
        """(times, sizes) of the nonzero jumps."""
        sizes = self.values - self.left_limits()
        keep = sizes != 0.0
        return self.times[keep], sizes[keep]

    def has_negative_jumps(self, tol=None, end=None):
        """Whether a jump falls below ``-tol``; ``end`` passes the segment
        ends (``_segment_ends``) when the caller has them already."""
        if tol is None:
            tol = _tol(np.max(np.abs(self.values)))
        if end is None:
            end = self._segment_ends()
        return bool(np.any(self.values[1:] - end[:-1] < -tol))

    def is_nondecreasing(self, tol=None):
        if tol is None:
            tol = _tol(np.max(np.abs(self.values)))
        return bool(np.all(self.slopes >= -tol)) and not self.has_negative_jumps(tol)

    # -- derived paths ---------------------------------------------------

    def _segment_minima(self):
        """``(end, m)`` per segment: ``end`` is the left limit at its right
        end, ``m`` the running minimum where it starts, its own value
        included. A linear piece has its infimum at one of its ends, so
        ``m`` is exact."""
        end = self._segment_ends()
        return end, np.minimum.accumulate(np.minimum(self.values, np.concatenate((self.values[:1], end[:-1]))))

    def _minimum_points(self):
        """The running minimum's breakpoints as rows (times, values, slopes),
        and for each the segment of ``self`` that ``eval`` picks there."""
        a, v, s = self.times, self.values, self.slopes
        end, m = self._segment_minima()
        b = np.concatenate((a[1:], [self.horizon]))
        # a falling segment that starts on the minimum or ends below it rides
        # the minimum from tstar, where it crosses it, to its right end
        down = (s < 0.0) & ((v <= m) | (end < m))
        tstar = a + np.divide(m - v, s, out=np.zeros_like(v), where=down)
        # flat on [a, tstar) first; a crossing that rounds onto b or past it
        # leaves the whole segment flat, and the next one starts below m
        cross = (tstar > a) & (tstar < b)
        seg = np.repeat(np.arange(a.size), 1 + cross)  # segment k's points: a_k, then tstar_k
        at = np.arange(a.size) + np.cumsum(cross) - cross
        pts = np.empty((3, seg.size))  # (times, values, slopes)
        pts[:, at] = a, m, np.where(down & (tstar <= a), s, 0.0)
        pts[:, at[cross] + 1] = tstar[cross], m[cross], s[cross]
        return pts, seg

    def running_minimum(self) -> "CadlagPath":
        """Continuous non-increasing path ``t -> inf_{s<=t} f(s)``."""
        return CadlagPath(*self._minimum_points()[0], self.horizon)

    def reflected(self) -> "CadlagPath":
        """Pathwise ``f - running minimum``; non-negative everywhere.

        The minimum's breakpoints include the path's own, so both paths are
        evaluated there as ``eval`` does, each on its segment at that time."""
        (t, mv, ms), k = self._minimum_points()
        a, v, s = self.times[k], self.values[k], self.slopes[k]
        return CadlagPath(t, (v + s * (t - a)) - (mv + ms * (t - t)), s - ms, self.horizon)

    # -- export -----------------------------------------------------------

    def sample_grid(self, step):
        """(t, f(t)) on a regular grid of spacing ``step`` (plus the horizon)."""
        if step <= 0:
            raise ValueError("grid step must be positive")
        t = np.arange(0.0, self.horizon + step * 0.5, step)
        if t.size == 0 or t[-1] < self.horizon:
            t = np.append(t, self.horizon)
        return t, np.atleast_1d(self.eval(t))
