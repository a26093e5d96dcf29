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


def _tol(scale: float) -> float:
    return 1e-9 * max(1.0, abs(scale))


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

    def has_negative_jumps(self, tol=None):
        _, sizes = self.jumps()
        if sizes.size == 0:
            return False
        if tol is None:
            tol = _tol(np.max(np.abs(self.values)))
        return bool(np.any(sizes < -tol))

    def is_nondecreasing(self, tol=None):
        if tol is None:
            tol = _tol(np.max(np.abs(self.values)))
        _, sizes = self.jumps()
        return bool(np.all(self.slopes >= -tol)) and not np.any(sizes < -tol)

    # -- derived paths ---------------------------------------------------

    def _segment_minima(self):
        """``(end, m)`` per segment: ``end`` is the left limit at its right
        end, ``m`` the running minimum where it starts, its own value
        included. A linear piece has its infimum at one of its ends, so
        ``m`` is exact."""
        end = self._segment_ends()
        return end, np.minimum.accumulate(np.minimum(self.values, np.concatenate((self.values[:1], end[:-1]))))

    def running_minimum(self) -> "CadlagPath":
        """Continuous non-increasing path ``t -> inf_{s<=t} f(s)``."""
        a, v, s = self.times, self.values, self.slopes
        end, m = self._segment_minima()
        # a falling segment that starts on the minimum or ends below it rides
        # the minimum from tstar, where it crosses it, to its right end
        down = (s < 0.0) & ((v <= m) | (end < m))
        tstar = a + np.divide(m - v, s, out=np.zeros_like(v), where=down)
        late = np.flatnonzero(tstar > a)  # flat on [a, tstar) first
        pts = np.stack((a, m, np.where(down & (tstar <= a), s, 0.0)))  # (times, values, slopes)
        if late.size:
            pts = np.insert(pts, late + 1, np.stack((tstar[late], m[late], s[late])), axis=1)
            # collapse duplicate breakpoints introduced by tstar == b edge cases
            pts = pts[:, np.concatenate(([True], np.diff(pts[0]) > 0))]
        return CadlagPath(*pts, self.horizon)

    def reflected(self) -> "CadlagPath":
        """Pathwise ``f - running minimum``; non-negative everywhere."""
        m = self.running_minimum()
        ts = np.union1d(self.times, m.times)
        vals = np.atleast_1d(self.eval(ts)) - np.atleast_1d(m.eval(ts))
        slopes = self.slope_at(ts) - m.slope_at(ts)
        return CadlagPath(ts, vals, slopes, self.horizon)

    # -- export -----------------------------------------------------------

    def sample_grid(self, step):
        """(t, f(t)) on a regular grid of spacing ``step`` (plus the horizon)."""
        if step <= 0:
            raise ValueError("grid step must be positive")
        t = np.arange(0.0, self.horizon + step * 0.5, step)
        if t.size == 0 or t[-1] < self.horizon:
            t = np.append(t, self.horizon)
        return t, np.atleast_1d(self.eval(t))
