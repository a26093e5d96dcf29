import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmsim.paths import CadlagPath, _segment_minima, _tol


# Path builders, the path members that only tests read, and the segment
# loop of the running minimum, kept as the reference that the segment
# minima are compared against.
def step_path(values, horizon=None, dt=1.0):
    """Right-continuous step path through ``values`` at spacing ``dt``."""
    values = np.asarray(values, dtype=float)
    times = np.arange(values.size) * float(dt)
    if horizon is None:
        horizon = times[-1] if values.size else 0.0
    return CadlagPath(times, values, np.zeros_like(values), float(horizon))


def linear_path(times, values, horizon=None):
    """Continuous path interpolating (times, values) linearly."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if horizon is None:
        horizon = times[-1]
    dt = np.diff(times)
    slopes = np.concatenate((np.diff(values) / dt, [0.0]))
    return CadlagPath(times, values, slopes, float(horizon))


def slope_at(f: CadlagPath, t):
    return f.slopes[f.segment_index(t)]


def segment_ends(f: CadlagPath) -> np.ndarray:
    """Left limit at each segment's right end, the horizon for the last."""
    return f.values + f.slopes * (np.concatenate((f.times[1:], [f.horizon])) - f.times)


def left_limits(f: CadlagPath) -> np.ndarray:
    """Left limit of the path at each breakpoint (= value at t=0 for k=0)."""
    return np.concatenate((f.values[:1], segment_ends(f)[:-1]))


def jumps(f: CadlagPath):
    """(times, sizes) of the nonzero jumps."""
    sizes = f.values - left_limits(f)
    keep = sizes != 0.0
    return f.times[keep], sizes[keep]


def has_negative_jumps(f: CadlagPath, tol=None) -> bool:
    """Whether a jump falls below ``-tol``."""
    if tol is None:
        tol = _tol(np.max(np.abs(f.values)))
    return bool(np.any(f.values[1:] - segment_ends(f)[:-1] < -tol))


def is_nondecreasing(f: CadlagPath) -> bool:
    tol = _tol(np.max(np.abs(f.values)))
    return bool(np.all(f.slopes >= -tol)) and not has_negative_jumps(f, tol)


def segment_minima(f: CadlagPath) -> np.ndarray:
    """Running minimum where each segment of ``f`` starts, as
    ``_segment_minima`` computes it for the excursions and the surplus process."""
    return _segment_minima(*(c[0] for c in f.rows()[:4]))[1]


def minima_match_the_loop(f: CadlagPath) -> bool:
    """Whether each segment's running minimum has the bits of the loop's at its start."""
    return segment_minima(f).tobytes() == np.atleast_1d(running_minimum_loop(f).eval(f.times)).tobytes()


def running_minimum_loop(self: CadlagPath) -> CadlagPath:
    """Continuous non-increasing path ``t -> inf_{s<=t} f(s)``."""
    out_t, out_v, out_s = [], [], []
    m = self.values[0]
    K = len(self.times)
    for k in range(K):
        a = self.times[k]
        b = self.times[k + 1] if k + 1 < K else self.horizon
        v, s = self.values[k], self.slopes[k]
        m = min(m, v)
        if v <= m and s < 0.0:
            # path rides the minimum down through the whole segment
            out_t.append(a), out_v.append(m), out_s.append(s)
            m = v + s * (b - a)
        elif s < 0.0:
            end = v + s * (b - a)
            if end < m:
                tstar = a + (m - v) / s
                out_t.append(a), out_v.append(m), out_s.append(0.0)
                if tstar <= a:
                    out_s[-1] = s
                elif tstar < b:  # rounded onto b or past it: flat to b
                    out_t.append(tstar), out_v.append(m), out_s.append(s)
                m = end
            else:
                out_t.append(a), out_v.append(m), out_s.append(0.0)
        else:
            out_t.append(a), out_v.append(m), out_s.append(0.0)
    return CadlagPath(np.asarray(out_t), np.asarray(out_v), np.asarray(out_s), self.horizon)


def reflected_loop(f: CadlagPath) -> CadlagPath:
    """``f`` minus running_minimum_loop(f), on the breakpoints of both."""
    m = running_minimum_loop(f)
    ts = np.union1d(f.times, m.times)
    vals = np.atleast_1d(f.eval(ts)) - np.atleast_1d(m.eval(ts))
    slopes = slope_at(f, ts) - slope_at(m, ts)
    return CadlagPath(ts, vals, slopes, f.horizon)


def from_jumps_unique(horizon, jump_times, jump_sizes, drift=0.0, start=0.0) -> CadlagPath:
    """``CadlagPath.from_jumps`` for one path by np.unique and np.add.at: the
    reference that ``paths.jump_rows`` is compared against."""
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
    return CadlagPath(times, values, slopes, float(horizon))


def same_bits(p: CadlagPath, q: CadlagPath) -> bool:
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in [(p.times, q.times), (p.values, q.values), (p.slopes, q.slopes)]
    ) and p.horizon == q.horizon


@st.composite
def jump_drift_paths(draw, negative_jumps=False):
    """Jump-plus-drift paths on integer breakpoints, or the limit's shape.

    On the integer grid, values and slopes are dyadic, so the path meets
    its minimum exactly at breakpoints (ties), rises from it, touches it
    and is lifted off again; a horizon on the last breakpoint leaves a
    zero-length last segment, and an excursion may still be open there.
    Jumps are 0 or at least 0.01: the segment loop of the excursions
    drifts from the path's minimum on jumps below its 1e-9 tolerance
    (test_sub_tolerance_jumps_open_no_excursion).
    """
    if draw(st.booleans()):
        k = draw(st.integers(1, 12))
        gaps = np.array(draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1)), dtype=float)
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        horizon = times[-1] + draw(st.integers(0, 2))
        slopes = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]), min_size=k, max_size=k)))
        low = -2 if negative_jumps else 0
        jumps = np.array(draw(st.lists(st.integers(low, 3), min_size=k - 1, max_size=k - 1)), dtype=float)
        start = float(draw(st.integers(-2, 2)))
        values = start + np.concatenate(([0.0], np.cumsum(slopes[:-1] * gaps + jumps)))
        return CadlagPath(times, values, slopes, horizon)
    k = draw(st.integers(0, 8))
    floats = st.floats(0.01, 10.0, allow_nan=False)
    jump_times = draw(st.lists(floats, min_size=k, max_size=k))
    jump_sizes = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 3.0)), min_size=k, max_size=k))
    return CadlagPath.from_jumps(10.0, jump_times, jump_sizes, drift=draw(st.floats(-2.0, 0.5)))


def test_from_jumps_eval_exact():
    p = CadlagPath.from_jumps(10.0, [1.0, 4.0], [2.0, 0.5], drift=-0.25, start=1.0)
    assert p.eval(0.0) == 1.0
    assert p.eval(1.0) == pytest.approx(1.0 - 0.25 + 2.0)
    assert p.eval(4.0) == pytest.approx(1.0 - 1.0 + 2.5)
    assert p.eval(10.0) == pytest.approx(1.0 - 2.5 + 2.5)


def test_zero_jumps_dropped_and_merged():
    p = CadlagPath.from_jumps(5.0, [1.0, 1.0, 2.0], [1.0, 2.0, 0.0], drift=0.0)
    jt, js = jumps(p)
    assert list(jt) == [1.0]
    assert list(js) == [3.0]


def test_step_function_and_left_limits():
    p = step_path([0.0, 3.0, 1.0])
    assert p.eval(0.5) == 0.0
    assert p.eval(1.0) == 3.0
    ll = left_limits(p)
    assert list(ll) == [0.0, 0.0, 3.0]
    assert has_negative_jumps(p)


def test_running_minimum_with_jumps_and_drift():
    # down to -1 at t=1, jump to +1, back down to -1 at t=3, on to -2 at t=4
    p = CadlagPath.from_jumps(4.0, [1.0], [2.0], drift=-1.0)
    m = running_minimum_loop(p)
    for t, want in [(0.5, -0.5), (1.0, -1.0), (2.0, -1.0), (3.0, -1.0), (3.5, -1.5), (4.0, -2.0)]:
        assert float(m.eval(t)) == pytest.approx(want)
    # the running minimum never rises: no positive slope, no upward jump
    assert np.all(m.slopes <= 0)
    assert np.all(jumps(m)[1] < 0)
    assert not is_nondecreasing(m)


def test_piecewise_linear_interpolates():
    p = linear_path([0.0, 1.0, 2.0], [0.0, 2.0, -1.0])
    assert float(p.eval(0.5)) == pytest.approx(1.0)
    assert float(p.eval(1.5)) == pytest.approx(0.5)
    assert not has_negative_jumps(p)


def test_sample_grid_hits_horizon():
    p = CadlagPath.from_jumps(1.0, [0.3], [1.0], drift=0.0)
    t, v = p.sample_grid(0.4)
    assert t[-1] == 1.0
    assert v[-1] == pytest.approx(1.0)


def test_crossing_rounded_onto_the_next_breakpoint():
    # on [a, b) the path falls from v to just below its minimum m, but the
    # crossing time a + (m - v) / s rounds to b itself; the path rises after b
    a, b = 1.7075043856180703, 3.419415570222811
    s, v, m = -1.272988341563213, 0.9287020701322124, -1.2505409096612918
    assert a + (m - v) / s == b and v + s * (b - a) < m
    f = CadlagPath([0.0, a, b], [m, v, m + 1.0], [0.0, s, 1.0], b + 1.0)
    assert running_minimum_loop(f).slopes.tolist() == [0.0, 0.0, 0.0]
    # the last segment starts from the end of the crossing one, below m
    last = segment_minima(f)[-1]
    assert minima_match_the_loop(f) and last < m
    # the surplus intensity at the horizon, as the kernel reads it
    assert f.eval(b + 1.0) - last == reflected_loop(f).eval(b + 1.0) == pytest.approx(2.0)


def test_invalid_paths_rejected():
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.5]), np.array([0.0]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        CadlagPath.from_jumps(1.0, [2.0], [1.0])


@settings(max_examples=500)
@given(jump_drift_paths(negative_jumps=True))
def test_running_minimum_equals_the_segment_loop(f):
    assert minima_match_the_loop(f)


@settings(max_examples=300)
@given(st.data())
def test_from_jumps_equals_the_unique_merge(data):
    # quarter-grid times tie, sizes may be zero or negative, a path may have
    # no jumps; a time at 0 or past the horizon must be refused alike
    horizon = data.draw(st.sampled_from([1.0, 2.5, 4.0]))
    k = data.draw(st.integers(0, 8))
    time = st.one_of(st.sampled_from([0.25, 0.5, 1.0, horizon]), st.floats(0.01, horizon))
    size = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))
    jt = data.draw(st.lists(time, min_size=k, max_size=k))
    js = data.draw(st.lists(size, min_size=k, max_size=k))
    if k and data.draw(st.integers(0, 3)) == 0:
        jt[-1] = data.draw(st.sampled_from([0.0, horizon + 1.0]))
    drift, start = data.draw(st.floats(-2.0, 2.0)), data.draw(st.sampled_from([0.0, 1.5]))
    try:
        want = from_jumps_unique(horizon, jt, js, drift=drift, start=start)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            CadlagPath.from_jumps(horizon, jt, js, drift=drift, start=start)
        return
    assert same_bits(CadlagPath.from_jumps(horizon, jt, js, drift=drift, start=start), want)
