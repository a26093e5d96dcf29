from dataclasses import dataclass

import numpy as np
import pytest

from hcmsim.core import stream_gen
from hcmsim.degrees import (
    DEFAULT_BULK_WHITE,
    build_degree_sequence,
    make_limit_parameters,
    make_scaling,
)
from hcmsim.excursions import excursion_decompose, gamma_down
from hcmsim.exploration import explore
from hcmsim.graphs import sample_white_matching
from hcmsim.levy import sample_thinned_levy
from hcmsim.paths import CadlagPath, _tol


# Goodness diagnostics, hitting-time point processes and their matching
# distance: lemma checks on excursions that no CLI command runs.
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


def test_pure_drift_no_excursions():
    p = CadlagPath.from_jumps(5.0, [], [], drift=-1.0)
    assert excursion_decompose(p) == []


def test_single_jump_excursion_hand_values():
    p = CadlagPath.from_jumps(5.0, [1.0], [2.0], drift=-1.0)
    exc = excursion_decompose(p)
    assert len(exc) == 1
    assert exc[0].l == pytest.approx(1.0)
    assert exc[0].r == pytest.approx(3.0)
    assert exc[0].length == pytest.approx(2.0)


def test_negative_jump_rejected():
    p = CadlagPath.step_function([0.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        excursion_decompose(p)


def test_incomplete_excursion_dropped():
    p = CadlagPath.from_jumps(2.0, [1.5], [10.0], drift=-1.0)
    assert excursion_decompose(p) == []


def test_disjoint_ordered_intervals_and_complement():
    rng = stream_gen(44, 0)
    for trial in range(40):
        k = int(rng.integers(2, 10))
        jt = np.sort(rng.random(k) * 8.0) + 0.05
        js = rng.random(k) * 2.0
        p = CadlagPath.from_jumps(10.0, jt, js, drift=-(0.2 + rng.random()))
        exc = excursion_decompose(p)
        for a, b in zip(exc, exc[1:]):
            assert a.r < b.l + 1e-12  # strict non-nesting order
        if exc:
            last_r = exc[-1].r
            total = sum(e.length for e in exc)
            # complement within [0, last right endpoint] is exactly the gap time
            gaps = exc[0].l + sum(b.l - a.r for a, b in zip(exc, exc[1:]))
            assert total + gaps == pytest.approx(last_r, abs=1e-9)


def test_gamma_down_constant_and_identity_weight():
    f = CadlagPath.from_jumps(10.0, [1.0, 5.0], [2.0, 1.0], drift=-1.0)
    zero = CadlagPath.from_jumps(10.0, [], [], drift=0.0)
    ident = CadlagPath.from_jumps(10.0, [], [], drift=1.0)
    gd0 = gamma_down(f, zero)
    assert np.allclose(gd0[:, 1], 0.0)
    gd1 = gamma_down(f, ident)
    assert np.allclose(gd1[:, 1], gd1[:, 0])


def test_gamma_down_hand_construction():
    # excursions of lengths 3 then 1; g jumps 5 inside the first, 2 inside the second
    f = CadlagPath.from_jumps(10.0, [1.0, 6.0], [3.0, 1.0], drift=-1.0)
    exc = excursion_decompose(f)
    assert [(e.l, e.r) for e in exc] == [(1.0, 4.0), (6.0, 7.0)]
    g = CadlagPath.from_jumps(10.0, [2.0, 6.5], [5.0, 2.0], drift=0.0)
    gd = gamma_down(f, g)
    assert gd.shape == (2, 2)
    assert gd[0].tolist() == [3.0, 5.0]
    assert gd[1].tolist() == [1.0, 2.0]


def test_gamma_down_ties_by_appearance():
    f = CadlagPath.from_jumps(10.0, [1.0, 5.0], [1.0, 1.0], drift=-1.0)
    g = CadlagPath.from_jumps(10.0, [1.2, 5.2], [7.0, 9.0], drift=0.0)
    gd = gamma_down(f, g)
    assert gd[0].tolist() == [1.0, 7.0]  # first-appearing excursion wins the tie
    assert gd[1].tolist() == [1.0, 9.0]


def test_gamma_down_left_endpoint_jump_attributed():
    # weight jump exactly at the excursion opening must count for it
    f = CadlagPath.from_jumps(10.0, [1.0], [2.0], drift=-1.0)
    g = CadlagPath.from_jumps(10.0, [1.0], [4.0], drift=0.0)
    gd = gamma_down(f, g)
    assert gd[0].tolist() == [2.0, 4.0]


def test_gamma_down_requires_monotone_weight():
    f = CadlagPath.from_jumps(5.0, [1.0], [1.0], drift=-1.0)
    g = CadlagPath.from_jumps(5.0, [], [], drift=-0.5)
    with pytest.raises(ValueError):
        gamma_down(f, g)


def test_gamma_down_event_order_equivariance():
    jt = [1.0, 2.0, 6.0]
    js = [2.0, 0.5, 1.5]
    f1 = CadlagPath.from_jumps(12.0, jt, js, drift=-0.7)
    order = [2, 0, 1]
    f2 = CadlagPath.from_jumps(12.0, [jt[i] for i in order], [js[i] for i in order], drift=-0.7)
    g = CadlagPath.from_jumps(12.0, [], [], drift=1.0)
    assert np.allclose(gamma_down(f1, g), gamma_down(f2, g))


def test_point_process_single_hit():
    T = 4.0
    f = CadlagPath.from_jumps(T, [], [], drift=-1.0)
    g = CadlagPath.from_jumps(T, [1.0], [2.5], drift=0.5)
    pp = point_process_from_hitting_times(f, g, [T])
    assert pp.atoms.shape == (1, 3)
    t, x, y = pp.atoms[0]
    assert (t, x) == (T, T)
    assert y == pytest.approx(float(g.eval(T)) - float(g.eval(0.0)))


def test_point_process_requires_min_times():
    f = CadlagPath.from_jumps(4.0, [1.0], [2.0], drift=-1.0)
    g = CadlagPath.from_jumps(4.0, [], [], drift=1.0)
    with pytest.raises(ValueError):
        point_process_from_hitting_times(f, g, [2.0])  # inside the excursion


def test_point_process_reproduces_component_triples():
    lim = make_limit_parameters(3.5, 5)
    sc = make_scaling(200, 3.5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, 8)
    rng = stream_gen(9, 9)
    g = sample_white_matching(seq, rng)
    tr = explore(g, rng)
    Xv, Yv, tau_v = tr.vertex_time_walks()
    pp = point_process_from_hitting_times(Xv, Yv, tau_v.astype(float))
    comps = tr.components()
    assert pp.atoms.shape[0] == len(comps)
    for atom, c in zip(pp.atoms, comps):
        assert atom[1] == c.size
        assert atom[2] == c.black_half_edges


def test_point_process_matches_excursions_on_limit_path():
    p = make_limit_parameters(3.5, 30)
    real = sample_thinned_levy(p, T=25.0, rng_seed=14)
    exc = excursion_decompose(real.X_path)
    assert exc, "need at least one excursion for the cross-check"
    t_list = [e.r for e in exc]
    pp = point_process_from_hitting_times(real.X_path, real.Y_path, t_list)
    by_time = sorted([(e.r, e.length) for e in exc])
    for atom, (r, length) in zip(pp.atoms, by_time):
        assert atom[0] == pytest.approx(r)
        # spacing counts the inter-excursion gap; it dominates the length
        assert atom[1] >= length - 1e-9


def test_ordered_atoms_tie_break():
    atoms = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, 3.0, 0.0]])
    pp = ExcursionPointProcess(atoms)
    out = pp.ordered()
    assert out[0].tolist() == [0.5, 3.0, 0.0]
    assert out[1].tolist() == [1.0, 1.0, 0.0]
    assert out[2].tolist() == [2.0, 1.0, 0.0]


def test_vague_distance_properties():
    a = ExcursionPointProcess(np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 0.5]]))
    assert vague_distance(a, a, (0, 10, 0, 10)) == 0.0
    b = ExcursionPointProcess(np.array([[1.1, 2.0, 3.0], [4.0, 1.0, 0.5]]))
    assert vague_distance(a, b, (0, 10, 0, 10)) == pytest.approx(0.1)
    c = ExcursionPointProcess(np.array([[1.0, 2.0, 3.0]]))
    assert vague_distance(a, c, (0, 10, 0, 10)) == pytest.approx(1.0)


def test_check_good_drift_vacuous():
    p = CadlagPath.from_jumps(3.0, [], [], drift=-1.0)
    rep = check_good(p)
    assert rep["n_excursions"] == 0
    assert not rep["complement_flag"] and not rep["local_min_flag"]


def test_check_good_flags_flat_minimum():
    # flat stretch at the running minimum right after an excursion
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, 1.0, 0.0, 0.0])
    slopes = np.array([0.0, -1.0, 0.0, -1.0])
    p = CadlagPath(times, values, slopes, 4.0)
    rep = check_good(p, epsilon_grid=0.5)
    assert rep["local_min_flag"]  # the endpoint at t=2 sits on a flat minimum


def test_check_good_on_truncated_levy():
    p = make_limit_parameters(3.5, 40)
    flags_local = 0
    complement_positive = 0
    for seed in range(50):
        real = sample_thinned_levy(p, T=30.0, rng_seed=seed)
        rep = check_good(real.X_path)
        flags_local += rep["local_min_flag"]
        complement_positive += rep["complement_flag"]
        assert all(v >= 0 for v in rep["dyadic_counts"].values())
    # endpoints always descend strictly (drift < 0), so no local-minimum flags;
    # the complement has positive measure on any finite truncation and is
    # reported rather than asserted at zero
    assert flags_local == 0
    assert complement_positive == 50
    assert rep["isolated_points"] == "not checkable on a finite realization"


def test_piecewise_linear_walks_vs_dense_oracle():
    # interpolated integer walks: endpoints from the sweep agree with a dense
    # grid after merging at single-point touches of the minimum (which a
    # finite grid cannot resolve but the definition keeps separate)
    rng = stream_gen(91, 0)
    for _ in range(25):
        steps = rng.choice(
            np.array([-2, -1, 0, 1, 2, 3]), size=60, p=[0.25, 0.2, 0.15, 0.2, 0.12, 0.08]
        )
        walk = np.concatenate(([0], np.cumsum(steps))).astype(float)
        p = CadlagPath.piecewise_linear(np.arange(walk.size, dtype=float), walk)
        exc = excursion_decompose(p)

        def merge(intervals, gap_tol):
            out = []
            for l, r in intervals:
                if out and l - out[-1][1] < gap_tol:
                    out[-1][1] = r
                else:
                    out.append([l, r])
            return out

        merged = merge([[e.l, e.r] for e in exc], 1e-3)
        t = np.linspace(0, p.horizon, 600_001)
        v = np.atleast_1d(p.eval(t))
        m = np.minimum.accumulate(v)
        above = v > m + 1e-9
        d = np.diff(above.astype(int))
        starts = t[1:][d == 1]
        ends = t[1:][d == -1]
        if above[0]:
            starts = np.concatenate(([0.0], starts))
        k = min(len(starts), len(ends))
        oracle = np.asarray(merge(np.column_stack((starts[:k], ends[:k])).tolist(), 1e-3))
        mine = np.asarray(merged) if merged else np.zeros((0, 2))
        if len(oracle) > len(mine) and len(oracle) and oracle[-1, 1] > p.horizon - 1e-3:
            oracle = oracle[:-1]
        assert len(oracle) == len(mine)
        if len(mine):
            assert np.abs(oracle - mine).max() < 1e-3  # grid resolution
