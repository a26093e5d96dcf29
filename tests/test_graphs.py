from collections import Counter

import numpy as np
import pytest

from hcmsim.core import InvariantError, stream_gen
from hcmsim.degrees import DegreeSequence, make_limit_parameters, make_scaling
from hcmsim.graphs import (
    components,
    component_table,
    percolate_black,
    sample_black_matching,
    sample_white_matching,
    write_edge_csv,
)


def _seq(white, black=None, n_scale=None):
    white = np.asarray(white, dtype=np.int64)
    black = np.zeros_like(white) if black is None else np.asarray(black, dtype=np.int64)
    sc = make_scaling(n_scale or white.size, 3.5)
    lim = make_limit_parameters(3.5, 2)
    return DegreeSequence(white, black, sc, lim, np.zeros(white.size, bool))


def test_single_vertex_self_loop():
    seq = _seq([2])
    g = sample_white_matching(seq, 0)
    comps = components(g)
    assert len(comps) == 1
    assert comps[0].size == 1
    assert comps[0].white_edges == 1
    assert comps[0].surplus == 1  # Euler: 1 = 1 + 1 - 1


def test_two_degree_one_vertices_single_edge():
    seq = _seq([1, 1])
    g = sample_white_matching(seq, 0)
    assert g.white_owner[g.white_match[0]] == 1
    comps = components(g)
    assert len(comps) == 1 and comps[0].size == 2 and comps[0].surplus == 0


def test_odd_parity_rejected():
    seq = _seq([2, 1])
    with pytest.raises(ValueError):
        sample_white_matching(seq, 0)


def test_self_loop_probability_one_third():
    # owners (2,1,1): three matchings of four half-edges, one pairs vertex 0 with itself
    seq = _seq([2, 1, 1])
    rng = stream_gen(42, 0)
    reps = 100_000
    hits = 0
    for _ in range(reps):
        g = sample_white_matching(seq, rng)
        hits += g.white_match[0] == 1
    p_hat = hits / reps
    se = np.sqrt((1 / 3) * (2 / 3) / reps)
    assert abs(p_hat - 1 / 3) <= 3 * se


def test_matching_uniformity_six_half_edges():
    # degrees (2,2,2): 15 matchings, each with probability 1/15
    seq = _seq([2, 2, 2])
    rng = stream_gen(7, 0)
    reps = 1_000_000
    counts = Counter()
    for _ in range(reps):
        g = sample_white_matching(seq, rng)
        m = g.white_match
        key = tuple(sorted((i, int(m[i])) for i in range(6) if i < m[i]))
        counts[key] += 1
    assert len(counts) == 15
    se = np.sqrt((1 / 15) * (14 / 15) / reps)
    for key, c in counts.items():
        assert abs(c / reps - 1 / 15) <= 4 * se, (key, c / reps)


def test_component_partition_and_ordering():
    seq = _seq([2, 2, 2])
    rng = stream_gen(3, 1)
    for _ in range(50):
        g = sample_white_matching(seq, rng)
        comps = components(g)
        sizes = [c.size for c in comps]
        assert sum(sizes) == 3
        assert sizes == sorted(sizes, reverse=True)
        for c in comps:
            assert c.size == c.white_edges + 1 - c.surplus


def test_path_graph_component():
    # degrees (1,2,1), forced matching 0-1, 2-3 up to the sampled permutation:
    # construct a matching by hand to pin the structure
    seq = _seq([1, 2, 1])
    g = sample_white_matching(seq, 0)
    g.white_match = np.array([1, 0, 3, 2])
    comps = components(g)
    assert len(comps) == 1
    assert comps[0].size == 3 and comps[0].white_edges == 2 and comps[0].surplus == 0


def test_double_edge_euler_relation():
    seq = _seq([2, 2])
    g = sample_white_matching(seq, 0)
    g.white_match = np.array([2, 3, 0, 1])  # two parallel edges between the vertices
    comps = components(g)
    assert len(comps) == 1
    c = comps[0]
    assert c.size == 2 and c.white_edges == 2 and c.surplus == 1


def test_black_half_edge_counts():
    seq = _seq([1, 1, 2], black=[3, 1, 2])
    g = sample_white_matching(seq, 1)
    sizes, blacks, *_ = component_table(g)
    assert blacks.sum() == 6
    comps = components(g)
    for c in comps:
        assert c.black_half_edges == int(seq.black[c.member_vertices].sum())


def test_percolate_black_extremes():
    seq = _seq([1, 1, 1, 1], black=[2, 2, 2, 2])
    g = sample_white_matching(seq, 5)
    g = sample_black_matching(g, 6)
    g0 = percolate_black(g, 0.0, 7)
    g1 = percolate_black(g, 1.0, 8)
    base = [c.size for c in components(sample_white_matching(seq, 5))]
    assert [c.size for c in components(g0)] == base
    assert not g0.black_keep.any()
    assert g1.black_keep.all()


def test_percolate_merge_frequency_half():
    # two white components joined by exactly one black edge kept with p = 1/2
    seq = _seq([1, 1, 1, 1], black=[1, 0, 0, 1])
    rng = stream_gen(9, 2)
    reps = 100_000
    merged = 0
    g = sample_white_matching(seq, rng)
    g.white_match = np.array([1, 0, 3, 2])  # components {0,1} and {2,3}
    g = sample_black_matching(g, rng)  # single black pair, forced
    for _ in range(reps):
        gp = percolate_black(g, 0.5, rng)
        merged += len(components(gp)) == 1
    se = np.sqrt(0.25 / reps)
    assert abs(merged / reps - 0.5) <= 3 * se


def test_invariants_assert_after_sampling():
    seq = _seq([3, 2, 2, 1], black=[1, 1, 0, 0])
    g = sample_white_matching(seq, 11)
    g.assert_matching(g.white_match, g.white_owner)
    with pytest.raises(InvariantError):
        bad = g.white_match.copy()
        bad[0] = 0
        g.assert_matching(bad, g.white_owner)


def test_edge_csv(tmp_path):
    seq = _seq([1, 1], black=[1, 1])
    g = sample_white_matching(seq, 0)
    g = sample_black_matching(g, 1)
    path = tmp_path / "g.csv"
    write_edge_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "half_edge_a,half_edge_b,color"
    assert len(lines) == 3
