import threading
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import hcmsim.graphs as graphs
from hcmsim.core import InvariantError, as_generator, stream_gen
from hcmsim.degrees import DegreeSequence, make_limit_parameters, make_scaling
from hcmsim.graphs import (
    ColoredMultigraph,
    _uniform_matching,
    component_table,
    labels_from_edges,
    sample_white_matching,
    write_edge_csv,
)


# Reference code, imported by the other test modules: the involution check
# that the permutation check replaced, the full relabel of all n vertices
# that block merging replaced, and the static black model (a uniform black
# matching with each edge kept independently) whose law the dynamic process
# must reproduce.


def assert_matching(seq, match: np.ndarray):
    """Raise InvariantError unless ``match`` (match[h] = partner) pairs every
    white half-edge of ``seq`` with another."""
    if match.size != seq.total_white or np.any((match < 0) | (match >= match.size)):
        raise InvariantError("matching does not pair every white half-edge")
    half_edges = np.arange(match.size)
    if np.any(match[match] != half_edges):
        raise InvariantError("matching is not an involution")
    if np.any(match == half_edges):
        raise InvariantError("matching has a fixed point")


def involution(pairs: np.ndarray) -> np.ndarray:
    """match[h] = partner of h, for the permutation ``pairs`` paired off consecutively."""
    match = np.empty_like(pairs)
    match[pairs[0::2]], match[pairs[1::2]] = pairs[1::2], pairs[0::2]
    return match


def white_pairs(g) -> np.ndarray:
    """(m, 2) array of the matched white half-edge pairs, first id smaller,
    in order of it: the rows that write_edge_csv writes."""
    match = involution(g.pairs)
    a = np.flatnonzero(match > np.arange(match.size))
    return np.column_stack((a, match[a]))


def full_table(g):
    """component_table with the white edges and surplus of each row:
    (sizes, black_half_edges, white_edges, surplus, labels, order)."""
    sizes, blacks, labels, order = component_table(g)
    white_edges = g.block_edges[order]
    return sizes, blacks, white_edges, white_edges + 1 - sizes, labels, order


def _vertex_pairs(g, extra_edges=None) -> np.ndarray:
    """Vertex pairs of the white edges, followed by the extra pairs."""
    pairs = g.seq.white_owner[white_pairs(g)]
    if extra_edges is None or not len(extra_edges):
        return pairs
    return np.concatenate((pairs, np.asarray(extra_edges)))


def component_labels(g, extra_edges=None) -> np.ndarray:
    """Component label per vertex under the white edges plus extra vertex pairs."""
    pairs = _vertex_pairs(g, extra_edges)
    return labels_from_edges(pairs[:, 0], pairs[:, 1], g.n)


def relabel_table(g, extra_edges=None):
    """(sizes, black_half_edges, white_edges, surplus, labels, order) of the
    graph with the extra vertex pairs, relabelled over all n vertices;
    largest first, ties by least member vertex."""
    pairs = _vertex_pairs(g, extra_edges)
    labels = labels_from_edges(pairs[:, 0], pairs[:, 1], g.n)
    ncomp = labels.max() + 1
    sizes = np.bincount(labels, minlength=ncomp)
    blacks = np.bincount(labels, weights=g.seq.black.astype(float), minlength=ncomp).astype(np.int64)
    first = labels[pairs[:, 0]]  # every edge lies inside one component
    white_edges = np.bincount(first[: white_pairs(g).shape[0]], minlength=ncomp)
    surplus = np.bincount(first, minlength=ncomp) + 1 - sizes
    min_member = np.full(ncomp, g.n, dtype=np.int64)
    np.minimum.at(min_member, labels, np.arange(g.n))
    order = np.lexsort((min_member, -sizes))
    return sizes[order], blacks[order], white_edges[order], surplus[order], labels, order


@dataclass(frozen=True)
class StaticPercolation:
    """G_n(0) with its black half-edges matched, and which black edges are kept."""

    graph: ColoredMultigraph
    black_match: np.ndarray
    black_keep: np.ndarray  # per black edge, in order of its smaller half-edge

    def black_pairs(self) -> np.ndarray:
        """Retained black edges as half-edge pairs, first id smaller."""
        a = np.flatnonzero(self.black_match > np.arange(self.black_match.size))
        return np.column_stack((a, self.black_match[a]))[self.black_keep]

    def vertex_pairs(self) -> np.ndarray:
        return self.graph.seq.black_owner[self.black_pairs()]


def sample_black_matching(g, rng_seed) -> StaticPercolation:
    """The black half-edges uniformly paired, all edges retained."""
    if g.seq.total_black % 2:
        raise ValueError("black parity violated")
    match = involution(_uniform_matching(g.seq.total_black, as_generator(rng_seed)))
    return StaticPercolation(g, match, np.ones(match.size // 2, dtype=bool))


def percolate_black(sp: StaticPercolation, keep_probability: float, rng_seed) -> StaticPercolation:
    """Retain each black edge independently with probability ``keep_probability``."""
    if not 0.0 <= keep_probability <= 1.0:
        raise ValueError("keep probability must lie in [0, 1]")
    keep = as_generator(rng_seed).random(sp.black_match.size // 2) < keep_probability
    return StaticPercolation(sp.graph, sp.black_match, keep)


def _seq(white, black=None, n_scale=None):
    white = np.asarray(white, dtype=np.int64)
    black = np.zeros_like(white) if black is None else np.asarray(black, dtype=np.int64)
    sc = make_scaling(n_scale or white.size, 3.5)
    lim = make_limit_parameters(3.5, 2)
    return DegreeSequence(white, black, sc, lim, np.zeros(white.size, bool))


def test_single_vertex_self_loop():
    seq = _seq([2])
    g = sample_white_matching(seq, 0)
    sizes, _, white_edges, surplus, *_ = full_table(g)
    assert sizes.tolist() == [1]
    assert white_edges.tolist() == [1]
    assert surplus.tolist() == [1]  # Euler: 1 = 1 + 1 - 1


def test_two_degree_one_vertices_single_edge():
    seq = _seq([1, 1])
    g = sample_white_matching(seq, 0)
    assert g.seq.white_owner[involution(g.pairs)[0]] == 1
    sizes, _, _, surplus, *_ = full_table(g)
    assert sizes.tolist() == [2] and surplus.tolist() == [0]


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
        hits += involution(g.pairs)[0] == 1
    p_hat = hits / reps
    se = np.sqrt((1 / 3) * (2 / 3) / reps)
    assert abs(p_hat - 1 / 3) <= 3 * se


def test_matching_uniformity_six_half_edges():
    # degrees (2,2,2): 15 matchings, each with probability 1/15
    seq = _seq([2, 2, 2])
    for s in range(4):  # a graph's matching is this draw from its stream
        want = _uniform_matching(6, stream_gen(7, s))
        assert np.array_equal(sample_white_matching(seq, stream_gen(7, s)).pairs, want)
    rng = stream_gen(7, 0)
    reps = 1_000_000
    # row r is the r-th _uniform_matching(6, rng) draw, all in one call
    perms = rng.permuted(np.tile(np.arange(6, dtype=np.int8), (reps, 1)), axis=1)
    first = stream_gen(7, 0)
    assert all(np.array_equal(perms[r], _uniform_matching(6, first)) for r in range(100))
    rows = np.arange(reps)[:, None]
    draws = np.empty_like(perms)  # row r as its involution, one array per matching
    draws[rows, perms[:, 0::2]], draws[rows, perms[:, 1::2]] = perms[:, 1::2], perms[:, 0::2]
    matchings, counts = np.unique(draws, axis=0, return_counts=True)
    assert len(counts) == 15
    se = np.sqrt((1 / 15) * (14 / 15) / reps)
    for m, c in zip(matchings, counts):
        assert abs(c / reps - 1 / 15) <= 4 * se, (m.tolist(), c / reps)


def test_component_partition_and_ordering():
    seq = _seq([2, 2, 2])
    rng = stream_gen(3, 1)
    for _ in range(50):
        g = sample_white_matching(seq, rng)
        sizes, _, white_edges, surplus, labels, order = full_table(g)
        assert sum(sizes) == 3
        assert sizes.tolist() == sorted(sizes, reverse=True)
        assert np.array_equal(np.bincount(labels)[order], sizes)
        assert np.array_equal(sizes, white_edges + 1 - surplus)


def test_path_graph_component():
    # degrees (1,2,1), forced matching 0-1, 2-3 up to the sampled permutation:
    # construct a matching by hand to pin the structure
    seq = _seq([1, 2, 1])
    g = ColoredMultigraph(seq, np.array([0, 1, 2, 3]))
    sizes, _, white_edges, surplus, *_ = full_table(g)
    assert sizes.tolist() == [3] and white_edges.tolist() == [2] and surplus.tolist() == [0]


def test_double_edge_euler_relation():
    seq = _seq([2, 2])
    g = ColoredMultigraph(seq, np.array([0, 2, 1, 3]))  # two parallel edges between the vertices
    sizes, _, white_edges, surplus, *_ = full_table(g)
    assert sizes.tolist() == [2] and white_edges.tolist() == [2] and surplus.tolist() == [1]


def test_black_half_edge_counts():
    seq = _seq([1, 1, 2], black=[3, 1, 2])
    g = sample_white_matching(seq, 1)
    sizes, blacks, labels, order = component_table(g)
    assert blacks.sum() == 6
    for k, black in enumerate(blacks):
        assert black == seq.black[labels == order[k]].sum()


def test_percolate_black_extremes():
    seq = _seq([1, 1, 1, 1], black=[2, 2, 2, 2])
    g = sample_white_matching(seq, 5)
    gb = sample_black_matching(g, 6)
    g0 = percolate_black(gb, 0.0, 7)
    g1 = percolate_black(gb, 1.0, 8)
    base = component_table(sample_white_matching(seq, 5))[0]
    assert np.array_equal(relabel_table(g, g0.vertex_pairs())[0], base)
    assert not g0.black_keep.any()
    assert g1.black_keep.all()


def test_percolate_merge_frequency_half():
    # two white components joined by exactly one black edge kept with p = 1/2
    seq = _seq([1, 1, 1, 1], black=[1, 0, 0, 1])
    rng = stream_gen(9, 2)
    reps = 100_000
    merged = 0
    g = ColoredMultigraph(seq, np.array([0, 1, 2, 3]))  # components {0,1} and {2,3}
    gb = sample_black_matching(g, rng)  # single black pair, forced
    for _ in range(reps):
        gp = percolate_black(gb, 0.5, rng)
        merged += component_labels(g, gp.vertex_pairs()).max() == 0
    se = np.sqrt(0.25 / reps)
    assert abs(merged / reps - 0.5) <= 3 * se


def test_invariants_assert_after_sampling():
    seq = _seq([3, 2, 2, 1], black=[1, 1, 0, 0])
    g = sample_white_matching(seq, 11)
    assert_matching(seq, involution(g.pairs))
    bad = involution(g.pairs)
    bad[0] = 0
    with pytest.raises(InvariantError):
        assert_matching(seq, bad)
    self_paired = g.pairs.copy()
    self_paired[1] = self_paired[0]
    with pytest.raises(InvariantError):
        ColoredMultigraph(seq, self_paired)
    with pytest.raises(InvariantError):
        ColoredMultigraph(seq, g.pairs[:-2])  # leaves two half-edges out
    unpaired = g.pairs.copy()
    unpaired[[0, 1]] = -1
    with pytest.raises(InvariantError):
        ColoredMultigraph(seq, unpaired)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10), st.integers(0, 2**32 - 1),
       st.sampled_from([None, "duplicate", "self_pair", "negative", "too_large", "short"]), st.data())
@example([0], 0, None, None)  # no white half-edges at all
def test_matching_check_accepts_exactly_the_permutations(white, seed, corruption, data):
    # a graph holds the sampled permutation itself; its check must reject
    # every array that the involution check rejected
    if sum(white) % 2:
        white = white + [1]
    seq = _seq(white)
    pairs = _uniform_matching(seq.total_white, as_generator(seed))
    n_half = pairs.size
    if corruption is None:
        g = ColoredMultigraph(seq, pairs)
        match = involution(g.pairs)
        assert_matching(seq, match)
        assert np.array_equal(g.partner_owner, seq.white_owner[match])
        return
    assume(n_half >= 2)
    k, j = data.draw(st.lists(st.integers(0, n_half - 1), min_size=2, max_size=2, unique=True))
    bad = pairs.copy()
    if corruption == "duplicate":
        bad[k] = bad[j]
    elif corruption == "self_pair":
        bad[k | 1] = bad[k & ~1]
    elif corruption == "negative":
        bad[k] -= n_half  # numpy would wrap it onto the half-edge it replaced
    elif corruption == "too_large":
        bad[k] += n_half
    else:
        bad = bad[: data.draw(st.integers(0, n_half - 1))]
    with pytest.raises(InvariantError):
        ColoredMultigraph(seq, bad)


def test_edge_csv(tmp_path):
    seq = _seq([1, 1], black=[1, 1])
    g = sample_white_matching(seq, 0)
    path = tmp_path / "g.csv"
    write_edge_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "half_edge_a,half_edge_b,color"
    assert lines[1:] == ["0,1,white"]  # G_n(0) has no black edges


def _critical_graph(n, seed):
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    return sample_white_matching(build_critical_sequence(ExperimentConfig(master_seed=seed), n), stream_gen(seed, 2))


@pytest.mark.parametrize("n", [1000, 100_000])
def test_labels_number_components_by_least_member(n):
    # component_table orders ties in size by a stable sort on these labels
    g = _critical_graph(n, 3)
    labels = component_labels(g)
    first = np.unique(labels, return_index=True)[1]
    assert np.all(np.diff(first) > 0)


@pytest.mark.parametrize("n,seeds", [(1000, range(10)), (100_000, (1, 2))])
def test_component_table_equals_full_relabel(n, seeds):
    for seed in seeds:
        g = _critical_graph(n, seed)
        for got, want in zip(full_table(g), relabel_table(g)):
            assert np.array_equal(got, want)


def test_component_table_equals_full_relabel_small():
    rng = stream_gen(4, 0)
    for white in ([2], [1, 1], [2, 2, 2], [1, 2, 1, 3, 1], [1] * 8, [3, 1, 2, 2, 1, 1]):
        seq = _seq(white, black=np.arange(len(white)) % 3)
        for _ in range(20):
            g = sample_white_matching(seq, rng)
            for got, want in zip(full_table(g), relabel_table(g)):
                assert np.array_equal(got, want)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
@example([1, 1], 0)  # a single edge
@example([2], 0)  # a self-loop
@example([2, 2, 0], 1)  # a double edge and an isolated vertex
@example([0], 0)  # no edges at all
def test_blocks_equal_the_public_labelling(white, seed):
    # blocks call scipy's undirected kernel directly on the half-edge CSR;
    # a change to its signature or its numbering must show here
    if sum(white) % 2:
        white = white + [1]
    g = sample_white_matching(_seq(white, black=np.arange(len(white)) % 3), seed)
    pairs = _vertex_pairs(g)
    adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(g.n, g.n))
    b = g.blocks
    assert np.array_equal(b.label, connected_components(adj, directed=False)[1])
    assert np.array_equal(labels_from_edges(pairs[:, 0], pairs[:, 1], g.n), b.label)
    sizes, blacks, edges, _, _, order = relabel_table(g)
    assert np.array_equal(b.order, order)
    for got, want in ((b.size, sizes), (b.black, blacks), (g.block_edges, edges)):
        assert np.array_equal(got[b.order], want)


def test_graph_is_frozen():
    g = sample_white_matching(_seq([1, 1, 2]), 0)
    with pytest.raises(FrozenInstanceError):
        g.pairs = np.array([0, 1, 2, 3])


def test_owners_built_once_per_sequence():
    seq = _seq([1, 3, 2], [2, 0, 1])
    first, second = sample_white_matching(seq, 0), sample_white_matching(seq, 1)
    assert first.blocks.label.size == second.blocks.label.size == 3  # both read the owners
    assert seq.white_owner.tolist() == [0, 1, 1, 1, 2, 2]
    assert seq.black_owner.tolist() == [0, 0, 2]
    assert seq.white_owner is seq.white_owner and seq.black_owner is seq.black_owner
    for owner in (seq.white_owner, seq.black_owner):  # shared by every graph
        with pytest.raises(ValueError):
            owner[0] = 1
    with pytest.raises(FrozenInstanceError):
        seq.black = np.array([0, 0, 0])


def test_owners_race_to_one_value():
    # thm17's worker threads share one sequence; a lost or torn cache write
    # would give some thread owners that differ from the degrees
    import sys

    white = np.arange(1, 2001) % 5 + 1
    want = np.repeat(np.arange(white.size), white)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            seq = _seq(white, white)
            got = [None] * 8

            def read(i):
                got[i] = (seq.white_owner, seq.black_owner)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5)
            assert not any(t.is_alive() for t in threads)
            assert all(np.array_equal(w, want) and np.array_equal(b, want) for w, b in got)
    finally:
        sys.setswitchinterval(interval)


def test_block_tables_of_two_graphs_build_concurrently(monkeypatch):
    # thm17 builds one graph's table per worker thread: a cache lock shared
    # by all graphs would make each worker wait for the others
    label = graphs._component_labels
    entered, release = threading.Event(), threading.Event()

    def held_in_first(*csr):
        if threading.current_thread().name == "first":
            entered.set()
            release.wait(5)
        return label(*csr)

    monkeypatch.setattr(graphs, "_component_labels", held_in_first)
    seq = _seq([1, 1, 2, 2])
    first, second = sample_white_matching(seq, 0), sample_white_matching(seq, 1)
    t1 = threading.Thread(target=lambda: first.blocks, name="first")
    t1.start()
    assert entered.wait(5)
    t2 = threading.Thread(target=lambda: second.blocks)
    t2.start()
    t2.join(5)
    second_done = not t2.is_alive()
    release.set()
    t1.join(5)
    assert second_done and not t1.is_alive()
    assert "blocks" in first.__dict__ and "blocks" in second.__dict__


@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_kernel_index_out_of_range_raises():
    # scipy's kernel swallows its bounds error (pytest sees it as unraisable) and returns 0 components
    indptr = np.array([0, 1, 2], dtype=np.int32)
    with pytest.raises(InvariantError):
        graphs._component_labels(np.array([1, 5], dtype=np.int32), indptr, np.array([1, 0], dtype=np.int32), indptr)


@pytest.mark.parametrize("rows,cols", [([0, 3], [1, 0]), ([0, 1], [2, -1])])
def test_edge_end_out_of_range_raises(rows, cols):
    # labels_from_edges hands the ends to a compiled counting sort that does not check them
    with pytest.raises(InvariantError):
        labels_from_edges(np.array(rows), np.array(cols), 3)
