"""The edge-colored configuration model: uniform matchings and component queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .core import InvariantError, as_generator, write_rows
from .degrees import DegreeSequence


@dataclass
class ColoredMultigraph:
    """Half-edge representation of HCM_n(white, black).

    Half-edges of each colour are numbered consecutively by vertex; a
    matching is an involution array (match[h] = partner, -1 unpaired).
    """

    seq: DegreeSequence
    white_owner: np.ndarray
    black_owner: np.ndarray
    white_match: np.ndarray | None = None
    black_match: np.ndarray | None = None
    black_keep: np.ndarray | None = None  # retained black edges after percolation

    @classmethod
    def from_sequence(cls, seq: DegreeSequence) -> "ColoredMultigraph":
        return cls(
            seq=seq,
            white_owner=np.repeat(np.arange(seq.n), seq.white),
            black_owner=np.repeat(np.arange(seq.n), seq.black),
        )

    @property
    def n(self) -> int:
        return self.seq.n

    def assert_matching(self, match: np.ndarray, owner: np.ndarray):
        paired = match >= 0
        idx = np.flatnonzero(paired)
        if idx.size:
            if np.any(match[match[idx]] != idx):
                raise InvariantError("matching is not an involution")
            if np.any(match[idx] == idx):
                raise InvariantError("matching has a fixed point")
        counts = np.bincount(owner, minlength=self.n)
        expected = self.seq.white if owner is self.white_owner else self.seq.black
        if not np.array_equal(counts, expected):
            raise InvariantError("half-edge ownership does not match the degree sequence")

    def white_pairs(self) -> np.ndarray:
        """(m, 2) array of matched white half-edge pairs, first id smaller."""
        return _pairs(self.white_match)

    def black_pairs(self, retained_only: bool = True) -> np.ndarray:
        if self.black_match is None:
            return np.zeros((0, 2), dtype=np.int64)
        pairs = _pairs(self.black_match)
        if retained_only and self.black_keep is not None:
            pairs = pairs[self.black_keep]
        return pairs


def _pairs(match: np.ndarray) -> np.ndarray:
    a = np.flatnonzero(match > np.arange(match.size))
    return np.column_stack((a, match[a]))


def _uniform_matching(n_half: int, rng) -> np.ndarray:
    """Uniform perfect matching as an involution array.

    A uniform shuffle paired off consecutively is exchangeable over the
    half-edge labels, hence uniform over all (n-1)!! matchings.
    """
    if n_half % 2:
        raise ValueError("cannot match an odd number of half-edges")
    perm = rng.permutation(n_half)
    match = np.empty(n_half, dtype=np.int64)
    match[perm[0::2]] = perm[1::2]
    match[perm[1::2]] = perm[0::2]
    return match


def sample_white_matching(seq: DegreeSequence, rng_seed) -> ColoredMultigraph:
    """G_n(0): white half-edges uniformly matched, black ones left unpaired."""
    if seq.total_white % 2:
        raise ValueError("white parity violated")
    rng = as_generator(rng_seed)
    g = ColoredMultigraph.from_sequence(seq)
    g.white_match = _uniform_matching(seq.total_white, rng)
    g.assert_matching(g.white_match, g.white_owner)
    return g


def sample_black_matching(g: ColoredMultigraph, rng_seed) -> ColoredMultigraph:
    """New graph with the black half-edges uniformly paired, all edges retained."""
    if g.seq.total_black % 2:
        raise ValueError("black parity violated")
    rng = as_generator(rng_seed)
    out = ColoredMultigraph(
        seq=g.seq,
        white_owner=g.white_owner,
        black_owner=g.black_owner,
        white_match=g.white_match,
        black_match=_uniform_matching(g.seq.total_black, rng),
        black_keep=np.ones(g.seq.total_black // 2, dtype=bool),
    )
    out.assert_matching(out.black_match, out.black_owner)
    return out


def percolate_black(g: ColoredMultigraph, keep_probability: float, rng_seed) -> ColoredMultigraph:
    """Retain each black edge independently with probability ``keep_probability``."""
    if not 0.0 <= keep_probability <= 1.0:
        raise ValueError("keep probability must lie in [0, 1]")
    if g.black_match is None:
        raise ValueError("black matching not sampled")
    rng = as_generator(rng_seed)
    n_edges = g.seq.total_black // 2
    keep = rng.random(n_edges) < keep_probability
    return ColoredMultigraph(
        seq=g.seq,
        white_owner=g.white_owner,
        black_owner=g.black_owner,
        white_match=g.white_match,
        black_match=g.black_match,
        black_keep=keep,
    )


@dataclass
class ComponentSummary:
    member_vertices: np.ndarray
    size: int
    black_half_edges: int
    white_edges: int
    surplus: int


def _edge_list(g: ColoredMultigraph, extra_edges: np.ndarray | None = None):
    """(rows, cols, n_white): vertex pairs of the white edges (first
    ``n_white`` entries), retained black edges and optional extra pairs."""
    if g.white_match is None:
        raise ValueError("white matching not sampled")
    wp = g.white_pairs()
    rows = [g.white_owner[wp[:, 0]]]
    cols = [g.white_owner[wp[:, 1]]]
    bp = g.black_pairs()
    if bp.size:
        rows.append(g.black_owner[bp[:, 0]])
        cols.append(g.black_owner[bp[:, 1]])
    if extra_edges is not None and len(extra_edges):
        extra = np.asarray(extra_edges)
        rows.append(extra[:, 0])
        cols.append(extra[:, 1])
    return np.concatenate(rows), np.concatenate(cols), len(wp)


def component_labels(g: ColoredMultigraph, extra_edges: np.ndarray | None = None) -> np.ndarray:
    """Component label per vertex under white edges, retained black edges,
    and optional extra vertex pairs."""
    rows, cols, _ = _edge_list(g, extra_edges)
    return labels_from_edges(rows, cols, g.n)


def labels_from_edges(rows, cols, n: int) -> np.ndarray:
    """Component label per vertex of the undirected graph on ``n`` vertices
    with edges ``(rows[k], cols[k])``.

    Rows that arrive as a few sorted runs (white pairs, black pairs, a
    batch's replicates) make the stable sort nearly linear.
    """
    rows = np.asarray(rows, dtype=np.int64)
    adj = csr_adjacency(np.bincount(rows, minlength=n), np.asarray(cols)[np.argsort(rows, kind="stable")])
    return _cc(adj, directed=False)[1]


def csr_adjacency(row_lengths, cols) -> csr_matrix:
    """Square CSR matrix whose row v holds the next ``row_lengths[v]``
    entries of ``cols``.

    scipy's own index width and float64 data, so that scipy neither
    converts, sorts nor sums duplicates: a traversal visits each row's
    entries in exactly this order.
    """
    n = len(row_lengths)
    idx = np.int32 if max(n, len(cols)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(row_lengths, out=indptr[1:])
    indices = np.asarray(cols, dtype=idx)
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def component_table(g: ColoredMultigraph, extra_edges: np.ndarray | None = None):
    """Arrays (sizes, black_half_edges, white_edges, surplus, min_member),
    ordered by decreasing size with ties by smallest member vertex id."""
    rows, cols, n_white = _edge_list(g, extra_edges)
    labels = labels_from_edges(rows, cols, g.n)
    ncomp = labels.max() + 1 if labels.size else 0
    sizes = np.bincount(labels, minlength=ncomp)
    blacks = np.bincount(labels, weights=g.seq.black.astype(float), minlength=ncomp).astype(np.int64)
    # every edge lies inside one component, so its first end names it
    first = labels[rows]
    white_edges = np.bincount(first[:n_white], minlength=ncomp)
    surplus = np.bincount(first, minlength=ncomp) + 1 - sizes
    min_member = np.full(ncomp, g.n, dtype=np.int64)
    np.minimum.at(min_member, labels, np.arange(g.n))
    order = np.lexsort((min_member, -sizes))
    return sizes[order], blacks[order], white_edges[order], surplus[order], min_member[order], labels, order


def components(g: ColoredMultigraph, extra_edges: np.ndarray | None = None) -> list[ComponentSummary]:
    """Connected components with exact size, black half-edge and surplus counts."""
    sizes, blacks, white_edges, surplus, _, labels, order = component_table(g, extra_edges)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    members = [[] for _ in range(order.size)]
    for v, lab in enumerate(labels):
        members[inverse[lab]].append(v)
    return [
        ComponentSummary(
            member_vertices=np.array(mem),
            size=int(sz),
            black_half_edges=int(bl),
            white_edges=int(we),
            surplus=int(sp),
        )
        for mem, sz, bl, we, sp in zip(members, sizes, blacks, white_edges, surplus)
    ]


def write_edge_csv(g: ColoredMultigraph, path):
    """Edge list CSV with columns (half_edge_a, half_edge_b, color)."""
    white, black = g.white_pairs(), g.black_pairs()
    pairs = np.concatenate((white, black))
    color = np.repeat(["white", "black"], [len(white), len(black)])
    write_rows(path, "{},{},{}\r\n", (pairs[:, 0], pairs[:, 1], color), header="half_edge_a,half_edge_b,color\r\n")
