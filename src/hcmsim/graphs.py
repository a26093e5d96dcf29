"""The edge-colored configuration model: uniform matchings and G_n(0)'s components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# scipy's compiled COO-to-CSR counting sort, called directly (only by
# labels_from_edges): a csr_matrix costs more than the sort on small graphs
from scipy.sparse._sparsetools import coo_tocsr
# the kernel of connected_components(directed=False), called directly (only by
# _component_labels) because that wrapper transposes even a symmetric graph
from scipy.sparse.csgraph._traversal import _connected_components_undirected

from .core import InvariantError, cached_property, write_int_rows
from .degrees import DegreeSequence


class Blocks(NamedTuple):
    """G_n(0)'s components as blocks, labelled by least member vertex."""

    label: np.ndarray  # block of each vertex
    size: np.ndarray  # vertices per block
    black: np.ndarray  # black half-edges per block
    order: np.ndarray  # blocks largest first, ties by least member vertex


@dataclass(frozen=True)
class ColoredMultigraph:
    """Half-edge representation of G_n(0): HCM_n(white, black) with the
    white half-edges matched and the black ones unpaired.

    Half-edges of each colour are numbered consecutively by vertex; the
    white matching is a permutation of the white half-edges in which
    pairs[2k] and pairs[2k + 1] are matched, checked when the graph is built.
    """

    seq: DegreeSequence
    pairs: np.ndarray

    def __post_init__(self):
        self.partner_owner  # built, and so checked, with the graph

    @property
    def n(self) -> int:
        return self.seq.n

    @cached_property
    def partner_owner(self) -> np.ndarray:  # over seq.white_indptr, the CSR indices of G_n(0)'s adjacency
        p, owner = self.pairs, self.seq.white_owner
        # each white half-edge exactly once; numpy wraps a negative index, so the sign is checked
        if p.size != owner.size or p.size % 2 or p.size and (p.min() < 0 or p.max() >= p.size):
            raise InvariantError("matching does not pair every white half-edge")
        partner = np.full(p.size, -1, dtype=owner.dtype)
        partner[p[0::2]], partner[p[1::2]] = owner[p[1::2]], owner[p[0::2]]
        if np.any(partner < 0):  # a half-edge listed twice leaves another out
            raise InvariantError("matching is not a permutation of the white half-edges")
        return partner

    @cached_property
    def blocks(self) -> Blocks:
        """The components of G_n(0), labelled once per graph."""
        indices, indptr = self.partner_owner, self.seq.white_indptr
        label = _component_labels(indices, indptr, indices, indptr)  # symmetric: its own transpose
        size = np.bincount(label)
        black = np.zeros(size.size, dtype=np.int64)
        np.add.at(black, label, self.seq.black)
        # labels number the blocks by least member vertex, so a stable sort breaks size ties by it
        table = Blocks(label, size, black, np.argsort(-size, kind="stable"))
        for column in table:  # every caller shares the cached arrays
            column.flags.writeable = False
        return table

    @cached_property
    def block_edges(self) -> np.ndarray:  # white edges per block; a white edge's ends share a block
        edges = np.bincount(self.blocks.label, weights=self.seq.white).astype(np.int64) // 2
        edges.flags.writeable = False  # shared like the block table
        return edges


def _uniform_matching(n_half: int, rng) -> np.ndarray:
    """Uniform perfect matching of an even number of half-edges as a permutation paired off
    consecutively: a uniform shuffle is exchangeable over the labels, hence uniform over all (n-1)!! matchings."""
    return rng.permutation(n_half)


def sample_white_matching(seq: DegreeSequence, rng: np.random.Generator) -> ColoredMultigraph:
    """G_n(0): white half-edges uniformly matched, black ones left unpaired."""
    if seq.total_white % 2:
        raise ValueError("white parity violated")
    return ColoredMultigraph(seq, _uniform_matching(seq.total_white, rng))


def labels_from_edges(rows, cols, n: int) -> np.ndarray:
    """Component label per vertex of the undirected graph on ``n`` vertices
    with edges ``(rows[k], cols[k])``, numbered by least member vertex."""
    ends = np.concatenate((rows, cols))
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise InvariantError("edge end is not a vertex")  # coo_tocsr does not check
    nnz = ends.size
    idx = np.int32 if max(n, nnz) < 2**31 else np.int64
    indptr, indices = np.empty(n + 1, dtype=idx), np.empty(nnz, dtype=idx)
    # both directions of each edge, grouped by end: the CSR of a symmetric
    # graph, which is its own transpose
    other = np.concatenate((cols, rows)).astype(idx)
    coo_tocsr(n, n, nnz, ends.astype(idx), other, np.zeros(nnz, np.int8), indptr, indices, np.empty(nnz, np.int8))
    return _component_labels(indices, indptr, indices, indptr)


def _component_labels(indices, indptr, indices_t, indptr_t) -> np.ndarray:
    """Label per vertex, by least member vertex, of the graph with this CSR adjacency and its transpose."""
    labels = np.empty(indptr.size - 1, dtype=np.int32)
    # the kernel reports an index that is not a vertex only on stderr, and returns 0 components
    if _connected_components_undirected(indices, indptr, indices_t, indptr_t, labels) == 0 and labels.size:
        raise InvariantError("adjacency index out of range")
    return labels


def component_table(g: ColoredMultigraph):
    """Arrays (sizes, black_half_edges, labels, order) of G_n(0)'s
    components, largest first with ties by least member vertex;
    ``labels[v]`` is the component of vertex v and ``order[k]`` the label of
    row k."""
    b = g.blocks
    return b.size[b.order], b.black[b.order], b.label, b.order


def merged_sizes(g: ColoredMultigraph, u, v) -> np.ndarray:
    """Component sizes, largest first, of G_n(0) plus the edges (u[k], v[k])
    between vertices.

    An added edge merges the blocks of its ends, so the blocks are labelled
    instead of the n vertices.
    """
    sizes, blacks, labels, order = component_table(g)
    merged = labels_from_edges(labels[u], labels[v], order.size)[order]  # merged label of each row
    size = np.bincount(merged, weights=sizes)
    black = np.bincount(merged, weights=blacks)
    if size.sum() != g.n or black.sum() != g.seq.total_black:
        raise InvariantError("merged blocks lost vertices or black half-edges")
    return np.sort(size.astype(np.int64))[::-1]


def write_edge_csv(g: ColoredMultigraph, path):
    """G_n(0)'s white edges as CSV rows (half_edge_a, half_edge_b, color),
    smaller half-edge first and in order of it."""
    p = g.pairs
    other = np.full(p.size, -1)
    other[np.minimum(p[0::2], p[1::2])] = np.maximum(p[0::2], p[1::2])  # each edge at its smaller half-edge
    a = np.flatnonzero(other >= 0)
    write_int_rows(path, (a, other[a]), header="half_edge_a,half_edge_b,color\r\n", suffix=",white\r\n")
