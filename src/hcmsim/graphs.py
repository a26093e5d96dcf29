"""The edge-colored configuration model: uniform matchings and G_n(0)'s components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
# the kernel of connected_components(directed=False), called directly (only by
# _component_labels) because that wrapper transposes even a symmetric graph
from scipy.sparse.csgraph._traversal import _connected_components_undirected

from .core import InvariantError, as_generator, cached_property, write_int_rows
from .degrees import DegreeSequence


class Blocks(NamedTuple):
    """G_n(0)'s components as blocks, labelled by least member vertex."""

    label: np.ndarray  # block of each vertex
    size: np.ndarray  # vertices per block
    black: np.ndarray  # black half-edges per block
    edges: np.ndarray  # white edges per block
    order: np.ndarray  # blocks largest first, ties by least member vertex


@dataclass(frozen=True)
class ColoredMultigraph:
    """Half-edge representation of G_n(0): HCM_n(white, black) with the
    white half-edges matched and the black ones unpaired.

    Half-edges of each colour are numbered consecutively by vertex; the
    white matching is a perfect matching as an involution array
    (match[h] = partner), fixed when the graph is built.
    """

    seq: DegreeSequence
    white_match: np.ndarray

    def __post_init__(self):
        self.assert_matching(self.white_match)

    @property
    def n(self) -> int:
        return self.seq.n

    def assert_matching(self, match: np.ndarray):
        # the exploration follows every white half-edge to its partner
        if match.size != self.seq.total_white or np.any((match < 0) | (match >= match.size)):
            raise InvariantError("matching does not pair every white half-edge")
        half_edges = np.arange(match.size)
        if np.any(match[match] != half_edges):
            raise InvariantError("matching is not an involution")
        if np.any(match == half_edges):
            raise InvariantError("matching has a fixed point")

    def white_pairs(self) -> np.ndarray:
        """(m, 2) array of matched white half-edge pairs, first id smaller."""
        a = np.flatnonzero(self.white_match > np.arange(self.white_match.size))
        return np.column_stack((a, self.white_match[a]))

    @cached_property
    def partner_owner(self) -> np.ndarray:  # over seq.white_indptr, the CSR indices of G_n(0)'s adjacency
        return self.seq.white_owner[self.white_match].astype(self.seq.white_indptr.dtype)

    @cached_property
    def blocks(self) -> Blocks:
        """The components of G_n(0), labelled once per graph."""
        indices, indptr = self.partner_owner, self.seq.white_indptr
        label = _component_labels(indices, indptr, indices, indptr)  # symmetric: its own transpose
        size = np.bincount(label)
        black = np.bincount(label, weights=self.seq.black).astype(np.int64)
        edges = np.bincount(label, weights=self.seq.white).astype(np.int64) // 2  # a white edge's ends share a block
        # labels number the blocks by least member vertex, so a stable sort
        # breaks size ties by it
        table = Blocks(label, size, black, edges, np.argsort(-size, kind="stable"))
        for column in table:  # every caller shares the cached arrays
            column.flags.writeable = False
        return table


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
    return ColoredMultigraph(seq, _uniform_matching(seq.total_white, as_generator(rng_seed)))


def labels_from_edges(rows, cols, n: int) -> np.ndarray:
    """Component label per vertex of the undirected graph on ``n`` vertices
    with edges ``(rows[k], cols[k])``, numbered by least member vertex.

    Rows that arrive as a few sorted runs (a batch's replicates) make the
    stable sort nearly linear.
    """
    rows = np.asarray(rows, dtype=np.int64)
    adj = csr_adjacency(np.bincount(rows, minlength=n), np.asarray(cols)[np.argsort(rows, kind="stable")])
    adj_t = adj.T.tocsr()
    return _component_labels(adj.indices, adj.indptr, adj_t.indices, adj_t.indptr)


def _component_labels(indices, indptr, indices_t, indptr_t) -> np.ndarray:
    """Label per vertex, by least member vertex, of the graph with this CSR adjacency and its transpose."""
    labels = np.empty(indptr.size - 1, dtype=np.int32)
    # the kernel reports an index that is not a vertex only on stderr, and returns 0 components
    if _connected_components_undirected(indices, indptr, indices_t, indptr_t, labels) == 0 and labels.size:
        raise InvariantError("adjacency index out of range")
    return labels


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


def component_table(g: ColoredMultigraph):
    """Arrays (sizes, black_half_edges, white_edges, surplus, labels, order)
    of G_n(0)'s components, largest first with ties by least member vertex;
    ``labels[v]`` is the component of vertex v and ``order[k]`` the label of
    row k."""
    b = g.blocks
    return b.size[b.order], b.black[b.order], b.edges[b.order], (b.edges + 1 - b.size)[b.order], b.label, b.order


def merged_sizes(g: ColoredMultigraph, u, v) -> np.ndarray:
    """Component sizes, largest first, of G_n(0) plus the edges (u[k], v[k])
    between vertices.

    An added edge merges the blocks of its ends, so the blocks are labelled
    instead of the n vertices.
    """
    sizes, blacks, *_, labels, order = component_table(g)
    merged = labels_from_edges(labels[u], labels[v], order.size)[order]  # merged label of each row
    size = np.bincount(merged, weights=sizes)
    black = np.bincount(merged, weights=blacks)
    if size.sum() != g.n or black.sum() != g.seq.total_black:
        raise InvariantError("merged blocks lost vertices or black half-edges")
    return np.sort(size.astype(np.int64))[::-1]


def write_edge_csv(g: ColoredMultigraph, path):
    """G_n(0)'s white edges as CSV rows (half_edge_a, half_edge_b, color)."""
    pairs = g.white_pairs()
    write_int_rows(path, (pairs[:, 0], pairs[:, 1]), header="half_edge_a,half_edge_b,color\r\n", suffix=",white\r\n")
