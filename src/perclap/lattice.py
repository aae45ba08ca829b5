"""Finite-volume bond percolation on the hypercubic lattice.

Vertices of the box {0,...,L-1}^d are linearized row-major,
``index = sum_nu x_nu * L**nu`` (first coordinate fastest), so golden
files are portable.  Candidate edges are enumerated axis-major and,
within an axis, by the linear index of the lower endpoint; the RNG is
keyed by (seed, edge index), making realizations independent of
iteration order.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .exceptions import ConfigurationError, DomainError


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned box {0,...,L-1}^d with free (restricted) boundary."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1 or self.L < 1:
            raise ConfigurationError(f"invalid box: d={self.d}, L={self.L}")

    @property
    def n_vertices(self) -> int:
        return self.L ** self.d

    @property
    def n_edges(self) -> int:
        return self.d * self.L ** (self.d - 1) * (self.L - 1)

    def linear_index(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        powers = self.L ** np.arange(self.d, dtype=np.int64)
        return coords @ powers

    def coords(self, linear) -> np.ndarray:
        linear = np.asarray(linear, dtype=np.int64)
        powers = self.L ** np.arange(self.d, dtype=np.int64)
        return (linear[..., None] // powers) % self.L

    def candidate_edges(self):
        """(eu, ev) linear-index endpoints of all nearest-neighbour pairs."""
        return _candidate_edges(self.d, self.L)


@lru_cache(maxsize=32)
def _candidate_edges(d, L):
    idx = np.arange(L ** d, dtype=np.int64)
    eu_parts, ev_parts = [], []
    for nu in range(d):
        step = L ** nu
        lower = idx[(idx // step) % L < L - 1]
        eu_parts.append(lower)
        ev_parts.append(lower + step)
    eu = np.concatenate(eu_parts)
    ev = np.concatenate(ev_parts)
    eu.setflags(write=False)
    ev.setflags(write=False)
    return eu, ev


@dataclass(frozen=True)
class PercolationGraph:
    """One realization restricted to a box: the open-edge set."""

    box: LatticeBox
    p: float
    seed: int
    open_eu: np.ndarray
    open_ev: np.ndarray

    @property
    def n_open_edges(self) -> int:
        return self.open_eu.size


def sample_graph(box: LatticeBox, p: float, seed: int) -> PercolationGraph:
    """Sample open edges, each present independently with probability p.

    p = 0 and p = 1 are admitted as deterministic test fixtures.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"bond probability out of range: {p}")
    eu, ev = box.candidate_edges()
    mask = kernels.edge_open_mask(seed, box.n_edges, p)
    return PercolationGraph(box, p, seed, eu[mask], ev[mask])


def graph_to_json_dict(graph: PercolationGraph) -> dict:
    """Debug dump with linearized vertex indices."""
    return {
        "d": graph.box.d,
        "L": graph.box.L,
        "p": graph.p,
        "seed": graph.seed,
        "open_edges": [[int(u), int(v)] for u, v in zip(graph.open_eu, graph.open_ev)],
    }


class Cluster:
    """A maximally connected component: vertex list, edge list, degrees.

    ``vertices`` are global linear indices (ascending); ``coords`` the
    matching lattice points; ``edges`` index into ``vertices``.
    """

    __slots__ = ("d", "vertices", "coords", "edges", "degrees", "_key")

    def __init__(self, d, vertices, coords, edges, degrees):
        self.d = d
        self.vertices = vertices
        self.coords = coords
        self.edges = edges
        self.degrees = degrees
        self._key = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def parity(self) -> np.ndarray:
        """(-1)^(sum of coordinates) per vertex, the bipartite sign."""
        return 1 - 2 * (np.abs(self.coords).sum(axis=1) % 2).astype(np.int64)

    def canonical_key(self):
        """Translation-invariant structure key, used to cache spectra.

        Vertex order (ascending linear index) is lexicographic in the
        reversed coordinate tuple, which translation preserves, so two
        translates of the same shape produce identical keys.
        """
        if self._key is None:
            shifted = self.coords - self.coords.min(axis=0)
            self._key = (self.d, shifted.tobytes(), self.edges.tobytes())
        return self._key


def _readonly(*arrays):
    for a in arrays:
        a.setflags(write=False)


class ClusterSequence(Sequence):
    """The clusters of one realization, ordered by smallest vertex.

    A read-only sequence over the arrays of the one-pass grouping:
    ``order`` holds the vertices by component (ascending within one),
    ``coords`` and ``degrees`` follow that order, and ``edges`` holds the
    open edges in local indices, grouped by component.  Cluster i is
    ``order[vbounds[i]:vbounds[i + 1]]`` with the edges
    ``edges[ebounds[i]:ebounds[i + 1]]``.  A :class:`Cluster` of slices
    is built only when one is indexed or iterated; a slice of the
    sequence gives a list of them.
    """

    __slots__ = ("d", "order", "coords", "degrees", "edges", "vbounds", "ebounds")

    def __init__(self, d, order, coords, degrees, edges, vbounds, ebounds):
        _readonly(order, coords, degrees, edges, vbounds, ebounds)
        self.d = d
        self.order = order
        self.coords = coords
        self.degrees = degrees
        self.edges = edges
        self.vbounds = vbounds
        self.ebounds = ebounds

    def __len__(self):
        return self.vbounds.size - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"cluster index {i} out of range for {n} clusters")
        i %= n
        s, t = self.vbounds[i:i + 2].tolist()
        es, et = self.ebounds[i:i + 2].tolist()
        return self._cluster(s, t, es, et)

    def __iter__(self):
        # memoryviews yield Python ints without materializing bound lists
        vb, eb = memoryview(self.vbounds), memoryview(self.ebounds)
        for s, t, es, et in zip(vb, vb[1:], eb, eb[1:]):
            yield self._cluster(s, t, es, et)

    def _cluster(self, s, t, es, et):
        return Cluster(self.d, self.order[s:t], self.coords[s:t],
                       self.edges[es:et], self.degrees[s:t])


def clusters(graph: PercolationGraph) -> ClusterSequence:
    """Decompose a realization into clusters, ordered by smallest vertex.

    The whole realization is grouped in one sorted pass: vertices by
    component root (ascending within a component), their coordinates and
    degrees in that order, and the edges, in local indices, stably by
    root.  The result is a :class:`ClusterSequence` over these read-only
    arrays, so no cluster can write into another and none is built
    until it is accessed.
    """
    box = graph.box
    nv = box.n_vertices
    eu, ev = graph.open_eu, graph.open_ev
    roots = kernels.component_roots(nv, eu, ev)

    order = np.argsort(roots, kind="stable")
    sorted_roots = roots[order]
    starts = np.flatnonzero(np.diff(sorted_roots, prepend=-1))
    sizes = np.diff(starts, append=nv)
    local = np.empty(nv, dtype=np.int64)
    local[order] = np.arange(nv, dtype=np.int64) - np.repeat(starts, sizes)
    coords = box.coords(order)
    degrees = (
        np.bincount(eu, minlength=nv) + np.bincount(ev, minlength=nv)
    ).astype(np.int64)[order]

    eroots = roots[eu]
    eorder = np.argsort(eroots, kind="stable")
    edges = np.empty((eu.size, 2), dtype=np.int64)
    edges[:, 0] = local[eu[eorder]]
    edges[:, 1] = local[ev[eorder]]
    edge_counts = np.bincount(eroots, minlength=nv)[sorted_roots[starts]]

    vbounds = np.append(starts, nv)
    ebounds = np.concatenate(([0], np.cumsum(edge_counts)))
    return ClusterSequence(box.d, order, coords, degrees, edges, vbounds, ebounds)


class ShapeEnsemble:
    """The clusters of a list of realizations as a table of distinct shapes.

    ``shapes`` holds one representative per ``canonical_key()`` in
    first-seen order, ``counts`` its multiplicity and ``order`` the shape
    id of every cluster in realization and cluster order.  Each
    realization is decomposed once by :func:`clusters`; only its compact
    key material is kept, and no per-cluster :class:`Cluster` is built.

    Clusters are matched by a box-offset key, ``(L, vertices -
    vertices[0], edges)``.  Within one box side L >= 2 it is exact: the
    linear offset of every edge, ``vertices[v] - vertices[u]``, is
    +-L**nu and so names the edge's axis nu, and walking the edges of
    the connected cluster then fixes every coordinate relative to vertex
    0.  Equal keys thus mean translates, and translates have equal
    offsets because linearization is linear.  (L = 1 has only isolated
    vertices.)  The keys are compared in bulk over the whole ensemble:
    clusters are grouped by ``(L, vertex count, edge count)``, and in
    each group equal rows of ``[vertex offsets | local edges]`` are found
    by a stable lexsort.  Each distinct key, in first-seen order, gets a
    read-only representative rebuilt from its first cluster's key
    material, and ``canonical_key()`` of it merges boxes of different
    sides.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise DomainError("an ensemble needs at least one graph")
        self.d = graphs[0].box.d
        if any(g.box.d != self.d for g in graphs):
            raise DomainError("all graphs must share the lattice dimension")
        keys = _KeyMaterial([_key_columns(g.box, clusters(g)) for g in graphs])
        firsts, head = keys.first_seen()
        by_canonical = {}  # canonical key -> shape id
        shapes = []
        sids = np.empty(firsts.size, dtype=np.int64)
        for k, c in enumerate(firsts.tolist()):
            rep = keys.representative(self.d, c)
            sids[k] = by_canonical.setdefault(rep.canonical_key(), len(shapes))
            if sids[k] == len(shapes):
                shapes.append(rep)
        self.shapes = shapes
        self.order = sids[np.searchsorted(firsts, head)]
        self.counts = np.bincount(self.order, minlength=len(self.shapes))
        self.n_clusters = self.order.size
        self.total_vertices = sum(g.box.n_vertices for g in graphs)


def _key_columns(box, seq):
    """Per-cluster box side, first vertex, vertex and edge counts, and the
    flat key rows of one realization: vertex offsets without the leading
    0, and local edges."""
    vb, eb = seq.vbounds, seq.ebounds
    sizes = np.diff(vb)
    first = seq.order[vb[:-1]]
    rest = np.ones(seq.order.size, dtype=bool)
    rest[vb[:-1]] = False
    offsets = (seq.order - np.repeat(first, sizes))[rest]
    side = np.full(sizes.size, box.L, dtype=np.int64)
    return side, first, sizes, np.diff(eb), offsets, seq.edges.ravel()


class _KeyMaterial:
    """Box-offset keys of every cluster of an ensemble, in cluster order."""

    def __init__(self, parts):
        self.side, self.first, self.sizes, self.esizes, self.offsets, self.edges = (
            np.concatenate(column) for column in zip(*parts))
        self.ostart = np.cumsum(self.sizes - 1) - (self.sizes - 1)
        self.estart = 2 * (np.cumsum(self.esizes) - self.esizes)

    def rows(self, members, n, ne):
        """Key rows ``[offsets | edges]`` of clusters with n vertices, ne edges."""
        vcols = self.offsets[self.ostart[members, None] + np.arange(n - 1)]
        ecols = self.edges[self.estart[members, None] + np.arange(2 * ne)]
        return np.concatenate((vcols, ecols), axis=1)

    def first_seen(self):
        """Clusters that first show their key, ascending, and for every
        cluster the first cluster with its key."""
        n = self.sizes.size
        head = np.arange(n, dtype=np.int64)
        by_group = np.lexsort((self.esizes, self.sizes, self.side))
        g_side, g_n, g_ne = (a[by_group] for a in (self.side, self.sizes, self.esizes))
        cut = np.flatnonzero((g_side[1:] != g_side[:-1]) | (g_n[1:] != g_n[:-1])
                             | (g_ne[1:] != g_ne[:-1])) + 1
        bounds = np.concatenate(([0], cut, [n])).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo < 2:
                continue
            members = by_group[lo:hi]  # ascending: the lexsort is stable
            rows = self.rows(members, int(g_n[lo]), int(g_ne[lo]))
            if rows.shape[1] == 0:
                head[members] = members[0]
                continue
            idx = np.lexsort(rows.T)
            ranked = rows[idx]
            new = np.ones(idx.size, dtype=bool)
            new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
            run = np.cumsum(new) - 1
            head[members[idx]] = members[idx[new]][run]
        return np.flatnonzero(head == np.arange(n)), head

    def representative(self, d, c):
        """A read-only Cluster rebuilt from the key material of cluster c."""
        n, ne = int(self.sizes[c]), int(self.esizes[c])
        offsets = self.offsets[self.ostart[c]:self.ostart[c] + n - 1]
        vertices = np.concatenate(([0], offsets)) + self.first[c]
        edges = self.edges[self.estart[c]:self.estart[c] + 2 * ne].reshape(ne, 2).copy()
        coords = LatticeBox(d, int(self.side[c])).coords(vertices)
        degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
        _readonly(vertices, coords, edges, degrees)
        return Cluster(d, vertices, coords, edges, degrees)


def _cluster_from_coords(d, coords, edge_pairs):
    """Build a Cluster from explicit coordinates and local edge pairs."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, d)
    n = coords.shape[0]
    edges = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    # linearize within the bounding box for portable global ids
    side = int(coords.max(initial=0)) + 1 if n else 1
    powers = side ** np.arange(d, dtype=np.int64)
    vertices = coords @ powers
    return Cluster(d, vertices, coords, edges, degrees)


def make_linear_cluster(n: int, d: int) -> Cluster:
    """Path of n vertices along the first coordinate axis."""
    if n < 2:
        raise DomainError(f"linear cluster needs n >= 2, got {n}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    coords = np.zeros((n, d), dtype=np.int64)
    coords[:, 0] = np.arange(n)
    edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    return _cluster_from_coords(d, coords, edges)


def make_cubic_cluster(l: int, d: int) -> Cluster:
    """Fully connected restriction of the lattice to an l^d box."""
    if l < 2:
        raise DomainError(f"cubic cluster needs l >= 2, got {l}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    box = LatticeBox(d, l)
    eu, ev = box.candidate_edges()
    verts = np.arange(box.n_vertices, dtype=np.int64)
    coords = box.coords(verts)
    edges = np.column_stack((eu, ev))
    degrees = np.bincount(edges.ravel(), minlength=verts.size).astype(np.int64)
    return Cluster(d, verts, coords, edges, degrees)
