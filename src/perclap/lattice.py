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
    ``order`` holds the vertices by component (ascending within one) and
    ``edges`` the open edges in local indices, grouped by component.
    Cluster i is ``order[vbounds[i]:vbounds[i + 1]]`` with the edges
    ``edges[ebounds[i]:ebounds[i + 1]]``.  A :class:`Cluster` of slices
    is built only when one is indexed or iterated, its coordinates from
    the box and its degrees from its own edges; a slice of the sequence
    gives a list of them.
    """

    __slots__ = ("box", "d", "order", "edges", "vbounds", "ebounds")

    def __init__(self, box, order, edges, vbounds, ebounds):
        _readonly(order, edges, vbounds, ebounds)
        self.box = box
        self.d = box.d
        self.order = order
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
        vertices, edges = self.order[s:t], self.edges[es:et]
        coords = self.box.coords(vertices)
        # every edge of a component has both ends in it
        degrees = np.bincount(edges.ravel(), minlength=t - s).astype(np.int64, copy=False)
        _readonly(coords, degrees)
        return Cluster(self.d, vertices, coords, edges, degrees)


def clusters(graph: PercolationGraph) -> ClusterSequence:
    """Decompose a realization into clusters, ordered by smallest vertex.

    The whole realization is grouped in one sorted pass: vertices by
    component root (ascending within a component) and the edges, in
    local indices, stably by root.  The result is a
    :class:`ClusterSequence` over these read-only arrays, so no cluster
    can write into another and none is built until it is accessed.
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

    eroots = roots[eu]
    eorder = np.argsort(eroots, kind="stable")
    edges = np.empty((eu.size, 2), dtype=np.int64)
    edges[:, 0] = local[eu[eorder]]
    edges[:, 1] = local[ev[eorder]]
    edge_counts = np.bincount(eroots, minlength=nv)[sorted_roots[starts]]

    vbounds = np.append(starts, nv)
    ebounds = np.concatenate(([0], np.cumsum(edge_counts)))
    return ClusterSequence(box, order, edges, vbounds, ebounds)


class ShapeEnsemble:
    """The clusters of realizations as a table of distinct shapes.

    ``graphs`` is any iterable of realizations of one dimension; it is
    read once, so a generator streams them and only one realization is
    held at a time.  ``shapes`` holds one representative per
    ``canonical_key()`` in first-seen order, ``counts`` its multiplicity
    and ``order`` the shape id of every cluster in realization and
    cluster order.  Each realization is decomposed once by
    :func:`clusters`; only its compact int32 key material is kept, and no
    per-cluster :class:`Cluster` is built.

    Isolated vertices are all one shape, so they never enter the key
    table: they are marked in a mask over all clusters, and their shape
    takes its id from the first of them.  The keys of the clusters of
    two or more vertices are compared in bulk over the whole ensemble,
    on the values that ``canonical_key()`` hashes: clusters are grouped
    by vertex and edge count, and in each group equal int32 rows of
    coordinates minus their per-axis minimum and local edges are found
    by a stable lexsort.  Each distinct key, in first-seen order, gets a
    read-only representative rebuilt from its first cluster's key
    material, with int64 arrays as every :class:`Cluster` has; the
    isolated shape's is built from its first vertex.
    """

    def __init__(self, graphs):
        self.d, self.total_vertices = None, 0
        columns, isolated = [[] for _ in range(6)], None
        for g in graphs:
            if self.d is None:
                self.d = g.box.d
            elif g.box.d != self.d:
                raise DomainError("all graphs must share the lattice dimension")
            self.total_vertices += g.box.n_vertices
            v = _key_columns(columns, g.box, clusters(g))
            if isolated is None and v is not None:
                isolated = _isolated_vertex(g.box, v)
        if self.d is None:
            raise DomainError("an ensemble needs at least one graph")
        keys = _KeyMaterial(self.d, columns)
        firsts, head = keys.first_seen()
        self.shapes = [keys.representative(c) for c in firsts.tolist()]
        ids = np.searchsorted(firsts, head)
        self.order = np.empty(keys.multi.size, dtype=np.int64)
        if isolated is not None:
            # the isolated shape's slot: where its first cluster falls
            # among the first clusters of the other shapes
            keyed = np.flatnonzero(keys.multi)
            iso = int(np.searchsorted(keyed[firsts], np.argmin(keys.multi)))
            ids += ids >= iso
            self.shapes.insert(iso, isolated)
            self.order[~keys.multi] = iso
        self.order[keys.multi] = ids
        self.counts = np.bincount(self.order, minlength=len(self.shapes))
        self.n_clusters = self.order.size


def _key_columns(columns, box, seq):
    """Append the key columns of one realization to ``columns`` and return
    its first isolated vertex, or None if no cluster is isolated.

    The columns are the box side, vertex and edge counts, flat vertices
    and local edges of the clusters of two or more vertices, and the
    mask of those clusters among all.  Box side, vertices and edges are
    int32, as a box holds at most ``config.MAX_VERTICES`` = 2**31 - 1
    vertices.
    """
    sizes = np.diff(seq.vbounds)
    multi = sizes > 1
    kept = sizes[multi]
    # an isolated vertex has no edge, so every edge is a kept cluster's
    part = (np.full(kept.size, box.L, dtype=np.int32), kept, np.diff(seq.ebounds)[multi],
            seq.order[np.repeat(multi, sizes)].astype(np.int32),
            seq.edges.ravel().astype(np.int32), multi)
    for column, a in zip(columns, part):
        column.append(a)
    return None if multi.all() else int(seq.order[seq.vbounds[np.argmin(multi)]])


def _isolated_vertex(box, v):
    """A read-only Cluster of the single vertex v of box."""
    vertices = np.array([v], dtype=np.int64)
    coords = box.coords(vertices)
    edges = np.empty((0, 2), dtype=np.int64)
    degrees = np.zeros(1, dtype=np.int64)
    _readonly(vertices, coords, edges, degrees)
    return Cluster(box.d, vertices, coords, edges, degrees)


def _join(parts):
    """Concatenate a list of 1-D arrays, emptying the list as each part is
    copied, so no part outlives its copy."""
    out = np.empty(sum(a.size for a in parts), dtype=parts[0].dtype)
    at = 0
    while parts:
        a = parts.pop(0)
        out[at:at + a.size] = a
        at += a.size
    return out


# row entries of the sorted key rows compared at a time in first_seen
_COMPARE_ITEMS = 1 << 16


class _KeyMaterial:
    """Global vertices, box side and local edges of every cluster of two
    or more vertices of an ensemble, in cluster order: what
    ``canonical_key()`` is made of.  ``multi`` marks those clusters among
    all clusters of the ensemble; the isolated ones have no key columns.

    ``columns`` holds one list of per-realization arrays per column; each
    list is emptied as it is joined.
    """

    def __init__(self, d, columns):
        self.d = d
        self.side, self.sizes, self.esizes, self.vertices, self.edges, self.multi = (
            _join(column) for column in columns)
        self.vstart = np.cumsum(self.sizes) - self.sizes
        self.estart = 2 * (np.cumsum(self.esizes) - self.esizes)

    def rows(self, members, n, ne):
        """Int32 key rows of clusters with n vertices and ne edges: the
        coordinates minus their per-cluster minimum, axis by axis, then
        the local edges.  Two rows are equal exactly when the clusters'
        ``canonical_key()`` values are."""
        rows = np.empty((members.size, self.d * n + 2 * ne), dtype=np.int32)
        vertices = self.vertices[self.vstart[members, None] + np.arange(n)]
        side = self.side[members, None]
        for axis in range(self.d):
            coord = vertices // side ** axis % side
            rows[:, axis * n:(axis + 1) * n] = coord - coord.min(axis=1, keepdims=True)
        rows[:, self.d * n:] = self.edges[self.estart[members, None] + np.arange(2 * ne)]
        return rows

    def first_seen(self):
        """Keyed clusters that first show their key, ascending, and for
        every keyed cluster the first one with its key.

        Equal rows are adjacent in the stable lexsort order.  They are
        found by comparing neighbours in that order, a block of at most
        ``_COMPARE_ITEMS`` row entries at a time, so no sorted copy of
        the rows is made."""
        n = self.sizes.size
        head = np.arange(n, dtype=np.int64)
        by_group = np.lexsort((self.esizes, self.sizes))
        g_n, g_ne = self.sizes[by_group], self.esizes[by_group]
        cut = np.flatnonzero((g_n[1:] != g_n[:-1]) | (g_ne[1:] != g_ne[:-1])) + 1
        bounds = np.concatenate(([0], cut, [n])).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo < 2:
                continue
            members = by_group[lo:hi]  # ascending: the lexsort is stable
            rows = self.rows(members, int(g_n[lo]), int(g_ne[lo]))
            idx = np.lexsort(rows.T)
            new = np.zeros(idx.size, dtype=bool)
            new[0] = True
            width = max(1, _COMPARE_ITEMS // idx.size)
            for col in range(0, rows.shape[1], width):
                ranked = rows[idx, col:col + width]
                new[1:] |= (ranked[1:] != ranked[:-1]).any(axis=1)
            run = np.cumsum(new) - 1
            head[members[idx]] = members[idx[new]][run]
        return np.flatnonzero(head == np.arange(n)), head

    def representative(self, c):
        """A read-only Cluster rebuilt from the key material of keyed
        cluster c."""
        n, ne = int(self.sizes[c]), int(self.esizes[c])
        vertices = self.vertices[self.vstart[c]:self.vstart[c] + n].astype(np.int64)
        edges = self.edges[self.estart[c]:self.estart[c] + 2 * ne].reshape(ne, 2).astype(np.int64)
        coords = LatticeBox(self.d, int(self.side[c])).coords(vertices)
        degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
        _readonly(vertices, coords, edges, degrees)
        return Cluster(self.d, vertices, coords, edges, degrees)


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
