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
    # the vertex indices as a C-order (L,)*d grid, whose axis d-1-nu is
    # coordinate nu: the lower ends along nu are the grid less its last
    # slice on that axis, the upper ends less its first, each raveled in
    # ascending index order
    grid = np.arange(L ** d, dtype=np.int64).reshape((L,) * d)
    eu_parts, ev_parts = [], []
    for nu in range(d):
        head = (slice(None),) * (d - 1 - nu)
        eu_parts.append(grid[head + (slice(None, -1),)].ravel())
        ev_parts.append(grid[head + (slice(1, None),)].ravel())
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
    opened = np.flatnonzero(kernels.edge_open_mask(seed, box.n_edges, p))
    return PercolationGraph(box, p, seed, eu[opened], ev[opened])


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


def make_cluster(d, vertices, coords, edges) -> Cluster:
    """A read-only Cluster of the int64 arrays given, with the degrees
    counted from its edges; every Cluster the library makes is built here."""
    degrees = np.bincount(edges.ravel(), minlength=vertices.size).astype(np.int64, copy=False)
    _readonly(vertices, coords, edges, degrees)
    return Cluster(d, vertices, coords, edges, degrees)


class ClusterSequence(Sequence):
    """The clusters of one realization, ordered by smallest vertex.

    A read-only sequence over the arrays of :func:`clusters`.  ``multi``
    marks the keyed clusters (two or more vertices) among all; the
    others are the vertices ``order`` leaves out, kept implicit.
    ``order`` holds the keyed vertices by cluster, ascending within one,
    and ``edges`` their open edges in local indices, int32 as the bounds:
    keyed cluster k is ``order[vbounds[k]:vbounds[k + 1]]`` with the
    edges ``edges[ebounds[k]:ebounds[k + 1]]``.  A :class:`Cluster` of
    int64 copies is built only when indexed or iterated; a slice gives a list.
    """

    __slots__ = ("box", "d", "order", "edges", "vbounds", "ebounds", "multi")

    def __init__(self, box, order, edges, vbounds, ebounds, multi):
        _readonly(order, edges, vbounds, ebounds, multi)
        self.box, self.d, self.multi = box, box.d, multi
        self.order, self.edges, self.vbounds, self.ebounds = order, edges, vbounds, ebounds

    def __len__(self):
        return self.multi.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._build(range(*index.indices(len(self)))))
        i, n = operator.index(index), len(self)
        if not -n <= i < n:
            raise IndexError(f"cluster index {i} out of range for {n} clusters")
        return next(self._build([i % n]))

    def __iter__(self):
        return self._build(range(len(self)))

    def _build(self, picked):
        """The clusters at the indices ``picked``, in that order.  Up to
        cluster i come ``keyed[i]`` keyed clusters, so an isolated one is
        the vertex ``i - keyed[i]`` of those ``order`` leaves out."""
        untouched = np.ones(self.box.n_vertices, dtype=bool)
        untouched[self.order] = False
        isolated = np.flatnonzero(untouched)
        keyed = np.cumsum(self.multi)
        vb, eb = self.vbounds, self.ebounds
        for i in picked:
            k = int(keyed[i])
            if self.multi[i]:
                vertices = self.order[vb[k - 1]:vb[k]].astype(np.int64)
                # every edge of a cluster has both ends in it
                edges = self.edges[eb[k - 1]:eb[k]].astype(np.int64)
            else:
                vertices = isolated[i - k:i - k + 1].copy()
                edges = np.empty((0, 2), dtype=np.int64)
            yield make_cluster(self.d, vertices, self.box.coords(vertices), edges)


def clusters(graph: PercolationGraph) -> ClusterSequence:
    """Decompose a realization into clusters, ordered by smallest vertex.

    Only the vertices an open edge touches are grouped, stably by
    component root, and the edges stably by root, each end's local index
    read from an int32 array of positions in that order.  A vertex starts
    a cluster when it is untouched or the first of a keyed one, which
    orders all clusters by smallest vertex.  The :class:`ClusterSequence`
    over these read-only arrays builds no cluster until one is accessed.
    """
    box = graph.box
    nv = box.n_vertices
    eu, ev = graph.open_eu, graph.open_ev
    roots = kernels.component_roots(nv, eu, ev)
    touched = np.zeros(nv, dtype=bool)
    touched[eu] = True
    touched[ev] = True
    keyed = np.flatnonzero(touched)
    kroots = roots[keyed]
    korder = np.argsort(kroots, kind="stable")
    order = keyed.astype(np.int32)[korder]
    vbounds = _group_bounds(kroots[korder])
    position = np.empty(nv, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)
    eroots = roots[eu]
    eorder = np.argsort(eroots, kind="stable")
    eroots = eroots[eorder]
    first = position[eroots]  # a root is the first vertex of its cluster
    edges = np.empty((eu.size, 2), dtype=np.int32)
    edges[:, 0] = position[eu[eorder]] - first
    edges[:, 1] = position[ev[eorder]] - first

    starts = ~touched
    starts[order[vbounds[:-1]]] = True
    multi = touched[np.flatnonzero(starts)]
    return ClusterSequence(box, order, edges, vbounds, _group_bounds(eroots), multi)


def _group_bounds(keys):
    """Bounds of the runs of equal values of the sorted array keys, as int32."""
    change = np.ones(keys.size + 1, dtype=bool)
    change[1:-1] = keys[1:] != keys[:-1]
    return np.flatnonzero(change).astype(np.int32)


class ShapeEnsemble:
    """The clusters of realizations of one box as a table of distinct shapes.

    ``graphs`` is any iterable of realizations of one :class:`LatticeBox`,
    read once, so a generator streams them and only one is held at a
    time; graphs of different boxes raise :class:`DomainError`.
    ``shapes`` holds one representative per ``canonical_key()``, numbered
    by vertex count and, within one count, in first-seen order, so the
    isolated shape is shape 0 whenever a vertex is isolated.  ``bounds``
    are the bounds of the runs of equal vertex count over the shape ids:
    shapes ``bounds[r]`` to ``bounds[r + 1] - 1`` share one count, which
    rises strictly with r.  ``counts`` holds each shape's multiplicity,
    ``order`` the shape id of every cluster of two or more vertices in
    realization and cluster order, and ``n_clusters`` the number of all
    clusters.  Each realization is decomposed once by :func:`clusters`,
    and only the int32 arrays of its clusters of two or more vertices
    are kept; no per-cluster :class:`Cluster` is built.

    Isolated vertices never enter the key table: they are the vertices
    that no other cluster holds, and their shape's representative is the
    first of them.  The keys of the other clusters are compared in bulk
    over the whole ensemble: grouped by vertex and edge count, equal
    int32 rows of vertex index offsets and local edges, equal exactly
    when the ``canonical_key()`` values are, are found by a stable
    lexsort.  Each distinct key gets a read-only int64 representative
    rebuilt from its first cluster's key material.
    """

    def __init__(self, graphs):
        box, self.total_vertices = None, 0
        columns, isolated = [[] for _ in range(4)], None
        for g in graphs:
            if box is None:
                box = g.box
            elif g.box != box:
                raise DomainError("all graphs must share one lattice box")
            self.total_vertices += box.n_vertices
            seq = clusters(g)
            _key_columns(columns, seq)
            if isolated is None and not seq.multi.all():
                isolated = seq[int(np.argmin(seq.multi))]
        if box is None:
            raise DomainError("an ensemble needs at least one graph")
        self.d = box.d
        keys = _KeyMaterial(box, columns)
        firsts, head = keys.first_seen()
        by_size = np.argsort(keys.sizes[firsts], kind="stable")
        self.shapes = [] if isolated is None else [isolated]
        ids = np.empty(firsts.size, dtype=np.int64)
        ids[by_size] = np.arange(len(self.shapes), len(self.shapes) + firsts.size)
        self.order = ids[np.searchsorted(firsts, head)]
        ranked = firsts[by_size]
        sizes = np.concatenate((np.ones(len(self.shapes), np.int32), keys.sizes[ranked]))
        self.bounds = _group_bounds(sizes)
        self.shapes += [keys.representative(c) for c in ranked.tolist()]
        n_isolated = self.total_vertices - int(keys.sizes.sum())
        self.counts = np.bincount(self.order, minlength=len(self.shapes))
        self.counts[0] += n_isolated
        self.n_clusters = self.order.size + n_isolated


def _key_columns(columns, seq):
    """Append the key columns of one realization to ``columns``: the
    vertex and edge counts, flat vertices and local edges of its clusters
    of two or more vertices, read from ``seq`` with no copy.  All are
    int32, as a box holds at most ``config.MAX_VERTICES`` = 2**31 - 1
    vertices."""
    part = (np.diff(seq.vbounds), np.diff(seq.ebounds), seq.order, seq.edges.ravel())
    for column, a in zip(columns, part):
        column.append(a)


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
    """Global vertices and local edges of every cluster of two or more
    vertices of an ensemble of one box, in cluster order: what
    ``canonical_key()`` is made of.

    ``columns`` holds one list of per-realization arrays per column; each
    list is emptied as it is joined.
    """

    def __init__(self, box, columns):
        self.box = box
        self.sizes, self.esizes, self.vertices, self.edges = (
            _join(column) for column in columns)
        self.vstart = np.cumsum(self.sizes) - self.sizes
        self.estart = 2 * (np.cumsum(self.esizes) - self.esizes)

    def rows(self, members, n, ne):
        """Int32 key rows of clusters with n vertices and ne edges: the
        vertex indices minus the first (smallest), then the local edges.
        Two rows are equal exactly when the clusters' ``canonical_key()``
        values are: translates have equal offsets, as the index is linear
        in the coordinates; conversely every edge joins lattice neighbours,
        so its index difference is L**a for exactly one axis a, and walking
        a keyed (connected) cluster's edges from its first vertex fixes
        every coordinate.  Offsets alone are not enough: in d = 2 the steps
        (L - 1, 0) and (-1, 1) both give L - 1."""
        rows = np.empty((members.size, n + 2 * ne), dtype=np.int32)
        vertices = self.vertices[self.vstart[members, None] + np.arange(n)]
        rows[:, :n] = vertices - vertices[:, :1]
        rows[:, n:] = self.edges[self.estart[members, None] + np.arange(2 * ne)]
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
        return make_cluster(self.box.d, vertices, self.box.coords(vertices), edges)


def make_linear_cluster(n: int, d: int) -> Cluster:
    """Path of n vertices along the first coordinate axis."""
    if n < 2:
        raise DomainError(f"linear cluster needs n >= 2, got {n}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    vertices = np.arange(n, dtype=np.int64)
    coords = np.zeros((n, d), dtype=np.int64)
    coords[:, 0] = vertices
    edges = np.column_stack((vertices[:-1], vertices[1:]))
    return make_cluster(d, vertices, coords, edges)


def make_cubic_cluster(l: int, d: int) -> Cluster:
    """Fully connected restriction of the lattice to an l^d box."""
    if l < 2:
        raise DomainError(f"cubic cluster needs l >= 2, got {l}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    box = LatticeBox(d, l)
    eu, ev = box.candidate_edges()
    verts = np.arange(box.n_vertices, dtype=np.int64)
    return make_cluster(d, verts, box.coords(verts), np.column_stack((eu, ev)))
