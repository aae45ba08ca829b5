"""Finite-volume bond percolation on the hypercubic lattice.

Vertices of the box {0,...,L-1}^d are linearized row-major,
``index = sum_nu x_nu * L**nu`` (first coordinate fastest), so golden
files are portable.  Candidate edges are enumerated axis-major and,
within an axis, by the linear index of the lower endpoint; the RNG is
keyed by (seed, edge index), making realizations independent of
iteration order.
"""

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


# Cluster objects are built this many at a time, so that the Python lists
# of slice bounds stay small next to the realization's arrays
_CLUSTER_CHUNK = 4096


def _readonly(*arrays):
    for a in arrays:
        a.setflags(write=False)


def clusters(graph: PercolationGraph) -> list:
    """Decompose a realization into clusters, ordered by smallest vertex.

    The whole realization is grouped in one sorted pass: vertices by
    component root (ascending within a component), their coordinates and
    degrees in that order, and the edges, in local indices, stably by
    root.  Each cluster's arrays are slices of these four shared arrays,
    which are read-only so that no cluster can write into another.
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
    _readonly(order, coords, degrees, edges)

    vbounds = np.append(starts, nv)
    ebounds = np.concatenate(([0], np.cumsum(edge_counts)))
    d = box.d
    out = []
    for lo in range(0, starts.size, _CLUSTER_CHUNK):
        vb = vbounds[lo:lo + _CLUSTER_CHUNK + 1].tolist()
        eb = ebounds[lo:lo + _CLUSTER_CHUNK + 1].tolist()
        out.extend(
            Cluster(d, order[s:t], coords[s:t], edges[es:et], degrees[s:t])
            for s, t, es, et in zip(vb, vb[1:], eb, eb[1:])
        )
    return out


class ShapeEnsemble:
    """The clusters of a list of realizations as a table of distinct shapes.

    ``shapes`` holds one representative per ``canonical_key()`` in
    first-seen order, ``counts`` its multiplicity and ``order`` the shape
    id of every cluster in realization and cluster order.  Each
    realization is decomposed once, and its cluster list dropped before
    the next one is built.  A representative is a copy of the cluster
    first seen, so it does not keep its realization's arrays alive.

    Clusters are matched by a box-offset key, ``(L, vertices -
    vertices[0], edges)``, which skips the per-cluster coordinate
    arithmetic of ``canonical_key()``.  Within one box side L >= 2 it is
    exact: the linear offset of every edge, ``vertices[v] - vertices[u]``,
    is +-L**nu and so names the edge's axis nu, and walking the edges of
    the connected cluster then fixes every coordinate relative to vertex
    0.  Equal keys thus mean translates, and translates have equal
    offsets because linearization is linear.  (L = 1 has only isolated
    vertices.)  Boxes of different sides are merged by computing
    ``canonical_key()`` once per newly seen box-offset key.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise DomainError("an ensemble needs at least one graph")
        self.d = graphs[0].box.d
        if any(g.box.d != self.d for g in graphs):
            raise DomainError("all graphs must share the lattice dimension")
        by_offsets = {}  # box-offset key -> shape id
        by_canonical = {}  # canonical key -> shape id
        shapes = []
        order = []
        for g in graphs:
            L = g.box.L
            for c in clusters(g):
                v = c.vertices
                key = (L, (v - v[0]).tobytes(), c.edges.tobytes())
                sid = by_offsets.get(key)
                if sid is None:
                    rep = _copy_cluster(c)
                    sid = by_canonical.setdefault(rep.canonical_key(), len(shapes))
                    if sid == len(shapes):
                        shapes.append(rep)
                    by_offsets[key] = sid
                order.append(sid)
        self.shapes = shapes
        self.order = np.array(order, dtype=np.int64)
        self.counts = np.bincount(self.order, minlength=len(self.shapes))
        self.n_clusters = len(order)
        self.total_vertices = sum(g.box.n_vertices for g in graphs)


def _copy_cluster(c: Cluster) -> Cluster:
    """A read-only copy of ``c`` that shares no array with it."""
    arrays = [a.copy() for a in (c.vertices, c.coords, c.edges, c.degrees)]
    _readonly(*arrays)
    return Cluster(c.d, *arrays)


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
