"""Hot numeric kernels: counter-based RNG, cluster labeling, Cheeger cut search.

The RNG and labeling kernels are vectorized numpy; the Cheeger cut search
works on a simple graph (no self-loops or parallel edges, as in every
lattice cluster) with Python-int bitmasks: one depth-first search for
bridges settles every tree and many cyclic graphs, and the rest walk
their connected vertex subsets.
The RNG is a splitmix64 finalizer evaluated per counter value, so edge
decisions depend only on (seed, edge index) and never on iteration order.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# 2^-53; uniforms live on the dyadic grid k * 2^-53, k < 2^53
_INV53 = 1.1102230246251565e-16
# the same constants, and the finalizer's shifts, as uint64 scalars
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))


def splitmix64(x: int) -> int:
    """Finalize a 64-bit state to a well-mixed 64-bit value."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Positional sub-seed: realization ``index`` of stream ``master``.

    Adding realizations never perturbs earlier ones, and distinct indices
    give statistically independent streams.
    """
    return splitmix64((master & _MASK64) ^ splitmix64(index & _MASK64))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 shift/multiply chain, in place, on a uint64 array of
    states that already carry the golden increment: ``splitmix64(x) ==
    _mix(x + golden)``.  Returns ``z``."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def derive_seeds(master: int, start: int, n: int) -> np.ndarray:
    """``derive_seed(master, i)`` for i = start, ..., start + n - 1, as uint64."""
    z = np.arange(n, dtype=np.uint64)
    z += np.uint64(start & _MASK64)
    z += _U_GOLDEN
    _mix(z)
    z ^= np.uint64(master & _MASK64)
    z += _U_GOLDEN
    return _mix(z)


# ---------------------------------------------------------------------------
# per-edge uniforms


def _edge_states(seed: int, n: int) -> np.ndarray:
    """Finalized uint64 states of counters 1..n of stream ``seed``; the
    uniform of counter c is ``(state >> 11) * 2**-53``."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(seed & _MASK64)
    return _mix(z)


def _is_open(z: np.ndarray, p: float) -> np.ndarray:
    """Openness of the bonds whose finalized states are ``z``: exactly
    ``(z >> 11) * 2**-53 < p``, in one integer compare.

    That uniform is k * 2^-53 with k = z >> 11, and k * 2^-53 < p holds
    iff k < T = ceil(p * 2^53), iff z < T << 11.  For 0 <= p < 1 the
    threshold fits in uint64; at p >= 1 (where T << 11 = 2^64 would
    wrap) every bond is open, and at p <= 0, or NaN, none is.
    """
    if p >= 1.0:
        return np.ones(z.shape, dtype=bool)
    threshold = math.ceil(p * 2.0**53) << 11 if p > 0.0 else 0
    return z < np.uint64(threshold)


def edge_uniforms(seed: int, n: int) -> np.ndarray:
    """Uniforms on [0, 1) for counters 1..n of stream ``seed``."""
    return (_edge_states(seed, n) >> _U11) * _INV53


def edge_open_mask(seed: int, n: int, p: float) -> np.ndarray:
    """Openness of the ``n`` candidate edges of one realization:
    ``edge_uniforms(seed, n) < p``."""
    return _is_open(_edge_states(seed, n), p)


# ---------------------------------------------------------------------------
# cluster labeling


def component_roots(n_vertices: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Root (minimal vertex) of each vertex's connected component, as int32.

    Hook-and-compress labeling (Shiloach and Vishkin, J. Algorithms 3,
    1982): in each round every edge whose ends have different roots
    hooks the larger root to the smaller one (``np.minimum.at``), and
    ``parent = parent[parent]`` then runs until every vertex points at a
    root.  Roots only ever decrease and every round hooks at least one
    root, so labeling ends with each root the minimal vertex of its
    component.  Edges already inside one component leave the work list.
    Vertex indices are below 2**31 (``config.MAX_VERTICES``).
    """
    parent = np.arange(n_vertices, dtype=np.int32)
    u, v = eu, ev
    while u.size:
        ru, rv = parent[u], parent[v]
        active = ru != rv
        if not active.any():
            break
        u, v, ru, rv = u[active], v[active], ru[active], rv[active]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def origin_cluster_bfs(neighbours: np.ndarray, edge_ids: np.ndarray, wall: np.ndarray,
                       origin: int, master: int, samples: int, slots: int, p: float):
    """Size of the origin's cluster, and whether it reaches the wall, in
    the realizations of streams ``derive_seed(master, i)``, i < samples.

    ``neighbours[v, j]`` is the j-th lattice neighbour of vertex v (-1 past
    the wall), ``edge_ids[v, j]`` the uint64 candidate-edge index of that
    bond and ``wall[v]`` marks the vertices on the box wall.  A pool of
    ``slots`` streams (at least 1, at most ``samples``) runs one frontier
    BFS from the origin per round; a slot whose frontier empties writes
    its sample's result, resets its visited row and takes the next sample.
    The BFS draws a bond only when it leads to an unvisited vertex, with
    the uniform ``edge_uniforms`` gives that edge (counter ``edge index +
    1``), so each cluster is exactly the origin's cluster of the fully
    drawn realization, whatever the pool size.  Returns ``(sizes,
    touched)``; working memory is one bool per (slot, vertex), plus one
    per slot.

    Each visited row has an extra wall column, index n_vertices, that is
    always set: a neighbour past the wall points there, so it reads as
    visited and needs no mask of its own.  Two flat per-(vertex,
    direction) tables, built once per call, give the neighbour and the
    counter step ``(edge index + 1) * golden``; a draw is the slot's seed
    plus that step, finalized in place and tested against the integer
    threshold of ``_is_open``.  One index array, the unvisited lookups of
    the round, drives every later gather.
    """
    nv, degree = neighbours.shape
    row = nv + 1
    k = min(samples, max(1, slots))
    to = np.where(neighbours >= 0, neighbours, nv).astype(np.intp, copy=False).ravel()
    step = (edge_ids + np.uint64(1)).ravel()
    step *= _U_GOLDEN
    # lookups are direction-major, (degree, frontier), so that each
    # elementwise pass runs along the frontier
    dirs = np.arange(degree)[:, None]
    # a reset row: only the origin and the wall column set
    blank = np.zeros(row, dtype=bool)
    blank[[origin, nv]] = True
    visited = np.tile(blank, (k, 1))
    flat = visited.reshape(-1)
    sizes = np.empty(samples, dtype=np.int64)
    touched = np.empty(samples, dtype=bool)
    # per slot: its sample index, stream seed, cluster size and wall contact
    at = np.arange(k, dtype=np.int64)
    seeds = derive_seeds(master, 0, k)
    size = np.ones(k, dtype=np.int64)
    reach = np.full(k, bool(wall[origin]))
    live = np.ones(k, dtype=bool)
    slot = at.copy()
    vertex = np.full(k, origin, dtype=np.int64)
    start = k
    # seeds of samples first, first + 1, ...: derived k at a time, since a
    # derive_seeds call costs more than a round's refill of a few slots
    first, queued = k, derive_seeds(master, k, k)
    while slot.size:
        lookup = dirs + vertex * degree
        key = to[lookup]
        key += slot * row
        key = key.ravel()
        fresh = np.flatnonzero(~flat[key])
        key = key[fresh]
        z = step[lookup.ravel()[fresh]]
        z += seeds[key // row]
        key = key[_is_open(_mix(z), p)]
        key.sort()
        if key.size > 1:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        flat[key] = True
        slot, vertex = np.divmod(key, row)
        grown = np.bincount(slot, minlength=k)
        size += grown
        reach[slot[wall[vertex]]] = True
        done = np.flatnonzero(live & (grown == 0))
        if not done.size:
            continue
        sizes[at[done]], touched[at[done]] = size[done], reach[done]
        visited[done] = blank
        m = min(done.size, samples - start)
        live[done[m:]] = False
        if not m:
            continue
        done = done[:m]
        at[done] = np.arange(start, start + m)
        if start + m > first + queued.size:
            queued = np.concatenate((queued[start - first:],
                                     derive_seeds(master, first + queued.size, k)))
            first = start
        seeds[done] = queued[start - first:start - first + m]
        start += m
        size[done], reach[done] = 1, bool(wall[origin])
        slot = np.concatenate((slot, done))
        vertex = np.concatenate((vertex, np.full(m, origin, dtype=np.int64)))
    return sizes, touched


# ---------------------------------------------------------------------------
# exact Cheeger cut


def _largest_bridge_side(nbr):
    """Largest smaller side min(s, n - s) over the bridges of the graph
    with neighbour bitmasks ``nbr``: 0 when it has no bridge, None when
    it is not connected.

    One iterative depth-first search from vertex 0 with lowlinks: the
    tree edge (parent, v) is a bridge iff low(v) > disc(parent), and its
    sides are v's subtree (s vertices) and the rest.
    """
    n = len(nbr)
    disc = [0] * n  # discovery time from 1; 0 = not yet reached
    low = [0] * n
    size = [1] * n
    parent = [-1] * n
    rest = [0] * n  # neighbours still to scan, the tree edge in excluded
    disc[0] = low[0] = 1
    rest[0] = nbr[0]
    clock, stack, best = 2, [0], 0
    while stack:
        v = stack[-1]
        r = rest[v]
        if r:
            bit = r & -r
            rest[v] = r ^ bit
            x = bit.bit_length() - 1
            if disc[x]:
                if disc[x] < low[v]:
                    low[v] = disc[x]
            else:
                disc[x] = low[x] = clock
                clock += 1
                parent[x] = v
                rest[x] = nbr[x] ^ (1 << v)
                stack.append(x)
            continue
        stack.pop()
        u = parent[v]
        if u < 0:
            continue
        size[u] += size[v]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] > disc[u]:
            s = size[v]
            best = max(best, min(s, n - s))
    return best if clock == n + 1 else None


def best_cheeger_cut(n_vertices: int, eu: np.ndarray, ev: np.ndarray):
    """Minimal (|boundary edges|, |W|) ratio over subsets W with 2|W| <= n.

    The graph must be simple: no self-loop and no unordered pair joined
    twice, as in every lattice cluster.  Each vertex's neighbours are
    one Python-int bitmask, its degree that mask's popcount.

    The minimum is attained on a W that induces a connected subgraph: if W
    splits into parts with no edge between them, its boundary is the sum
    of theirs, so its ratio is a mediant of theirs and one part does at
    least as well.

    Bridge bound.  On a connected graph some optimal W also has V \\ W
    connected.  Take W connected and optimal, with ratio b/|W|, and C_i
    the components of G - W.  Each C_i is connected, and so is V \\ C_i
    (W and every other C_j, each joined to W).  The boundaries b_i of
    the C_i sum to b, so by the mediant some b_i/|C_i| <= b/(n - |W|)
    <= b/|W|, since n - |W| >= |W|.  If 2|C_i| <= n, C_i is as good as
    W; otherwise its complement is, with b_i/(n - |C_i|) <= b_i/|W|, as
    V \\ C_i contains W.  A cut with both sides connected has b <= m - n + 2
    (two spanning trees and b cut edges among the m), so on a tree every
    such cut is one bridge.  With k = n // 2, any cut with b >= 2 has
    ratio >= 2/k.  So with w_b the largest smaller side over the bridges
    (:func:`_largest_bridge_side`), a connected graph with m = n - 1 or
    2 w_b >= k has optimum (1, w_b), and no subset search is run.

    Otherwise each connected W is visited once, by ESU extension
    (Wernicke 2006) from its smallest vertex, and x joining W changes the
    boundary by deg(x) - 2 |nbr(x) & W|.  Returns ``(-1, 1)`` when
    n < 2, where no subset qualifies.
    """
    k = n_vertices // 2
    if k == 0:
        return -1, 1
    nbr = [0] * n_vertices
    for u, v in zip(eu.tolist(), ev.tolist()):
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    w_b = _largest_bridge_side(nbr)
    if w_b is not None and (len(eu) == n_vertices - 1 or 2 * w_b >= k):
        return 1, w_b
    deg = [m.bit_count() for m in nbr]
    best_b, best_w = min(deg), 1

    def extend(sub, size, b, closed, ext, above):
        # grow the connected ``sub`` (boundary b) by one candidate at a time;
        # ``closed`` is sub and its neighbours, ``ext`` the candidates so far
        nonlocal best_b, best_w
        size += 1
        while ext:
            bit = ext & -ext
            ext ^= bit
            x = bit.bit_length() - 1
            bx = b + deg[x] - 2 * (nbr[x] & sub).bit_count()
            if bx * best_w < best_b * size:
                best_b, best_w = bx, size
            if size < k:
                extend(sub | bit, size, bx, closed | nbr[x],
                       ext | (nbr[x] & above & ~closed), above)

    if k > 1:
        full = (1 << n_vertices) - 1
        for v in range(n_vertices):
            above = full ^ ((2 << v) - 1)
            extend(1 << v, 1, deg[v], nbr[v] | (1 << v), nbr[v] & above, above)
    return best_b, best_w
