"""RNG and kernel tests.

The splitmix64 reference values are the published test vectors of the
generator; everything else is checked against an independent
reimplementation: scalar splitmix64, DFS labeling, brute-force cuts and
the vectorized all-subsets cut search the connected-subset kernel replaced.
"""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perclap
from perclap import LatticeBox, kernels, sample_graph
from perclap.lattice import ShapeEnsemble
from perclap.kernels import derive_seed, edge_open_mask, edge_uniforms, splitmix64

# published sequence of splitmix64 seeded with 0: next() == finalize(state + golden)
SPLITMIX_VECTORS = {
    0: 0xE220A8397B1DCDAF,
    1: 0x910A2DEC89025CC1,
}


def test_splitmix64_reference_vectors():
    for x, want in SPLITMIX_VECTORS.items():
        assert splitmix64(x) == want


def test_splitmix64_range_and_determinism():
    vals = [splitmix64(k) for k in range(1000)]
    assert all(0 <= v < 2**64 for v in vals)
    assert vals == [splitmix64(k) for k in range(1000)]
    assert len(set(vals)) == 1000


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_splitmix64_matches_uint64_arithmetic(x):
    # independent reimplementation on numpy uint64 scalars
    with np.errstate(over="ignore"):
        z = np.uint64(x) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    assert splitmix64(x) == int(z)


def test_derive_seed_positional_and_distinct():
    seeds = [derive_seed(42, i) for i in range(200)]
    assert len(set(seeds)) == 200
    # appending realizations never changes earlier ones
    assert seeds[:10] == [derive_seed(42, i) for i in range(10)]
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_derive_seeds_matches_scalar_derive_seed():
    for master in (0, 7, 2**64 - 1):
        for start, n in ((0, 300), (2**32 - 5, 10), (2**32, 10), (2**63 + 3, 4)):
            got = kernels.derive_seeds(master, start, n)
            assert got.dtype == np.uint64
            assert got.tolist() == [derive_seed(master, start + i) for i in range(n)]


def test_uniforms_numpy_matches_scalar_path():
    # uniform i is the splitmix64 output for counter value seed + i*golden
    seed = derive_seed(9, 0)
    arr = edge_uniforms(seed, 64)
    want = [(splitmix64((seed + i * 0x9E3779B97F4A7C15) % 2**64) >> 11) * 2.0**-53
            for i in range(64)]
    assert arr.tolist() == want


def test_uniforms_in_unit_interval_and_uniform_mean():
    u = edge_uniforms(derive_seed(1, 1), 200_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 3 * (1 / np.sqrt(12)) / np.sqrt(u.size)


def test_edge_open_mask_density():
    for p in (0.0, 0.25, 1.0):
        m = edge_open_mask(derive_seed(5, 2), 100_000, p)
        assert abs(m.mean() - p) < 0.006


# open-bond probabilities at and next to the ends of the integer threshold
THRESHOLD_PS = [0.0, 2.0**-53, 1 / 3, 0.3, 12_345 * 2.0**-53,
                float(np.nextafter(1.0, 0.0)), 1.0]


def _float_open(z, p):
    """The uniform rule on a Python-int state: (z >> 11) * 2^-53 < p."""
    return (z >> 11) * 2.0**-53 < p


def _check_open_rule(zs, p):
    got = kernels._is_open(np.array(zs, dtype=np.uint64), p)
    assert got.dtype == bool and got.shape == (len(zs),)
    assert got.tolist() == [_float_open(z, p) for z in zs], p


@pytest.mark.parametrize("p", THRESHOLD_PS)
def test_integer_open_rule_at_its_threshold(p):
    """z < ceil(p 2^53) << 11 is the float rule, on both sides of the
    threshold; T is computed here in exact rational arithmetic."""
    t = math.ceil(Fraction(p) * 2**53) << 11
    zs = [z for z in (0, t - 2048, t - 1, t, t + 2047, 2**64 - 1) if 0 <= z < 2**64]
    _check_open_rule(zs, p)
    assert edge_open_mask(derive_seed(5, 3), 4096, p).tolist() \
        == (edge_uniforms(derive_seed(5, 3), 4096) < p).tolist()


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from(THRESHOLD_PS)
       | st.floats(min_value=0.0, max_value=1.0)
       | st.integers(min_value=0, max_value=2**53).map(lambda k: k * 2.0**-53))
def test_integer_open_rule_matches_float_rule(z, p):
    _check_open_rule([z], p)


def test_component_roots_agree_with_dfs():
    from conftest import dfs_components

    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 3 * n))
        eu = rng.integers(0, n, size=m).astype(np.int64)
        ev = rng.integers(0, n, size=m).astype(np.int64)
        want = dfs_components(n, eu, ev)
        assert np.array_equal(kernels.component_roots(n, eu, ev), want)


def _scipy_roots(n, eu, ev):
    """Minimal-vertex roots from scipy's connected_components, the test
    oracle of the numpy labeling (runs never import scipy.sparse.csgraph)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix((np.ones(eu.size, dtype=np.int8), (eu, ev)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    first = np.full(labels.max() + 1, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n))
    return first[labels]


def _box_bonds(sides):
    """Nearest-neighbour pairs of a box with side ``sides[k]`` on axis k,
    linearized with the first axis fastest."""
    n = int(np.prod(sides))
    idx = np.arange(n, dtype=np.int64)
    eu, ev, stride = [], [], 1
    for side in sides:
        lower = idx[idx // stride % side < side - 1]
        eu.append(lower)
        ev.append(lower + stride)
        stride *= side
    return n, np.concatenate(eu), np.concatenate(ev)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
           lambda d: st.lists(st.integers(min_value=1, max_value=40 // d ** 2 + 4),
                              min_size=d, max_size=d)),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32))
def test_component_roots_match_scipy_on_boxes(sides, p, seed):
    """Open bonds of boxes with mixed sides, listed in random order and
    orientation, label as scipy's connected_components does."""
    n, eu, ev = _box_bonds(sides)
    rng = np.random.default_rng(seed)
    keep = rng.random(eu.size) < p
    eu, ev = eu[keep], ev[keep]
    order = rng.permutation(eu.size)
    flip = rng.random(eu.size) < 0.5
    eu, ev = np.where(flip, ev, eu)[order], np.where(flip, eu, ev)[order]
    roots = kernels.component_roots(n, eu, ev)
    assert roots.dtype == np.int32
    assert np.array_equal(roots, _scipy_roots(n, eu, ev))


def _snake(side):
    rows = np.arange(side * side).reshape(side, side)
    rows[1::2] = rows[1::2, ::-1]
    return rows.ravel()


def _spiral(side):
    grid = np.arange(side * side).reshape(side, side)
    path = []
    while grid.size:
        path.append(grid[0])
        grid = np.rot90(grid[1:])
    return np.concatenate(path)


def _comb(side):
    """Spine along the top row, one tooth down every column: the bonds
    (u, v) of a spanning tree, not a path."""
    grid = np.arange(side * side).reshape(side, side)
    spine = (grid[0, :-1], grid[0, 1:])
    teeth = (grid[:-1].ravel(), grid[1:].ravel())
    return np.concatenate((spine[0], teeth[0])), np.concatenate((spine[1], teeth[1]))


def test_component_roots_match_scipy_on_long_paths():
    """Snake, spiral and comb spanning trees of a 300 x 300 box, in both
    linearizations, where hooking the larger root to the smaller one
    takes the most rounds; each labels all vertices with root 0."""
    side = 300
    n = side * side
    transpose = np.arange(n).reshape(side, side).T.ravel()
    cases = {"snake": _snake(side), "spiral": _spiral(side), "comb": _comb(side)}
    for name, case in cases.items():
        eu, ev = case if isinstance(case, tuple) else (case[:-1], case[1:])
        (ru, cu), (rv, cv) = np.divmod(eu, side), np.divmod(ev, side)
        assert (np.abs(ru - rv) + np.abs(cu - cv) == 1).all(), name  # lattice bonds
        for relabel in (np.arange(n), transpose):
            u, v = relabel[eu], relabel[ev]
            roots = kernels.component_roots(n, u, v)
            assert np.array_equal(roots, _scipy_roots(n, u, v)), name
            assert not roots.any(), name
    assert np.array_equal(np.sort(_spiral(side)), np.arange(n))


def test_runs_never_import_csgraph(tmp_path):
    """A `perclap all` run in a fresh interpreter labels clusters without
    importing scipy.sparse.csgraph."""
    src = str(Path(perclap.__file__).resolve().parents[1])
    config = tmp_path / "config.json"
    config.write_text('{"d": 1, "L": 2000, "p": 0.3, "realizations": 2, "seed": 3, '
                      '"decay_samples": 5000}')
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from perclap.cli import main\n"
        f"code = main(['all', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy.sparse.csgraph' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"]


def _brute_force_cut(n, eu, ev):
    best = None
    for mask in range(1, 1 << n):
        w = bin(mask).count("1")
        if 2 * w > n:
            continue
        b = sum(1 for u, v in zip(eu, ev) if ((mask >> u) ^ (mask >> v)) & 1)
        if best is None or b * best[1] < best[0] * w:
            best = (b, int(w))
    return best


def _simple_edges(edges):
    """The edges without self-loops and with each unordered pair once, in
    the orientation it first comes in: the simple graphs that
    ``best_cheeger_cut`` takes, as every lattice cluster is one."""
    seen, kept = set(), []
    for u, v in edges:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            kept.append((u, v))
    eu = np.array([u for u, _ in kept], dtype=np.int64)
    ev = np.array([v for _, v in kept], dtype=np.int64)
    return eu, ev


def test_cheeger_cut_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(0, 2 * n))
        eu = rng.integers(0, n, size=m).astype(np.int64)
        ev = rng.integers(0, n, size=m).astype(np.int64)
        eu, ev = _simple_edges(zip(eu.tolist(), ev.tolist()))
        want = _brute_force_cut(n, eu.tolist(), ev.tolist())
        got = kernels.best_cheeger_cut(n, eu, ev)
        assert got[0] * want[1] == want[0] * got[1]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
# the only zero cut avoids vertex 0
@example((5, [(0, 2), (0, 3), (1, 4)]))
def test_cheeger_cut_matches_brute_force_on_multigraphs(graph):
    """Random edge lists made simple (loops dropped, each unordered pair
    kept once, either orientation); disconnected graphs and isolated
    vertices included."""
    n, edges = graph
    eu, ev = _simple_edges(edges)
    want = _brute_force_cut(n, eu.tolist(), ev.tolist())
    got = kernels.best_cheeger_cut(n, eu, ev)
    assert got[0] * want[1] == want[0] * got[1]


def _bitmask_cheeger_cut(n_vertices, eu, ev):
    """All-subsets search: every bitmask W with 2|W| <= n, in numpy chunks."""
    total = 1 << n_vertices
    best_b, best_w = -1, 1
    eu = eu.astype(np.uint32)
    ev = ev.astype(np.uint32)
    chunk = 1 << 16
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        w = np.bitwise_count(masks).astype(np.int64)
        keep = 2 * w <= n_vertices
        masks, w = masks[keep], w[keep]
        if masks.size == 0:
            continue
        b = np.zeros(masks.size, dtype=np.int64)
        for u, v in zip(eu, ev):
            b += ((masks >> u) ^ (masks >> v)) & 1
        # distinct ratios with w <= n are separated by >> float eps,
        # so the float argmin picks an exactly optimal cut
        j = int(np.argmin(b / w))
        if best_b < 0 or b[j] * best_w < best_b * w[j]:
            best_b, best_w = int(b[j]), int(w[j])
    return best_b, best_w


def _assert_same_ratio(n, eu, ev):
    got = kernels.best_cheeger_cut(n, eu, ev)
    want = _bitmask_cheeger_cut(n, eu, ev)
    assert got[0] * want[1] == want[0] * got[1], (n, got, want)
    return got


def _shapes(d, L, p, realizations, seed):
    box = LatticeBox(d, L)
    graphs = [sample_graph(box, p, derive_seed(seed, i)) for i in range(realizations)]
    return [c for c in ShapeEnsemble(graphs).shapes if 2 <= c.n_vertices <= 20]


def test_cheeger_cut_matches_bitmask_search_on_d2_shapes():
    shapes = _shapes(2, 24, 0.3, 50, 11)
    assert len(shapes) > 300 and max(c.n_vertices for c in shapes) > 12
    for c in shapes:
        _assert_same_ratio(c.n_vertices, c.edges[:, 0], c.edges[:, 1])


def test_cheeger_cut_matches_bitmask_search_on_d3_shapes():
    shapes = _shapes(3, 10, 0.2, 20, 3)
    assert len(shapes) > 300 and max(c.n_vertices for c in shapes) > 12
    for c in shapes:
        _assert_same_ratio(c.n_vertices, c.edges[:, 0], c.edges[:, 1])


def _box_edges(shape):
    """Vertex count and edges of the full lattice box with these sides."""
    index = np.arange(int(np.prod(shape))).reshape(shape)
    eu, ev = [], []
    for axis, side in enumerate(shape):
        eu.append(index.take(range(side - 1), axis=axis).ravel())
        ev.append(index.take(range(1, side), axis=axis).ravel())
    return index.size, np.concatenate(eu), np.concatenate(ev)


def test_cheeger_cut_matches_bitmask_search_on_full_boxes():
    # the densest 20-vertex shapes: the most connected subsets per vertex
    for shape, (b, w) in (((4, 5), (5, 10)), ((2, 2, 5), (4, 8)), ((1, 20), (1, 10))):
        got = _assert_same_ratio(*_box_edges(shape))
        assert got[0] * w == b * got[1], shape


def _prufer_tree(n, code):
    """The labeled tree on n >= 2 vertices with Pruefer sequence ``code``."""
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = []
    for x in code:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    return edges + [(u, v)]


@st.composite
def _connected_graphs(draw):
    """A random tree (Pruefer), a tree plus one edge (unicyclic) or a tree
    plus several edges, each edge in a random orientation."""
    n = draw(st.integers(min_value=2, max_value=14))
    tree = _prufer_tree(n, draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                                         max_size=n - 2)))
    present = {frozenset(e) for e in tree}
    absent = [(u, v) for u in range(n) for v in range(u + 1, n)
              if frozenset((u, v)) not in present]
    extra = draw(st.sampled_from([0, 1, n]))
    chords = draw(st.lists(st.sampled_from(absent), max_size=extra, unique=True)
                  if absent and extra else st.just([]))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in tree + chords]
    return n, edges


@settings(max_examples=200, deadline=None)
@given(_connected_graphs())
# a 9-cycle with a 2-vertex pendant path: h = 2/5 (5 vertices of the
# cycle and path, cut by 2 cycle edges), while the best bridge gives 1/2
# and 2 w_b = 4 = k - 1 falls one short of the bridge bound
@example((11, [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (9, 10)]))
# a triangle and a 3-vertex path: m = n - 1 but disconnected, h = 0
@example((6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]))
def test_cheeger_cut_matches_bitmask_search_on_connected_graphs(graph):
    """Trees, where every cut is settled by a bridge, unicyclic and denser
    connected graphs, where the bridge bound settles some and the subset
    search the rest."""
    n, edges = graph
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    _assert_same_ratio(n, eu, ev)


def test_cheeger_cut_of_a_lattice_comb():
    """A 20-vertex spine in x with a 9-vertex tooth in y at each spine
    vertex: 200 vertices, a tree, far beyond any subset search.  Every
    cut has a boundary edge and 2|W| <= 200, so h >= 1/100, and cutting
    the spine in the middle leaves 10 teeth of 10 vertices on each side:
    h = 1/100."""
    index = np.arange(200).reshape(20, 10)  # (x, y); y = 0 is the spine
    eu = np.concatenate((index[:-1, 0], index[:, :-1].ravel()))
    ev = np.concatenate((index[1:, 0], index[:, 1:].ravel()))
    b, w = kernels.best_cheeger_cut(200, eu, ev)
    assert 100 * b == w


def test_sampling_identical_across_processes():
    """A fresh interpreter samples the same open edges as this one."""
    src = str(Path(perclap.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import hashlib\n"
        "from perclap import LatticeBox, sample_graph\n"
        "g = sample_graph(LatticeBox(2, 16), 0.5, 42)\n"
        "print(hashlib.sha256(g.open_eu.tobytes() + g.open_ev.tobytes()).hexdigest())\n"
    )
    other = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, check=True)
    here = sample_graph(LatticeBox(2, 16), 0.5, 42)
    assert here.n_open_edges > 0
    digest = hashlib.sha256(here.open_eu.tobytes() + here.open_ev.tobytes()).hexdigest()
    assert other.stdout.strip() == digest


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=500))
def test_uniforms_prefix_stability(seed, n):
    """The first n uniforms never depend on how many are requested."""
    long = edge_uniforms(seed, n + 17)
    short = edge_uniforms(seed, n)
    assert np.array_equal(long[:n], short)
