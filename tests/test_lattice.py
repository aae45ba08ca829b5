"""Lattice geometry, sampling, and cluster decomposition tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dfs_components
from perclap import (
    ConfigurationError,
    DomainError,
    LatticeBox,
    clusters,
    make_cubic_cluster,
    make_linear_cluster,
    sample_graph,
)
from perclap import kernels
from perclap.kernels import derive_seed
from perclap.lattice import Cluster, ShapeEnsemble, graph_to_json_dict


def test_box_counts():
    assert LatticeBox(1, 10).n_vertices == 10
    assert LatticeBox(1, 10).n_edges == 9
    assert LatticeBox(2, 4).n_vertices == 16
    assert LatticeBox(2, 4).n_edges == 2 * 4 * 3  # 24
    assert LatticeBox(3, 3).n_edges == 3 * 9 * 2  # 54


def test_box_rejects_bad_shape():
    with pytest.raises(ConfigurationError):
        LatticeBox(0, 4)
    with pytest.raises(ConfigurationError):
        LatticeBox(2, 0)


def test_linearization_roundtrip_and_order():
    box = LatticeBox(3, 5)
    idx = np.arange(box.n_vertices)
    assert np.array_equal(box.linear_index(box.coords(idx)), idx)
    # first coordinate varies fastest
    assert box.linear_index([1, 0, 0]) == 1
    assert box.linear_index([0, 1, 0]) == 5
    assert box.linear_index([0, 0, 1]) == 25


def test_candidate_edges_are_nearest_neighbours():
    box = LatticeBox(2, 4)
    eu, ev = box.candidate_edges()
    assert eu.size == box.n_edges
    diff = np.abs(box.coords(ev) - box.coords(eu))
    assert np.all(diff.sum(axis=1) == 1)
    assert np.all(ev > eu)
    # no duplicates
    assert len({(int(u), int(v)) for u, v in zip(eu, ev)}) == eu.size


def test_sample_graph_extremes():
    box = LatticeBox(2, 5)
    g0 = sample_graph(box, 0.0, 1)
    assert g0.n_open_edges == 0
    g1 = sample_graph(box, 1.0, 1)
    assert g1.n_open_edges == box.n_edges
    with pytest.raises(ConfigurationError):
        sample_graph(box, 1.2, 1)
    with pytest.raises(ConfigurationError):
        sample_graph(box, -0.1, 1)


def test_sample_graph_reproducible_and_seed_sensitive():
    box = LatticeBox(2, 16)
    a = sample_graph(box, 0.5, derive_seed(3, 0))
    b = sample_graph(box, 0.5, derive_seed(3, 0))
    c = sample_graph(box, 0.5, derive_seed(3, 1))
    assert np.array_equal(a.open_eu, b.open_eu)
    assert np.array_equal(a.open_ev, b.open_ev)
    assert not np.array_equal(a.open_eu, c.open_eu)


def test_open_edge_count_binomial():
    # d=2, L=16, p=0.5: mean 240, sd ~ 7.75; average over 50 realizations
    box = LatticeBox(2, 16)
    counts = [sample_graph(box, 0.5, derive_seed(11, i)).n_open_edges
              for i in range(50)]
    mean = np.mean(counts)
    assert abs(mean - 0.5 * box.n_edges) < 3 * np.sqrt(0.25 * box.n_edges / 50)


def test_clusters_match_dfs_reference(small_ensemble):
    for g in small_ensemble:
        want_roots = dfs_components(g.box.n_vertices, g.open_eu, g.open_ev)
        got = clusters(g)
        want_groups = {}
        for v, r in enumerate(want_roots.tolist()):
            want_groups.setdefault(r, []).append(v)
        got_groups = {int(c.vertices[0]): c.vertices.tolist() for c in got}
        assert got_groups == want_groups


def test_clusters_partition_and_edge_conservation(small_ensemble):
    for g in small_ensemble:
        cs = clusters(g)
        allv = np.concatenate([c.vertices for c in cs])
        assert np.array_equal(np.sort(allv), np.arange(g.box.n_vertices))
        assert sum(c.n_edges for c in cs) == g.n_open_edges
        for c in cs:
            assert np.all(c.degrees <= 2 * g.box.d)
            assert c.degrees.sum() == 2 * c.n_edges
            # local edges reference local vertices and match coordinates
            if c.n_edges:
                assert c.edges.min() >= 0 and c.edges.max() < c.n_vertices
                du = c.coords[c.edges[:, 0]]
                dv = c.coords[c.edges[:, 1]]
                assert np.all(np.abs(dv - du).sum(axis=1) == 1)


def test_cluster_order_by_smallest_vertex(small_ensemble):
    for g in small_ensemble:
        firsts = [int(c.vertices[0]) for c in clusters(g)]
        assert firsts == sorted(firsts)


def test_canonical_key_translation_invariant():
    box = LatticeBox(2, 8)
    g = sample_graph(box, 0.4, derive_seed(21, 0))
    keys = {}
    for c in clusters(g):
        keys.setdefault(c.canonical_key(), []).append(c)
    # isolated vertices all share one key
    singles = [c for c in clusters(g) if c.n_vertices == 1]
    if len(singles) >= 2:
        assert singles[0].canonical_key() == singles[1].canonical_key()
    # translates of a fixed shape: build two shifted copies explicitly
    a = make_linear_cluster(4, 2)
    b_coords = a.coords + np.array([3, 2])
    from perclap.lattice import _cluster_from_coords

    b = _cluster_from_coords(2, b_coords, a.edges)
    assert a.canonical_key() == b.canonical_key()


def test_make_linear_cluster():
    c = make_linear_cluster(5, 1)
    assert c.n_vertices == 5 and c.n_edges == 4
    assert c.degrees.tolist() == [1, 2, 2, 2, 1]
    with pytest.raises(DomainError):
        make_linear_cluster(1, 1)


def test_make_cubic_cluster():
    c = make_cubic_cluster(3, 3)
    assert c.n_vertices == 27 and c.n_edges == 54
    assert c.degrees.min() == 3 and c.degrees.max() == 6
    with pytest.raises(DomainError):
        make_cubic_cluster(1, 2)


def test_parity_alternates_along_edges():
    c = make_cubic_cluster(3, 2)
    s = c.parity()
    assert set(s.tolist()) == {-1, 1}
    for u, v in c.edges:
        assert s[u] == -s[v]


def test_graph_json_dict_roundtrip_fields():
    g = sample_graph(LatticeBox(2, 4), 0.5, 7)
    d = graph_to_json_dict(g)
    assert d["d"] == 2 and d["L"] == 4 and d["seed"] == 7
    assert len(d["open_edges"]) == g.n_open_edges


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**32),
)
def test_cluster_partition_property(d, L, p, seed):
    g = sample_graph(LatticeBox(d, L), p, seed)
    cs = clusters(g)
    assert sum(c.n_vertices for c in cs) == g.box.n_vertices
    assert sum(c.n_edges for c in cs) == g.n_open_edges
    roots = dfs_components(g.box.n_vertices, g.open_eu, g.open_ev)
    assert len(cs) == np.unique(roots).size


def _reference_clusters(graph):
    """Per-cluster split decomposition, the oracle for ``clusters``."""
    box = graph.box
    nv = box.n_vertices
    eu, ev = graph.open_eu, graph.open_ev
    roots = kernels.component_roots(nv, eu, ev)

    order = np.argsort(roots, kind="stable")
    sorted_roots = roots[order]
    cuts = np.flatnonzero(np.diff(sorted_roots)) + 1
    vertex_groups = np.split(order, cuts)

    degrees_global = (
        np.bincount(eu, minlength=nv) + np.bincount(ev, minlength=nv)
    ).astype(np.int64)
    coords_all = box.coords(np.arange(nv, dtype=np.int64))

    edge_groups = {}
    if eu.size:
        eroots = roots[eu]
        eorder = np.argsort(eroots, kind="stable")
        seroots = eroots[eorder]
        ecuts = np.flatnonzero(np.diff(seroots)) + 1
        starts = np.concatenate(([0], ecuts))
        for s, grp in zip(starts, np.split(eorder, ecuts)):
            edge_groups[int(seroots[s])] = grp

    out = []
    empty = np.empty((0, 2), dtype=np.int64)
    for verts in vertex_groups:
        root = int(verts[0])
        eg = edge_groups.get(root)
        if eg is None:
            edges = empty
        else:
            gu = np.searchsorted(verts, eu[eg])
            gv = np.searchsorted(verts, ev[eg])
            edges = np.column_stack((gu, gv))
        out.append(
            Cluster(box.d, verts, coords_all[verts], edges, degrees_global[verts])
        )
    return out


# (d, L, p): a long d=1 chain, sub- and supercritical d=2 boxes, d=3 boxes
# of even and odd side, and the degenerate sides and probabilities
ORACLE_CASES = [
    (1, 100_000, 0.3),
    (2, 24, 0.3),
    (2, 64, 0.6),
    (3, 12, 0.3),
    (3, 15, 0.3),
    (1, 1, 0.5),
    (2, 1, 0.5),
    (2, 2, 0.5),
    (3, 2, 0.7),
    (2, 9, 0.0),
    (2, 9, 1.0),
    (3, 5, 1.0),
]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=lambda c: "d%d-L%d-p%g" % c)
def oracle_graph(request):
    d, L, p = request.param
    return sample_graph(LatticeBox(d, L), p, derive_seed(41, d * 1000 + L))


def _assert_same_cluster(c, r):
    assert c.d == r.d
    for name in ("vertices", "coords", "edges", "degrees"):
        a, b = getattr(c, name), getattr(r, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_clusters_match_reference_decomposition(oracle_graph):
    got, want = clusters(oracle_graph), _reference_clusters(oracle_graph)
    assert len(got) == len(want)
    for c, r in zip(got, want):
        _assert_same_cluster(c, r)


def test_cluster_sequence_indexing_matches_reference(oracle_graph):
    seq, want = clusters(oracle_graph), _reference_clusters(oracle_graph)
    n = len(want)
    assert len(seq) == n
    for i in sorted({0, 1, n // 2, n - 2, n - 1} & set(range(n))):
        _assert_same_cluster(seq[i], want[i])
        _assert_same_cluster(seq[i - n], want[i])
        _assert_same_cluster(seq[np.int64(i)], want[i])
    _assert_same_cluster(seq[-1], want[-1])
    step = max(1, n // 7)
    for part in (slice(None, 3), slice(-3, None), slice(1, None, step),
                 slice(None, None, -step), slice(n, None)):
        got = seq[part]
        assert isinstance(got, list) and len(got) == len(want[part])
        for c, r in zip(got, want[part]):
            _assert_same_cluster(c, r)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[i]
    with pytest.raises(TypeError):
        seq[1.0]
    for name in ("order", "edges", "vbounds", "ebounds"):
        a = getattr(seq, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0


def test_cluster_arrays_are_read_only(oracle_graph):
    cs = clusters(oracle_graph)
    for c in cs[:50] + cs[-50:]:
        for name in ("vertices", "coords", "edges", "degrees"):
            a = getattr(c, name)
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[...] = 0
    for c in ShapeEnsemble([oracle_graph]).shapes:
        for name in ("vertices", "coords", "edges", "degrees"):
            assert not getattr(c, name).flags.writeable, name


def _first_seen_ids(keys):
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def test_shape_ensemble_order_matches_canonical_grouping(oracle_graph):
    reps = [oracle_graph,
            sample_graph(oracle_graph.box, oracle_graph.p, derive_seed(43, 0))]
    ensemble = ShapeEnsemble(reps)
    cs = [c for g in reps for c in _reference_clusters(g)]
    want = _first_seen_ids(c.canonical_key() for c in cs)
    assert ensemble.order.tolist() == want
    assert len(ensemble.shapes) == max(want) + 1
    for sid, rep in enumerate(ensemble.shapes):
        first = cs[want.index(sid)]
        assert rep.canonical_key() == first.canonical_key()
        assert np.array_equal(rep.vertices, first.vertices)
        assert not np.shares_memory(rep.vertices, first.vertices)


def test_shape_ensemble_merges_translates_across_box_sides():
    graphs = [sample_graph(LatticeBox(2, L), 0.35, derive_seed(44, L)) for L in (5, 8, 13)]
    ensemble = ShapeEnsemble(graphs)
    keys = [c.canonical_key() for g in graphs for c in clusters(g)]
    assert ensemble.order.tolist() == _first_seen_ids(keys)
    assert len({c.canonical_key() for c in ensemble.shapes}) == len(ensemble.shapes)


def test_shape_ensemble_never_calls_canonical_key(monkeypatch):
    graphs = [sample_graph(LatticeBox(2, L), 0.35, derive_seed(44, L)) for L in (5, 8, 13)]
    calls = []
    key = Cluster.canonical_key

    def counting(self):
        calls.append(1)
        return key(self)

    monkeypatch.setattr(Cluster, "canonical_key", counting)
    ensemble = ShapeEnsemble(graphs)
    assert len(ensemble.shapes) > 1
    assert len(calls) == 0


def test_shape_ensemble_builds_one_cluster_per_distinct_key(monkeypatch):
    graphs = [sample_graph(LatticeBox(1, 100_000), 0.3, derive_seed(7, i)) for i in range(2)]
    built = []
    init = Cluster.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Cluster, "__init__", counting)
    ensemble = ShapeEnsemble(graphs)
    n_built = len(built)
    keys = {c.canonical_key() for g in graphs for c in _reference_clusters(g)}
    assert ensemble.n_clusters > 100_000
    assert n_built <= len(keys) == len(ensemble.shapes)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=12),
                  st.floats(min_value=0.0, max_value=1.0),
                  st.integers(min_value=0, max_value=2**32)),
        min_size=1, max_size=4,
    ),
)
@example(2, [(5, 0.3, 1), (8, 0.3, 2), (1, 0.5, 3)])
@example(3, [(2, 0.0, 4), (2, 1.0, 5)])
@example(3, [(2, 0.3, 1), (4, 0.3, 2)])
@example(2, [(3, 1.0, 1), (3, 0.0, 2)])
@example(2, [(12, 0.8, 3), (5, 0.3, 1)])
@example(2, [(4, 0.0, 1), (3, 0.0, 2)])
def test_shape_ensemble_property_matches_first_seen_canonical_grouping(d, realizations):
    """Mixed box sides in one ensemble, p from 0 to 1: groups of one
    member, isolated vertices, and one shape in boxes of different sides
    all reach the bulk key.  A z-pair of the side-2 box and a y-pair of
    the side-4 box both have vertex offset 4 and edge [0 1], but their
    shifted coordinates differ, so they are different shapes.

    The isolated shape is keyed apart from the others, so its slot is
    checked where it is first seen in a later realization (p = 1, then
    p = 0), after a giant cluster 0 (p = 0.8, as in the d2_giant
    workload), and as the only shape (p = 0 alone)."""
    graphs = [sample_graph(LatticeBox(d, L), p, seed) for L, p, seed in realizations]
    ensemble = ShapeEnsemble(graphs)
    cs = [c for g in graphs for c in _reference_clusters(g)]
    want = _first_seen_ids(c.canonical_key() for c in cs)
    assert ensemble.order.tolist() == want
    assert ensemble.counts.tolist() == np.bincount(want).tolist()
    assert ensemble.n_clusters == len(cs)
    assert ensemble.total_vertices == sum(g.box.n_vertices for g in graphs)
    assert len(ensemble.shapes) == max(want) + 1
    for sid, rep in enumerate(ensemble.shapes):
        _assert_same_cluster(rep, cs[want.index(sid)])
    isolated = [i for i, c in enumerate(cs) if c.n_vertices == 1]
    if isolated:
        iso = want[isolated[0]]
        _assert_same_cluster(ensemble.shapes[iso], cs[isolated[0]])
        assert ensemble.counts[iso] == len(isolated)
    if len(isolated) == len(cs):
        assert ensemble.counts.tolist() == [ensemble.n_clusters]


def _assert_simple(c):
    """No edge joins a vertex to itself and no unordered pair twice."""
    lo, hi = np.sort(c.edges, axis=1).T
    assert (lo < hi).all()
    assert np.unique(lo * c.n_vertices + hi).size == c.n_edges


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=40 // d ** 2 + 4),
                      st.floats(min_value=0.0, max_value=1.0),
                      st.integers(min_value=0, max_value=2**32)),
            min_size=1, max_size=3,
        ))),
)
@example((2, [(12, 1.0, 1), (5, 0.5, 2)]))
def test_clusters_and_shapes_are_simple_graphs(case):
    """The precondition of ``kernels.best_cheeger_cut``: every cluster of
    ``clusters()`` and every ``ShapeEnsemble`` representative is a
    simple graph, at any d, box side and p."""
    d, realizations = case
    graphs = [sample_graph(LatticeBox(d, L), p, seed) for L, p, seed in realizations]
    for g in graphs:
        for c in clusters(g):
            _assert_simple(c)
    for c in ShapeEnsemble(graphs).shapes:
        _assert_simple(c)


def test_cluster_builders_make_simple_graphs():
    for d in (1, 2, 3):
        _assert_simple(make_linear_cluster(7, d))
        _assert_simple(make_cubic_cluster(3, d))


def test_shape_ensemble_traced_peak_on_long_paths():
    """The shape table of the d1_paths workload's graphs: 280k clusters,
    70% of them isolated vertices, which get no key columns.  Keying
    every cluster peaked at 33.3 MB of traced allocations, keying only
    the clusters of two or more vertices at 17.9 MB, and with int32 key
    columns and rows compared in place it peaks at 11.8 MB.  The bound
    leaves 1.7 MB of margin; joining the key columns with np.concatenate,
    which holds every part beside the joined copy, peaks at 15.5 MB."""
    graphs = [sample_graph(LatticeBox(1, 100_000), 0.3, derive_seed(7, i)) for i in range(4)]
    tracemalloc.start()
    try:
        ensemble = ShapeEnsemble(graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ensemble.n_clusters == 280_061 and len(ensemble.shapes) == 10
    assert peak <= 13.5e6, f"traced peak {peak / 1e6:.1f} MB"
