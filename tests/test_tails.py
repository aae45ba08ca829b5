"""Analytic 1d series, tail-exponent fits, and cluster-size decay."""

import math
import tracemalloc

import numpy as np
import pytest

from perclap import (
    DomainError,
    InsufficientDataError,
    LatticeBox,
    PrecisionError,
    cluster_size_decay,
    empirical_ids,
    eigenvalues,
    make_linear_cluster,
    sample_graph,
)
from perclap.kernels import component_roots, derive_seed, edge_open_mask
from perclap.laplacian import ALL_BCS, DENSE_THRESHOLD, assemble
from perclap.lattice import ShapeEnsemble
from perclap.runner import expected_slope
from perclap.spectral import default_grid
from perclap import kernels, tails
from perclap.tails import (
    TAIL_POINTS,
    _path_counts,
    analytic_tail_fit,
    fit_tail,
    ids_1d_series_many,
    origin_cluster_samples,
    series_truncation,
    weight_cutoff,
)

N, DT, D = ALL_BCS


def test_path_counts_match_dense_spectra():
    """Closed-form counts vs brute-force path diagonalization, n <= 64."""
    ns = np.arange(1, 65, dtype=np.float64)
    for energy in (1e-6, 0.01, 0.5, 1.0, 2.0, 3.3, 4.0):
        for bc in (N, DT):
            want = []
            for n in range(1, 65):
                if n == 1:
                    eigs = np.array([0.0 if bc is N else 2.0])
                else:
                    eigs = eigenvalues(assemble(make_linear_cluster(n, 1), bc))
                nonzero = eigs[eigs > 1e-12]
                want.append(int(np.sum(nonzero <= energy + 1e-9)))
            got = _path_counts(energy, ns, bc)
            assert got.tolist() == want, (energy, bc)


def test_series_total_mass_identities():
    """At E = 4 the series counts every nonzero eigenvalue per vertex:
    1 - 2(1-p)/... for N it is 1 - kappa = p... exactly p for N and 1 for Dt."""
    p = 0.3
    assert ids_1d_series_many(p, [4.0], N)[0] == pytest.approx(p, abs=1e-12)
    assert ids_1d_series_many(p, [4.0], DT)[0] == pytest.approx(1.0, abs=1e-12)


def test_series_monotone_in_energy():
    p = 0.4
    es = np.geomspace(1e-6, 4.0, 60)
    for bc in (N, DT):
        vals = ids_1d_series_many(p, es, bc)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals >= 0)


def test_series_matches_long_box_expectation():
    """The series equals the exact per-vertex count computed from the
    realized cluster-size histogram of a long 1d box, up to MC noise."""
    p, L = 0.3, 10**5
    g = sample_graph(LatticeBox(1, L), p, derive_seed(91, 0))
    from perclap import clusters

    hist = np.bincount([c.n_vertices for c in clusters(g)])
    ns = np.arange(1, hist.size, dtype=np.float64)
    for bc in (N, DT):
        energies = [0.5, 1.0, 2.5]
        for E, ana in zip(energies, ids_1d_series_many(p, energies, bc).tolist()):
            emp = float(np.dot(hist[1:], _path_counts(E, ns, bc))) / L
            assert abs(emp - ana) < 4.0 * math.sqrt(ana * (1 - ana) / L) + 1e-4


def test_series_domain_and_precision_guards(monkeypatch):
    with pytest.raises(DomainError):
        ids_1d_series_many(1.5, [1.0], N)
    with pytest.raises(DomainError):
        ids_1d_series_many(0.3, [5.0], N)
    with pytest.raises(DomainError):
        ids_1d_series_many(0.3, [1.0], D)
    monkeypatch.setattr(tails, "series_truncation", lambda p, e: 5)
    with pytest.raises(PrecisionError):
        ids_1d_series_many(0.3, [1.0], N)  # weight tail too heavy


def _reference_series(p, energy, bc):
    """The per-energy series body, the oracle for ``ids_1d_series_many``."""
    n_max = series_truncation(p, energy)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    weights = (1.0 - p) ** 2 * p ** (n - 1.0)
    return float(np.dot(weights, _path_counts(energy, n, bc)))


D1_TAIL_WINDOW = np.geomspace(1e-8, 1e-3, 96)  # the d1_paths analytic tail window
D1_GRID = default_grid(1)[default_grid(1) > 0]  # as test_07 evaluates it


@pytest.mark.parametrize("p, energies, side", [
    (0.1, D1_TAIL_WINDOW, "above"),
    (0.3, D1_TAIL_WINDOW, "across"),
    (0.6, D1_TAIL_WINDOW, "across"),
    (0.3, D1_GRID, "across"),
    (0.9, D1_TAIL_WINDOW, "across"),
    (0.99, D1_TAIL_WINDOW, "across"),
    (0.999, D1_TAIL_WINDOW, "below"),
    (0.999, np.geomspace(1e-10, 1e-6, 12), "across"),
], ids=["window-0.1", "window-0.3", "window-0.6", "grid-0.3",
        "window-0.9", "window-0.99", "window-0.999", "deep-0.999"])
def test_series_shared_weights_equal_per_energy_body(p, energies, side):
    """Weights computed once at the largest truncation, and only up to
    the weight cutoff, give the same bytes as the per-energy body.
    ``side`` says where the energies' truncations lie against the
    cutoff: all above it, on both sides, or all below it (the prefix is
    then the whole series)."""
    m = np.array([series_truncation(p, float(e)) for e in energies])
    k = weight_cutoff(p)
    assert side == {(True, False): "above", (True, True): "across",
                    (False, True): "below"}[(m > k).any(), (m < k).any()]
    for bc in (N, DT):
        want = np.array([_reference_series(p, float(e), bc) for e in energies])
        got = ids_1d_series_many(p, energies, bc)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), bc
        assert ids_1d_series_many(p, energies[-1:], bc).tobytes() == want[-1:].tobytes()


def test_series_of_no_energies_is_empty():
    for bc in (N, DT):
        got = ids_1d_series_many(0.3, [], bc)
        assert got.dtype == np.float64 and got.shape == (0,)


def test_weight_cutoff_is_past_the_last_nonzero_weight():
    """Every weight from the cutoff's index on is +0.0, and the last
    nonzero one lies within 2 ln(1-p) / ln p + 1 / |ln p| + 2 lengths
    of it: the bound ignores the (1-p)^2 factor and keeps one e-fold."""
    ps = np.concatenate((np.geomspace(1e-3, 0.5, 40), 1.0 - np.geomspace(1e-3, 0.5, 40)))
    for p in ps.tolist():
        k = weight_cutoff(p)
        n = np.arange(1, k + int(3 / -math.log(p)) + 50, dtype=np.float64)
        weights = (1.0 - p) ** 2 * p ** (n - 1.0)
        last = int(np.flatnonzero(weights)[-1])  # 0-based: path length last + 1
        assert not weights[k - 1:].any(), p
        assert k - 1 - last <= (2 * math.log(1.0 - p) - 1.0) / math.log(p) + 2, p


def test_series_prefix_falls_back_to_full_length(monkeypatch):
    """A cutoff whose last weight is not +0.0 (here the 1e-16 weight
    truncation) is refused at run time: the series computes every
    weight, with the same bytes as the per-energy body."""
    for p in (0.3, 0.9):
        monkeypatch.setattr(tails, "weight_cutoff",
                            lambda q: math.ceil(math.log(1e-16) / math.log(q)))
        got = {bc: ids_1d_series_many(p, D1_TAIL_WINDOW, bc) for bc in (N, DT)}
        monkeypatch.undo()
        for bc in (N, DT):
            want = np.array([_reference_series(p, float(e), bc) for e in D1_TAIL_WINDOW])
            assert got[bc].tobytes() == want.tobytes(), (p, bc)


def test_series_truncation_covers_both_tails():
    n = series_truncation(0.3, 1e-4)
    assert 0.3**n < 1e-16
    assert n >= 4.0 * math.pi / math.sqrt(1e-4)


def test_analytic_tail_fit_slope_window_stability():
    """Lower-edge slope is stable (< 0.03 drift) under window changes."""
    p = 0.3
    slopes = [
        analytic_tail_fit(p, N, w).slope
        for w in ((1e-8, 1e-3), (1e-7, 1e-3), (1e-8, 1e-4))
    ]
    assert max(slopes) - min(slopes) < 0.03
    for s in slopes:
        assert -0.55 < s < -0.45


def test_analytic_tail_fit_upper_edge_identities():
    p = 0.3
    w = (1e-8, 1e-3)
    assert analytic_tail_fit(p, D, w, edge="upper").slope == \
        analytic_tail_fit(p, N, w, edge="lower").slope
    assert analytic_tail_fit(p, DT, w, edge="upper").slope == \
        analytic_tail_fit(p, DT, w, edge="lower").slope
    # the series has no Dirichlet lower edge, so neither it nor its
    # mirror, the Neumann upper edge, is fitted
    for bc, edge in ((N, "upper"), (D, "lower")):
        with pytest.raises(DomainError):
            analytic_tail_fit(p, bc, w, edge=edge)
    with pytest.raises(DomainError):
        analytic_tail_fit(p, N, w, edge="sideways")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_expected_slope_pairs_each_upper_edge_with_its_mirror(d):
    """-1/2 at the Neumann lower and the Dirichlet upper edge, -d/2 at
    every other edge."""
    want = {("N", "lower"): -0.5, ("D", "upper"): -0.5}
    for bc in ("N", "Dt", "D"):
        for edge in ("lower", "upper"):
            assert expected_slope(bc, edge, d) == want.get((bc, edge), -d / 2), (bc, edge)


def test_reflected_analytic_fits_evaluate_each_series_once():
    p, w = 0.3, (1e-6, 1e-3)
    tails._series_mass.cache_clear()
    fits = [analytic_tail_fit(p, bc, w, edge=edge)
            for bc, edge in ((N, "lower"), (DT, "lower"), (D, "upper"), (DT, "upper"))]
    info = tails._series_mass.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert fits[2].slope == fits[0].slope and fits[3].slope == fits[1].slope
    for bc in (N, DT):
        mass = tails._series_mass(p, *w, bc)
        assert not mass.flags.writeable
        assert np.array_equal(mass, ids_1d_series_many(p, np.geomspace(*w, TAIL_POINTS), bc))


def test_fit_tail_on_empirical_ids():
    """The empirical double-log fit runs end to end on reachable windows.

    The edge mass decays like exp(-c/sqrt(E)), so a Monte Carlo sample
    only populates the pre-asymptotic window; the assertions are
    correspondingly loose (the asymptotic exponent is the analytic
    fit's job).
    """
    g = sample_graph(LatticeBox(1, 200_000), 0.3, derive_seed(92, 0))
    ids = empirical_ids([g], N)
    fit = fit_tail(ids, "lower", (0.05, 1.5))
    assert fit.slope < 0
    assert fit.n_points >= 8
    up = fit_tail(empirical_ids([g], DT), "upper", (0.05, 1.5))
    assert up.slope < 0
    with pytest.raises(DomainError):
        fit_tail(ids, "diagonal", (1e-4, 1e-2))


def test_fit_tail_upper_edges_count_giant_cluster():
    """Upper-edge masses count the giant cluster too, so the reflection
    spec(D) = 4d - spec(N) holds for the fits: the Dirichlet upper tail is
    the Neumann lower one, and the pseudo-Dirichlet tails mirror each other."""
    g = sample_graph(LatticeBox(2, 48), 0.6, derive_seed(1, 0))
    ensemble = ShapeEnsemble([g])
    assert max(c.n_vertices for c in ensemble.shapes) > DENSE_THRESHOLD
    ids = {bc: empirical_ids(ensemble, bc) for bc in ALL_BCS}
    window = (1e-3, 1.0)
    n_lower, d_upper = fit_tail(ids[N], "lower", window), fit_tail(ids[D], "upper", window)
    assert n_lower.n_points == d_upper.n_points == 71
    # not exact: an atom on a grid energy g is in the N mass at g but, by
    # right-continuity, not in the D mass at gap g
    assert d_upper.slope == pytest.approx(n_lower.slope, abs=1e-3)
    dt_lower, dt_upper = fit_tail(ids[DT], "lower", window), fit_tail(ids[DT], "upper", window)
    assert dt_lower.n_points == dt_upper.n_points == 8
    assert dt_upper.slope == pytest.approx(dt_lower.slope, rel=1e-9)


@pytest.fixture(scope="module")
def d2_dirichlet_ids():
    """Dirichlet IDS of a d=2, L=24, p=0.3 ensemble (50 realizations) on a
    given grid, sharing one spectrum cache."""
    graphs = [sample_graph(LatticeBox(2, 24), 0.3, derive_seed(11, i)) for i in range(50)]
    ensemble, cache = ShapeEnsemble(graphs), {}
    return lambda grid: empirical_ids(ensemble, D, grid=grid, cache=cache)


def test_fit_tail_upper_edge_ignores_grid_endpoint(d2_dirichlet_ids):
    """The upper edge is 4d, not the last grid energy."""
    grid, window = default_grid(2), (1e-3, 1.0)
    full = fit_tail(d2_dirichlet_ids(grid), "upper", window)
    assert fit_tail(d2_dirichlet_ids(grid[:-1]), "upper", window) == full


def test_fit_tail_upper_edge_needs_grid_near_4d(d2_dirichlet_ids):
    """A grid that stops at E = 6 has no energy within 1 of the edge 8."""
    grid = default_grid(2)
    with pytest.raises(InsufficientDataError):
        fit_tail(d2_dirichlet_ids(grid[grid <= 6.0]), "upper", (1e-3, 1.0))


def test_fit_tail_insufficient_data():
    g = sample_graph(LatticeBox(1, 100), 0.3, derive_seed(93, 0))
    ids = empirical_ids([g], N)
    with pytest.raises(InsufficientDataError):
        fit_tail(ids, "lower", (1e-8, 1e-7))


def test_cluster_size_decay_1d_exact_law():
    """d=1: P(|C(0)| >= n) = (n+1-np)p^(n-1) gives zeta = -ln p."""
    fit = cluster_size_decay(1, 0.5, 60_000, seed=derive_seed(94, 0))
    assert abs(fit.zeta_hat - math.log(2.0)) / math.log(2.0) < 0.02
    assert fit.r_squared > 0.99
    assert fit.truncated == 0
    assert np.all(np.diff(fit.survival) <= 0)


def test_cluster_size_decay_guards():
    with pytest.raises(DomainError):
        cluster_size_decay(4, 0.1, 100, seed=0)
    with pytest.raises(DomainError):
        cluster_size_decay(2, 0.45, 100, seed=0)  # above the d=2 cap
    with pytest.raises(DomainError):
        cluster_size_decay(1, 0.3, 0, seed=0)


def test_cluster_size_decay_reproducible():
    a = cluster_size_decay(2, 0.2, 2_000, seed=derive_seed(95, 0))
    b = cluster_size_decay(2, 0.2, 2_000, seed=derive_seed(95, 0))
    assert a.zeta_hat == b.zeta_hat
    assert np.array_equal(a.survival, b.survival)


def _reference_origin_clusters(d, p, samples, seed, radius):
    """Per-sample loop: draw every edge of the box, label all components.
    Also returns how many of the box's 2d faces some cluster reaches, and
    how many clusters hold a cycle."""
    side = 2 * radius + 1
    box = LatticeBox(d, side)
    eu, ev = box.candidate_edges()
    origin = box.linear_index(np.full(d, radius))
    coords = box.coords(np.arange(box.n_vertices))
    wall = np.any((coords == 0) | (coords == side - 1), axis=1)
    sizes, touched, cyclic = [], [], 0
    faces = np.zeros((2, d), dtype=bool)
    for i in range(samples):
        mask = edge_open_mask(derive_seed(seed, i), box.n_edges, p)
        roots = component_roots(box.n_vertices, eu[mask], ev[mask])
        in_cluster = roots == roots[origin]
        sizes.append(int(in_cluster.sum()))
        touched.append(bool(np.any(in_cluster & wall)))
        faces |= np.stack((coords[in_cluster] == 0, coords[in_cluster] == side - 1)).any(axis=1)
        cyclic += int(np.count_nonzero(in_cluster[eu[mask]]) >= sizes[-1])
    return sizes, touched, int(faces.sum()), cyclic


@pytest.mark.parametrize("d, p, samples, radius", [
    (1, 0.5, 3000, 40),
    (2, 0.3, 3000, 16),
    (3, 0.15, 600, 8),
    (2, 0.35, 2000, 2),   # most clusters reach the wall
    (3, 0.19, 2000, 1),   # every vertex but the origin is on the wall
    (1, 0.95, 2000, 3),   # long paths out to both ends
    (2, 1e-9, 500, 16),   # every cluster is the origin alone
    (2, 0.39, 1000, 16),  # cycles: a vertex joins from two parents at once
    (3, 0.19, 1000, 4),
])
def test_origin_cluster_samples_match_per_sample_loop(d, p, samples, radius):
    seed = derive_seed(96, d)
    sizes, touched = origin_cluster_samples(d, p, samples, seed, radius)
    want_sizes, want_touched, faces, cyclic = _reference_origin_clusters(
        d, p, samples, seed, radius)
    assert sizes.tolist() == want_sizes
    assert touched.tolist() == want_touched
    if radius <= 3:
        # clusters reach every face, so the BFS looked past the wall in
        # every direction
        assert faces == 2 * d
    if radius == 2:
        assert touched.mean() > 0.5
    if p < 1e-6:
        assert sizes.tolist() == [1] * samples


@pytest.mark.parametrize("d, p, samples, radius", [
    (1, 0.5, 500, 40),
    (2, 0.3, 500, 16),
    (3, 0.15, 200, 8),
    (2, 0.3, 1, 16),
    (2, 0.35, 500, 2),    # most clusters reach the wall
    (3, 0.19, 300, 1),    # every vertex but the origin is on the wall
    (1, 0.95, 300, 40),   # long paths hold the oldest sample for many rounds
])
def test_origin_cluster_samples_independent_of_pool_size(monkeypatch, d, p, samples, radius):
    """Frontier bounds of 1, 3 and more than the sample count, and a seed
    ring of a single bound, give the same clusters as the defaults: the
    order in which samples join cannot change a result.  At the small
    bounds the ring wraps many times; a ring of 3 seeds holds new samples
    back whenever one more would wrap it past the oldest live sample."""
    seed = derive_seed(97, d)
    want_sizes, want_touched = origin_cluster_samples(d, p, samples, seed, radius)
    for bound, ring in ((1, 8), (3, 8), (samples + 7, 8), (3, 1)):
        monkeypatch.setattr(tails, "DECAY_FRONTIER", bound)
        monkeypatch.setattr(kernels, "_RING_BOUNDS", ring)
        sizes, touched = origin_cluster_samples(d, p, samples, seed, radius)
        assert np.array_equal(sizes, want_sizes), (bound, ring)
        assert np.array_equal(touched, want_touched), (bound, ring)


def test_origin_cluster_bfs_refuses_an_entry_past_63_bits():
    """An entry packs its sample offset (below the seed ring's size), its
    vertex and one bit per direction in an int64; a table whose entries
    would not fit is refused before any round runs."""
    neighbours = np.full((2, 60), -1)
    with pytest.raises(ValueError, match="overflow"):
        kernels.origin_cluster_bfs(neighbours, np.zeros((2, 60), dtype=np.uint64),
                                   0, 1, 1, 1, 0.5)


def test_origin_cluster_samples_memory_bound():
    """The BFS pool caps working memory whatever the sample count: the
    traced peak of 20k samples on the 33x33 box stays under 2 MiB."""
    seed = derive_seed(98, 2)
    origin_cluster_samples(2, 0.3, 20_000, seed, 16)   # warm-up: lazy tables
    tracemalloc.start()
    try:
        origin_cluster_samples(2, 0.3, 20_000, seed, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20

