"""Spectral computations: dense spectra, inertia counts, empirical IDS."""

import math
from collections import Counter

import numpy as np
import pytest

from perclap import (
    DomainError,
    LatticeBox,
    clusters,
    count_leq,
    default_grid,
    empirical_ids,
    eigenvalues,
    make_cubic_cluster,
    make_linear_cluster,
    sample_graph,
    zero_mode_density,
)
from perclap import config_from_dict, run, spectral
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS, BoundaryCondition, assemble
from perclap.spectral import (
    DENSE_THRESHOLD,
    cluster_eigenvalues,
    summarize,
    zero_tolerance,
)

N, DT, D = ALL_BCS


def test_small_closed_form_spectra():
    assert np.allclose(eigenvalues(assemble(make_linear_cluster(3, 1), N)),
                       [0.0, 1.0, 3.0], atol=1e-12)
    assert np.allclose(eigenvalues(assemble(make_cubic_cluster(2, 2), N)),
                       [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    assert np.allclose(eigenvalues(assemble(make_cubic_cluster(2, 2), D)),
                       [4.0, 6.0, 6.0, 8.0], atol=1e-12)


def test_path_spectra_closed_form():
    """Path eigenvalues 2 - 2cos(pi k/n) (N, k=0..n-1) and
    2 - 2cos(pi k/(n+1)) (Dt in d=1, k=1..n)."""
    for n in (2, 3, 5, 17, 64):
        c = make_linear_cluster(n, 1)
        want_n = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
        got_n = eigenvalues(assemble(c, N))
        assert np.allclose(got_n, want_n, atol=1e-10)
        want_dt = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        got_dt = eigenvalues(assemble(c, DT))
        assert np.allclose(got_dt, want_dt, atol=1e-10)


def test_isolated_vertex_spectrum():
    g = sample_graph(LatticeBox(2, 3), 0.0, 0)
    for c in clusters(g):
        assert cluster_eigenvalues(c, D, {}).tolist() == [8.0]
        assert cluster_eigenvalues(c, DT, {}).tolist() == [4.0]
        assert cluster_eigenvalues(c, N, {}).tolist() == [0.0]


def test_dense_threshold_enforced():
    c = make_linear_cluster(DENSE_THRESHOLD + 1, 1)
    with pytest.raises(DomainError):
        eigenvalues(assemble(c, N))


def test_count_leq_matches_dense():
    rng = np.random.default_rng(2)
    g = sample_graph(LatticeBox(2, 12), 0.5, derive_seed(41, 0))
    for c in clusters(g):
        if c.n_vertices < 2:
            continue
        for bc in ALL_BCS:
            op = assemble(c, bc)
            eigs = eigenvalues(op)
            for E in rng.uniform(-0.5, 8.5, size=6):
                want = int(np.searchsorted(eigs, E, side="right"))
                got = count_leq(op, float(E))
                # an inertia count may differ if E sits within fp error
                # of an eigenvalue; exclude that knife edge
                if np.min(np.abs(eigs - E)) > 1e-9:
                    assert got == want


def test_count_leq_on_eigenvalue_counts_full_atom():
    """Shifting exactly onto an eigenvalue retries upward, so the atom
    lands on the counted side."""
    op = assemble(make_cubic_cluster(2, 2), N)  # spectrum {0, 2, 2, 4}
    assert count_leq(op, 2.0) == 3
    assert count_leq(op, 0.0) == 1
    assert count_leq(op, 4.0) == 4
    assert count_leq(op, 1.999999) == 1


def test_default_grid_shape():
    grid = default_grid(2)
    assert grid[0] == 0.0 and grid[-1] == 8.0
    assert np.all(np.diff(grid) > 0)
    assert grid.min() == 0.0
    # geometric refinement reaches well below the uniform spacing
    assert grid[grid > 0].min() < 1e-10


def test_empirical_ids_monotone_and_normalized(small_ensemble):
    for g in small_ensemble[:3]:
        for bc in ALL_BCS:
            ids = empirical_ids([g], bc)
            assert ids.total_vertices == g.box.n_vertices
            assert np.all(np.diff(ids.grid_values) >= 0)
            assert ids.grid_values[0] >= 0
            assert abs(ids.grid_values[-1] - 1.0) < 1e-12
            assert ids.eigenvalues.size == g.box.n_vertices


def test_empirical_ids_reflection_symmetry(small_ensemble):
    """Pooled multisets: spec(D) = 4d - spec(N) reversed; Dt self-symmetric."""
    for g in small_ensemble[:3]:
        width = 4.0 * g.box.d
        e_n = empirical_ids([g], N).eigenvalues
        e_d = empirical_ids([g], D).eigenvalues
        e_dt = empirical_ids([g], DT).eigenvalues
        assert np.allclose(e_d, width - e_n[::-1], atol=1e-9)
        assert np.allclose(e_dt, width - e_dt[::-1], atol=1e-9)


def test_empirical_ids_chain_ordering(small_ensemble):
    for g in small_ensemble[:3]:
        v = {bc: empirical_ids([g], bc).grid_values for bc in ALL_BCS}
        assert np.all(v[N] >= v[DT] - 1e-15)
        assert np.all(v[DT] >= v[D] - 1e-15)


def test_empirical_ids_thread_count_invariance():
    graphs = [sample_graph(LatticeBox(2, 10), 0.4, derive_seed(51, i))
              for i in range(6)]
    a = empirical_ids(graphs, N, threads=1)
    b = empirical_ids(graphs, N, threads=4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.grid_values, b.grid_values)


def test_empirical_ids_atom_counted_at_exact_grid_energy():
    # a single path of 2 in d=1: Neumann spectrum {0, 2}
    g = sample_graph(LatticeBox(1, 2), 1.0, 0)
    ids = empirical_ids([g], N, grid=np.array([0.0, 2.0, 4.0]))
    assert ids.grid_values.tolist() == [0.5, 1.0, 1.0]


def test_large_cluster_inertia_path_matches_dense_ids():
    """A cluster above the dense threshold is counted via inertia; the
    result must agree with brute-force dense diagonalization."""
    n = DENSE_THRESHOLD + 10
    g = sample_graph(LatticeBox(1, n), 1.0, 0)  # one path cluster of n
    grid = np.linspace(0.0, 4.0, 17)
    ids = empirical_ids([g], N, grid=grid)
    want_eigs = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
    want = np.searchsorted(want_eigs, grid + 1e-12 * 4, side="right") / n
    assert np.allclose(ids.grid_values, want, atol=1e-12)
    assert ids.eigenvalues.size == 0  # nothing pooled densely


def test_zero_mode_density_equals_cluster_density(small_ensemble):
    for g in small_ensemble:
        rho = zero_mode_density([g])
        n_clusters = len(clusters(g))
        assert rho == pytest.approx(n_clusters / g.box.n_vertices, abs=1e-15)


def test_summarize_gap_selection():
    s = summarize(make_linear_cluster(3, 1), N)
    assert s.lowest_nonzero == pytest.approx(1.0, abs=1e-12)
    s2 = summarize(make_linear_cluster(3, 1), DT)
    assert s2.lowest_nonzero == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)


def test_spectrum_cache_shared_across_translates():
    g = sample_graph(LatticeBox(1, 5000), 0.3, derive_seed(61, 0))
    cache = {}
    for c in clusters(g):
        for bc in ALL_BCS:
            cluster_eigenvalues(c, bc, cache)
    shapes = {c.canonical_key() for c in clusters(g) if c.n_vertices > 1}
    assert len(cache) == 3 * len(shapes)


def test_run_all_solves_each_shape_once(tmp_path, monkeypatch):
    """ids, verify, mc tails and the FK ratios share one spectrum cache."""
    cfg = config_from_dict({
        "d": 2, "L": 16, "p": 0.35, "realizations": 3, "seed": 5, "task": "all",
        "grid_points": 64, "grid_refine": 8, "tail_mode": "mc",
        "tail_window": [0.5, 4.0], "decay_samples": 2000,
    })
    solves = Counter()
    solve = spectral.eigenvalues

    def counting(op):
        solves[(op.bc, op.cluster.canonical_key())] += 1
        return solve(op)

    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(spectral, "eigenvalues", counting)
    assert run(cfg, tmp_path)["status"] == "ok"
    shapes = {
        c.canonical_key()
        for i in range(cfg.realizations)
        for c in clusters(sample_graph(LatticeBox(2, 16), 0.35, derive_seed(5, i)))
        if c.n_vertices > 1
    }
    assert set(solves) == {(bc, key) for bc in ALL_BCS for key in shapes}
    assert set(solves.values()) == {1}


def test_volume_convergence_1d():
    """kappa_hat(L) approaches 1 - p as the box grows."""
    p = 0.3
    devs = []
    for L in (100, 10_000):
        g = sample_graph(LatticeBox(1, L), p, derive_seed(71, L))
        devs.append(abs(len(clusters(g)) / L - (1 - p)))
    assert devs[1] < 3 * math.sqrt(p * (1 - p) / 10_000) + 1e-4


def test_empirical_ids_rejects_empty_and_mixed_dimension():
    with pytest.raises(DomainError):
        empirical_ids([], N)
    g1 = sample_graph(LatticeBox(1, 8), 0.5, 0)
    g2 = sample_graph(LatticeBox(2, 4), 0.5, 0)
    with pytest.raises(DomainError):
        empirical_ids([g1, g2], N)
