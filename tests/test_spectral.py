"""Spectral computations: dense spectra, inertia counts, empirical IDS."""

import json
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import perclap
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
from perclap import config_from_dict, isoperimetry, kernels, lattice, run, runner, spectral
from perclap.cli import main
from perclap.isoperimetry import (
    EXHAUSTIVE_CUTOFF,
    REFLECTION_MAX_VERTICES,
    REFLECTION_TOL,
    report_cluster,
)
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS, BoundaryCondition, assemble
from perclap.lattice import ShapeEnsemble
from perclap.spectral import (
    DENSE_THRESHOLD,
    chain_holds,
    cluster_eigenvalues,
    cluster_spectra,
    range_violations,
    reflection_deviation,
    summarize,
    zero_tolerance,
)

from conftest import reference_laplacian

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


def test_empirical_ids_atom_counted_at_exact_grid_energy():
    # a single path of 2 in d=1: Neumann spectrum {0, 2}
    g = sample_graph(LatticeBox(1, 2), 1.0, 0)
    ids = empirical_ids([g], N, grid=np.array([0.0, 2.0, 4.0]))
    assert ids.grid_values.tolist() == [0.5, 1.0, 1.0]


@pytest.fixture(scope="module")
def giant_clusters():
    """Largest clusters of a d=2 and a d=3 supercritical box, 2-4k vertices
    each, with their dense spectra per boundary condition."""
    out = []
    for d, L, p, seed in ((2, 50, 0.6, 1), (3, 14, 0.35, 0)):
        g = sample_graph(LatticeBox(d, L), p, derive_seed(seed, 0))
        c = max(clusters(g), key=lambda c: c.n_vertices)
        assert DENSE_THRESHOLD < c.n_vertices <= 4096
        spectra = {bc: np.linalg.eigvalsh(reference_laplacian(c, bc.value).astype(np.float64))
                   for bc in ALL_BCS}
        out.append((c, spectra))
    return out


def test_large_cluster_inertia_path_matches_dense_ids(giant_clusters):
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

    # giant d=2 and d=3 clusters: random energies, eigenvalues +- 1e-7 and
    # every integer energy, where eigenvalues of high multiplicity sit
    rng = np.random.default_rng(8)
    for c, spectra in giant_clusters:
        width = 4 * c.d
        for bc, eigs in spectra.items():
            op = assemble(c, bc)
            assert not isinstance(op.matrix, np.ndarray)  # sparse above the threshold
            near = rng.choice(eigs, 4)
            energies = np.concatenate((rng.uniform(0.0, width, 6), near - 1e-7, near + 1e-7,
                                       np.arange(width + 1.0)))
            want = np.searchsorted(eigs, energies + 1e-12 * width, side="right")
            got = [count_leq(op, float(E)) for E in energies]
            assert got == want.tolist(), (c.d, bc)


def _dense_ldl_count(matrix, E, width):
    """Reference inertia count: negative eigenvalues of the block factor of
    a dense LDL^T, moved up by 1e-12 * width while a block is near 0."""
    while True:
        _, dmat, _ = scipy.linalg.ldl(matrix.astype(np.float64) - E * np.eye(matrix.shape[0]))
        blocks = np.linalg.eigvalsh(dmat)
        if np.abs(blocks).min() >= 1e-12 * width:
            return int(np.count_nonzero(blocks < 0.0))
        E += 1e-12 * width


def test_count_leq_dense_fallback_at_degenerate_energy(giant_clusters, monkeypatch, caplog):
    """Neumann E = 1 and 2 are eigenvalues of high multiplicity on a cluster
    with degree-1 vertices; unpivoted sparse LU cannot count them at the
    shifted energy E + 1e-12 * 4d either, so that energy is counted from the
    operator's dense spectrum, which is computed once for both energies."""
    c, spectra = giant_clusters[0]
    assert (c.degrees == 1).any()
    eigs = spectra[N]
    width = 4 * c.d
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solves.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    op = assemble(c, N)
    with caplog.at_level("WARNING", logger="perclap.spectral"):
        got = {E: count_leq(op, E) for E in (1.0, 2.0)}
    monkeypatch.undo()
    assert solves == [c.n_vertices]
    dense = [r.getMessage() for r in caplog.records if "dense spectrum" in r.getMessage()]
    assert dense == [f"inertia count at E={E + 1e-12 * width:.17g} broke down, "
                     "counting the dense spectrum" for E in (1.0, 2.0)]
    for E, count in got.items():
        assert np.count_nonzero(np.abs(eigs - E) < 1e-8) > 10
        shifted = E + 1e-12 * width  # the fallback counts the shifted energy
        assert count == int(np.searchsorted(eigs, shifted, side="right"))
        assert count == _dense_ldl_count(reference_laplacian(c, "N"), shifted, width)


def test_sparse_lu_never_factors_an_integer_shift(monkeypatch):
    """An integer shift gives exact zero pivots (pseudo-Dirichlet at E = 2d
    has an all-zero diagonal), on which SuperLU's unpivoted path reads
    uninitialized memory; such counts go to E + 1e-12 * 4d unfactorized."""
    import scipy.sparse.linalg

    diagonals = []
    splu = scipy.sparse.linalg.splu

    def recording(a, **kwargs):
        diagonals.append(a.diagonal())
        return splu(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    op = assemble(make_cubic_cluster(3, 2), DT)  # 3x3 square, d=2
    eigs = eigenvalues(op)
    for E in (0.0, 1.0, 2.0, 4.0, 7.0, 8.0):
        assert count_leq(op, E) == int(np.searchsorted(eigs, E + 8e-12, side="right"))
    assert diagonals
    assert not any(float(x).is_integer() for diag in diagonals for x in diag)


def test_count_leq_retries_are_bounded(tmp_path, monkeypatch):
    """A sparse factorization that always breaks down costs each energy one
    shifted call, two count_leq calls in all, and the count then comes from
    the dense spectrum; the CLI still succeeds on a giant cluster."""
    def broken(op, E):
        return np.zeros(op.n)

    monkeypatch.setattr(spectral, "_lu_pivots", broken)
    calls = Counter()
    _count_calls(monkeypatch, spectral.count_leq, calls)
    op = assemble(make_cubic_cluster(2, 2), N)  # spectrum {0, 2, 2, 4}
    for E, want in ((0.0, 1), (0.5, 1), (2.0, 3), (3.5, 3), (4.0, 4)):
        calls.clear()
        assert spectral.count_leq(op, E) == want
        assert calls["count_leq"] == 2
        assert want == int(np.searchsorted(eigenvalues(op), E + 8e-12, side="right"))

    cfg = tmp_path / "giant.json"
    cfg.write_text(json.dumps({"d": 2, "L": 48, "p": 0.6, "seed": 1, "task": "ids",
                               "boundary_conditions": ["N"], "grid_points": 2,
                               "grid_refine": 0}))
    out = tmp_path / "out"
    assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
    graph = sample_graph(LatticeBox(2, 48), 0.6, derive_seed(1, 0))
    assert max(c.n_vertices for c in clusters(graph)) > DENSE_THRESHOLD
    zero_modes = len(clusters(graph)) / graph.box.n_vertices
    assert (out / "ids_N.csv").read_text() == f"E,N\n0,{zero_modes:.17g}\n8,1\n"


def test_zero_mode_density_equals_cluster_density(small_ensemble):
    # a supercritical box: one of its 93 clusters is above the dense threshold
    giant = sample_graph(LatticeBox(2, 48), 0.6, derive_seed(1, 0))
    assert max(c.n_vertices for c in clusters(giant)) > DENSE_THRESHOLD
    for g in list(small_ensemble) + [giant]:
        rho = zero_mode_density([g])
        n_clusters = len(clusters(g))
        assert rho == pytest.approx(n_clusters / g.box.n_vertices, abs=1e-15)
        assert zero_mode_density(ShapeEnsemble([g])) == rho


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


def _count_calls(monkeypatch, fn, calls):
    """Count calls of ``fn`` through every module binding of it."""
    def counting(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    for mod in (perclap, kernels, lattice, spectral, isoperimetry, runner):
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, counting)


def test_run_all_solves_each_shape_once(tmp_path, monkeypatch):
    """ids, verify, mc tails and the FK ratios share one decomposition per
    realization, one spectrum per (shape, bc) and one Cheeger cut search
    per shape of 2 to EXHAUSTIVE_CUTOFF vertices."""
    cfg = config_from_dict({
        "d": 2, "L": 16, "p": 0.35, "realizations": 3, "seed": 5, "task": "all",
        "grid_points": 64, "grid_refine": 8, "tail_mode": "mc",
        "tail_window": [0.5, 4.0], "decay_samples": 2000,
    })
    shapes = {
        c.canonical_key(): c.n_vertices
        for i in range(cfg.realizations)
        for c in clusters(sample_graph(LatticeBox(2, 16), 0.35, derive_seed(5, i)))
        if c.n_vertices > 1
    }
    solves = Counter()
    solve = spectral.eigenvalues

    def counting(op):
        solves[(op.bc, op.cluster.canonical_key())] += 1
        return solve(op)

    calls = Counter()
    _count_calls(monkeypatch, lattice.clusters, calls)
    _count_calls(monkeypatch, kernels.best_cheeger_cut, calls)
    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(spectral, "eigenvalues", counting)
    assert run(cfg, tmp_path)["status"] == "ok"
    assert set(solves) == {(bc, key) for bc in ALL_BCS for key in shapes}
    assert set(solves.values()) == {1}
    assert calls["clusters"] == cfg.realizations
    assert calls["best_cheeger_cut"] == sum(
        1 for n in shapes.values() if n <= EXHAUSTIVE_CUTOFF)


def _per_cluster_ids_pool(graphs, bc):
    """Reference pool: every cluster diagonalized on its own."""
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(reference_laplacian(c, bc.value).astype(np.float64))
        for g in graphs for c in clusters(g)
    ]))


def test_shape_dedup_matches_per_cluster_spectra(small_ensemble):
    """Pooling each shape's spectrum by multiplicity gives the same IDS
    pool as diagonalizing every cluster of every realization."""
    recurring = [sample_graph(LatticeBox(2, 8), 0.3, derive_seed(83, i)) for i in range(5)]
    keys = [{c.canonical_key() for c in clusters(g) if c.n_vertices > 1} for g in recurring]
    assert set.intersection(*keys)  # a shape recurs in every realization
    for graphs in [[g] for g in small_ensemble] + [recurring]:
        ensemble = ShapeEnsemble(graphs)
        n_clusters = sum(len(clusters(g)) for g in graphs)
        total = sum(g.box.n_vertices for g in graphs)
        assert (ensemble.n_clusters, ensemble.total_vertices) == (n_clusters, total)
        assert int(ensemble.counts.sum()) == n_clusters == ensemble.order.size
        for bc in ALL_BCS:
            ids = empirical_ids(graphs, bc, cache={})
            assert (ids.n_clusters, ids.total_vertices) == (n_clusters, total)
            want = _per_cluster_ids_pool(graphs, bc)
            assert ids.eigenvalues.shape == want.shape
            assert np.allclose(ids.eigenvalues, want, rtol=0.0, atol=1e-12)


def _fmt(x):
    return format(float(x), ".17g")


def _per_cluster_verify(cfg):
    """report.csv and verify_summary.json from a loop over every cluster."""
    grid = default_grid(cfg.d, cfg.grid_points, cfg.grid_refine)
    tol = zero_tolerance(cfg.d)
    rows = ["size,e1_N,e1_Dt,e1_D,h_ch,cheeger_margin,crude_margin,fk_ratio"]
    violations = {"reflection": 0, "chain": 0, "cheeger": 0, "crude": 0, "range": 0}
    checked, fk_min = 0, None
    for i in range(cfg.realizations):
        g = sample_graph(LatticeBox(cfg.d, cfg.L), cfg.p, derive_seed(cfg.seed, i))
        for c in clusters(g):
            spectra = cluster_spectra(c, {})
            checked += 1
            violations["range"] += range_violations(spectra, cfg.d, tol)
            if (c.n_vertices <= REFLECTION_MAX_VERTICES
                    and reflection_deviation(spectra, cfg.d) > REFLECTION_TOL):
                violations["reflection"] += 1
            violations["chain"] += not chain_holds(spectra, grid)
            if c.n_vertices < 2:
                continue
            rep = report_cluster(c, spectra)
            violations["crude"] += rep.crude_violated
            violations["cheeger"] += rep.cheeger_violated
            fk_min = rep.fk_ratio if fk_min is None else min(fk_min, rep.fk_ratio)
            h = "" if rep.h_cheeger is None else _fmt(rep.h_cheeger)
            margin = "" if rep.cheeger_margin is None else _fmt(rep.cheeger_margin)
            rows.append(
                f"{rep.n_vertices},{_fmt(rep.e1_neumann)},{_fmt(rep.e1_pseudo_dirichlet)},"
                f"{_fmt(rep.e1_dirichlet)},{h},{margin},{_fmt(rep.crude_margin)},"
                f"{_fmt(rep.fk_ratio)}"
            )
    summary = {"clusters_checked": checked, "violations": violations, "fk_estimate": fk_min}
    return ("\n".join(rows) + "\n").encode(), (
        json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("d, L, p, realizations", [
    (1, 300, 0.4, 3), (2, 12, 0.35, 3), (3, 6, 0.2, 2), (2, 10, 0.05, 2),
])
def test_verify_per_shape_matches_per_cluster_loop(tmp_path, d, L, p, realizations):
    cfg = config_from_dict({"d": d, "L": L, "p": p, "realizations": realizations,
                            "seed": 17, "task": "verify", "grid_points": 64,
                            "grid_refine": 8})
    assert run(cfg, tmp_path)["status"] == "ok"
    report, summary = _per_cluster_verify(cfg)
    assert (tmp_path / "report.csv").read_bytes() == report
    assert (tmp_path / "verify_summary.json").read_bytes() == summary


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
