"""Spectral computations: dense spectra, inertia counts, empirical IDS."""

import json
import logging
import math
import tracemalloc
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
)
from perclap import config_from_dict, isoperimetry, kernels, lattice, run, runner, spectral
from perclap.cli import main
from perclap.isoperimetry import EXHAUSTIVE_CUTOFF, MARGIN_TOL, REFLECTION_TOL
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS, BoundaryCondition, ShiftedMatrix, assemble
from perclap.lattice import ShapeEnsemble
from perclap.spectral import (
    DENSE_THRESHOLD,
    cluster_eigenvalues,
    giant_grid_counts,
    lowest_nonzero,
    mirror_partners,
    shape_spectra,
    zero_tolerance,
)

from conftest import (
    chain_holds,
    range_violations,
    reference_laplacian,
    reference_report,
    reflection_deviation,
    spectra_of,
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


def test_dense_threshold_enforced(monkeypatch):
    """assemble is dense-only: above the threshold it raises before any
    matrix is filled."""
    def filling(clusters, bc):
        raise AssertionError("dense_stack called above the threshold")

    monkeypatch.setattr(perclap.laplacian, "dense_stack", filling)
    c = make_linear_cluster(DENSE_THRESHOLD + 1, 1)
    for bc in ALL_BCS:
        with pytest.raises(DomainError, match=f"^cluster size {DENSE_THRESHOLD + 1} above "
                                              f"dense threshold {DENSE_THRESHOLD}$"):
            eigenvalues(assemble(c, bc))


def test_count_leq_matches_dense():
    rng = np.random.default_rng(2)
    g = sample_graph(LatticeBox(2, 12), 0.5, derive_seed(41, 0))
    for c in clusters(g):  # isolated vertices too: an empty Neumann diagonal
        matrix = ShiftedMatrix(c)  # one for the three conditions
        for bc in ALL_BCS:
            eigs = eigenvalues(assemble(c, bc))
            for E in rng.uniform(-0.5, 8.5, size=6):
                want = int(np.searchsorted(eigs, E, side="right"))
                got = count_leq(matrix, bc, float(E))
                # a throwaway matrix, freed at once, so that the next one
                # may reuse its id: an elimination order kept anywhere but
                # on its own matrix would leak into another cluster
                fresh = count_leq(ShiftedMatrix(c), bc, float(E))
                # an inertia count may differ if E sits within fp error
                # of an eigenvalue; exclude that knife edge
                if np.min(np.abs(eigs - E)) > 1e-9:
                    assert got == want == fresh


def test_count_leq_on_eigenvalue_counts_full_atom():
    """Shifting exactly onto an eigenvalue retries upward, so the atom
    lands on the counted side."""
    matrix = ShiftedMatrix(make_cubic_cluster(2, 2))  # Neumann spectrum {0, 2, 2, 4}
    assert count_leq(matrix, N, 2.0) == 3
    assert count_leq(matrix, N, 0.0) == 1
    assert count_leq(matrix, N, 4.0) == 4
    assert count_leq(matrix, N, 1.999999) == 1


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
        matrix = ShiftedMatrix(c)  # the shape's one matrix, for every condition
        for bc, eigs in spectra.items():
            near = rng.choice(eigs, 4)
            energies = np.concatenate((rng.uniform(0.0, width, 6), near - 1e-7, near + 1e-7,
                                       np.arange(width + 1.0)))
            want = np.searchsorted(eigs, energies + 1e-12 * width, side="right")
            got = [count_leq(matrix, bc, float(E)) for E in energies]
            assert got == want.tolist(), (c.d, bc)
            # the first factorization fixes the matrix's elimination
            # order, so fresh matrices start the same energies elsewhere
            for order in (np.arange(energies.size)[::-1], rng.permutation(energies.size)):
                fresh = ShiftedMatrix(c)
                got = [count_leq(fresh, bc, float(energies[i])) for i in order]
                assert got == want[order].tolist(), (c.d, bc, order[0])


def test_empirical_ids_evaluates_giant_counts_on_an_unsorted_grid(monkeypatch):
    """With most shapes above the dense threshold, the IDS read at an
    unsorted grid matches the all-dense IDS there: the grid is kept
    sorted, so each energy finds its own giant-shape counts."""
    g = sample_graph(LatticeBox(2, 8), 0.5, derive_seed(1, 0))
    grid = [3.3, 0.7, 5.1, 1.9]
    dense = empirical_ids([g], N, grid=grid, cache={})
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 4)
    monkeypatch.setattr(perclap.laplacian, "DENSE_THRESHOLD", 4)
    ids = empirical_ids([g], N, grid=grid, cache={})
    assert ids.extra_grid_counts.any()
    want = [0.8125, 0.421875, 0.984375, 0.546875]
    assert dense.evaluate(grid).tolist() == ids.evaluate(grid).tolist() == want
    assert ids.grid.tolist() == sorted(grid)
    assert ids.grid_values.tolist() == sorted(want)


def test_empirical_ids_pool_matches_per_shape_weights(monkeypatch):
    """The pooled ``values`` and ``cumulative`` equal, byte for byte, a
    pool of the rows of the :func:`shape_spectra` stacks whose weights
    are built one ``np.full`` per dense shape, on an ensemble whose giant
    shapes, the last ones, stay out of the pool."""
    graphs = [sample_graph(LatticeBox(2, 8), 0.5, derive_seed(1, i)) for i in range(3)]
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 6)
    monkeypatch.setattr(perclap.laplacian, "DENSE_THRESHOLD", 6)
    ensemble = ShapeEnsemble(graphs)
    counts = ensemble.counts.tolist()
    for bc in ALL_BCS:
        cache = {}
        ids = empirical_ids(ensemble, bc, cache=cache)
        spectra = [row for stack in shape_spectra(ensemble, bc, cache) for row in stack]
        dense = len(spectra)
        assert ids.extra_grid_counts.any() and dense < len(ensemble.shapes)
        assert all(c.n_vertices > 6 for c in ensemble.shapes[dense:])
        assert max(counts[:dense]) > 1
        values = np.concatenate(spectra)
        rank = np.argsort(values, kind="stable")
        weights = np.concatenate([np.full(eigs.size, m, dtype=np.int64)
                                  for eigs, m in zip(spectra, counts)])
        cumulative = np.concatenate(([0], np.cumsum(weights[rank])))
        assert ids.values.tobytes() == values[rank].tobytes(), bc
        assert ids.cumulative.dtype == cumulative.dtype, bc
        assert ids.cumulative.tobytes() == cumulative.tobytes(), bc


def test_giant_shapes_share_one_matrix_in_the_run_cache(monkeypatch):
    """A run's cache holds one ShiftedMatrix per shape above the dense
    threshold, built once and factored by all three conditions; no such
    shape is assembled dense."""
    graphs = [sample_graph(LatticeBox(2, 8), 0.5, derive_seed(1, i)) for i in range(3)]
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 6)
    monkeypatch.setattr(perclap.laplacian, "DENSE_THRESHOLD", 6)
    ensemble = ShapeEnsemble(graphs)
    built, assembled = [], []
    build, assemble_dense = spectral.ShiftedMatrix, spectral.assemble

    def building(cluster):
        built.append(cluster.canonical_key())
        return build(cluster)

    def assembling(cluster, bc):
        assembled.append(cluster.n_vertices)
        return assemble_dense(cluster, bc)

    monkeypatch.setattr(spectral, "ShiftedMatrix", building)
    monkeypatch.setattr(spectral, "assemble", assembling)
    cache = {}
    for bc in ALL_BCS:
        empirical_ids(ensemble, bc, cache=cache)
    giants = [c.canonical_key() for c in ensemble.shapes if c.n_vertices > 6]
    assert len(giants) > 1 and sorted(built) == sorted(giants)
    assert max(assembled) <= 6
    for key in giants:
        shape = cache[("giant", key)]
        assert type(shape.matrix) is ShiftedMatrix and shape.matrix.perm is not None
        assert {bc for bc, _ in shape.counts} == {bc.value for bc in ALL_BCS}


def test_inertia_counts_reuse_the_first_elimination_order(giant_clusters, monkeypatch):
    """A - E I has one sparsity pattern at every energy, so only a
    matrix's first SuperLU call orders the columns (MMD); every later
    one factors the stored permuted matrix in its natural order.  Each
    energy below 4d costs one call, an integer one at its shifted energy,
    and E = 4d none."""
    import scipy.sparse.linalg

    specs = []
    splu = scipy.sparse.linalg.splu

    def recording(a, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    for c, spectra in giant_clusters:
        grid = default_grid(c.d, points=16, refine=0)
        for bc, eigs in spectra.items():
            specs.clear()
            matrix = ShiftedMatrix(c)
            got = [count_leq(matrix, bc, float(E)) for E in grid]
            want = np.searchsorted(eigs, grid + 1e-12 * 4 * c.d, side="right")
            assert got == want.tolist(), (c.d, bc)
            assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (grid.size - 2), (c.d, bc)


def test_one_ordering_per_giant_shape_across_conditions(giant_clusters, monkeypatch):
    """The three conditions of a shape differ only on the diagonal, so
    they share one ShiftedMatrix: whichever factors first, here
    pseudo-Dirichlet, orders its columns, once, and N and D factor in
    that order with their own diagonals, permuted alike.  Every count
    equals the dense one."""
    specs = _recording_splu(monkeypatch)
    for c, spectra in giant_clusters:
        grid = default_grid(c.d, points=16, refine=0)
        specs.clear()
        matrix = ShiftedMatrix(c)
        for bc in (DT, N, D):
            got = [count_leq(matrix, bc, float(E)) for E in grid]
            want = np.searchsorted(spectra[bc], grid + 1e-12 * 4 * c.d, side="right")
            assert got == want.tolist(), (c.d, bc)
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (3 * (grid.size - 1) - 1), c.d


def test_count_leq_at_or_above_4d_counts_every_eigenvalue_unfactored(giant_clusters,
                                                                      monkeypatch):
    """By Gershgorin every N, Dt and D spectrum lies in [0, 4d], so at
    E >= 4d the count is the vertex count, with no factorization.  E = 0
    still takes its one shifted call."""
    import scipy.sparse.linalg

    def refusing(a, **kwargs):
        raise AssertionError("splu called at E >= 4d")

    for c, spectra in giant_clusters:
        width = 4 * c.d
        matrix = ShiftedMatrix(c)
        for bc, eigs in spectra.items():
            with monkeypatch.context() as m:
                m.setattr(scipy.sparse.linalg, "splu", refusing)
                for E in (width, width + 1e-13, width + 0.5):
                    want = int(np.searchsorted(eigs, E + 1e-12 * width, side="right"))
                    assert count_leq(matrix, bc, float(E)) == want == c.n_vertices, (c.d, bc, E)
            calls = Counter()
            with monkeypatch.context() as m:
                _count_calls(m, spectral.count_leq, calls)
                want = int(np.searchsorted(eigs, 1e-12 * width, side="right"))
                assert spectral.count_leq(matrix, bc, 0.0) == want
            assert calls["count_leq"] == 2


def test_giant_ids_run_logs_no_warning(tmp_path, caplog):
    """The retries of a supercritical ids run with no integer energy but
    0 and 4d are the planned shifts at E = 0, logged at DEBUG: the run
    logs no WARNING from the spectral layer."""
    cfg = tmp_path / "giant.json"
    cfg.write_text(json.dumps({"d": 2, "L": 52, "p": 0.8, "seed": 3, "task": "ids",
                               "grid_points": 16, "grid_refine": 0}))
    with caplog.at_level("DEBUG", logger="perclap.spectral"):
        assert main(["ids", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    records = [r for r in caplog.records if r.name == "perclap.spectral"]
    assert not [r.getMessage() for r in records if r.levelno >= logging.WARNING]
    shifts = [r.getMessage() for r in records if "is not factored" in r.getMessage()]
    assert shifts == [f"inertia count at E=0 is not factored, counting at E={1e-12 * 8:.17g}"] * 3


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
    shape's dense Neumann spectrum, computed once for both energies.
    Dirichlet E = 6 and 7, their mirrors, break down too, and spec(D) is
    4d - spec(N), reversed: the shape's matrix reads those counts off the
    Neumann spectrum, with no second dense solve.  Pseudo-Dirichlet is
    its own mirror, so its fallback at 2d solves its own spectrum."""
    c, spectra = giant_clusters[0]
    assert (c.degrees == 1).any()
    width = 4 * c.d
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solves.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    matrix = ShiftedMatrix(c)
    energies = [(N, 1.0), (N, 2.0), (D, 6.0), (D, 7.0)]
    with caplog.at_level("WARNING", logger="perclap.spectral"):
        got = [count_leq(matrix, bc, E) for bc, E in energies]
        assert solves == [c.n_vertices]  # one for N and D together
        energies.append((DT, 2.0 * c.d))
        got.append(count_leq(matrix, DT, 2.0 * c.d))
    monkeypatch.undo()
    assert solves == [c.n_vertices] * 2
    dense = [r.getMessage() for r in caplog.records if "dense spectrum" in r.getMessage()]
    assert dense == [f"inertia count at E={E + 1e-12 * width:.17g} broke down, "
                     "counting the dense spectrum" for _, E in energies]
    for (bc, E), count in zip(energies, got):
        assert np.count_nonzero(np.abs(spectra[bc] - E) < 1e-8) > 10, (bc, E)
        shifted = E + 1e-12 * width  # the fallback counts the shifted energy
        assert count == int(np.searchsorted(spectra[bc], shifted, side="right")), (bc, E)
        if bc is N:
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
    c = make_cubic_cluster(3, 2)  # 3x3 square, d=2
    matrix, eigs = ShiftedMatrix(c), eigenvalues(assemble(c, DT))
    for E in (0.0, 1.0, 2.0, 4.0, 7.0, 8.0):
        assert count_leq(matrix, DT, E) == int(np.searchsorted(eigs, E + 8e-12, side="right"))
    assert diagonals
    assert not any(float(x).is_integer() for diag in diagonals for x in diag)


def test_count_leq_retries_are_bounded(tmp_path, monkeypatch):
    """A sparse factorization that always breaks down costs each energy one
    shifted call, two count_leq calls in all, and the count then comes from
    the dense spectrum; the CLI still succeeds on a giant cluster."""
    def broken(matrix, bc, E):
        return np.zeros(matrix.cluster.n_vertices)

    monkeypatch.setattr(spectral, "_lu_pivots", broken)
    calls = Counter()
    _count_calls(monkeypatch, spectral.count_leq, calls)
    c = make_cubic_cluster(2, 2)  # Neumann spectrum {0, 2, 2, 4}
    matrix = ShiftedMatrix(c)
    for E, want in ((0.0, 1), (0.5, 1), (2.0, 3), (3.5, 3), (4.0, 4)):
        calls.clear()
        assert spectral.count_leq(matrix, N, E) == want
        assert calls["count_leq"] == 2
        assert want == int(np.searchsorted(eigenvalues(assemble(c, N)), E + 8e-12,
                                           side="right"))

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


# the d2_giant benchmark workload: one 2,698-vertex cluster, 16 energies
D2_GIANT = {"d": 2, "L": 52, "p": 0.8, "seed": 3, "task": "ids",
            "grid_points": 16, "grid_refine": 0}


def _recording_splu(monkeypatch):
    """The column-order spec of every SuperLU call, in call order."""
    import scipy.sparse.linalg

    specs = []
    splu = scipy.sparse.linalg.splu

    def recording(a, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return specs


def test_mirror_partners_pair_within_the_atom_tolerance():
    grid = np.linspace(0.0, 8.0, 16)
    assert (8.0 - grid != grid[::-1]).any()  # linspace is not bitwise symmetric
    assert mirror_partners(grid, 2).tolist() == list(range(15, -1, -1))
    assert (mirror_partners(grid + 1e-3, 2) == -1).all()
    tol = 1e-12 * 8
    assert mirror_partners(np.array([1.5, 6.5 + 0.5 * tol]), 2).tolist() == [1, 0]
    assert mirror_partners(np.array([1.5, 6.5 + 2 * tol]), 2).tolist() == [-1, -1]
    # the nearest of two candidates
    assert mirror_partners(np.array([1.5, 6.5 - 0.5 * tol, 6.5 + 0.25 * tol]), 2)[0] == 2


@pytest.mark.parametrize("points, refine", [(512, 40), (16, 0)])
def test_mirrored_giant_counts_match_dense_and_fresh_operators(giant_clusters, points, refine):
    """A count read off the mirror condition's factorization at 4d - E
    equals count_leq on a matrix that factored nothing before, and the
    dense count with the 1e-12 * 4d snap.  That includes the Dirichlet
    eigenvalue 4d at E = 4d - 4d * 2^-40 on the default grid, which lies
    within the snap above E: the partner 4d * 2^-40 is not mirrored, as
    it lies within the snap of the Neumann zero mode."""
    for c, spectra in giant_clusters:
        snap = 1e-12 * 4 * c.d
        grid = default_grid(c.d, points, refine)
        cache = {}
        counts = {bc: giant_grid_counts(c, bc, grid, cache) for bc in ALL_BCS}
        shape = cache[("giant", c.canonical_key())]
        assert len(shape.mirrored) > grid.size
        fresh = {bc: ShiftedMatrix(c) for bc in ALL_BCS}
        for bc_value, E in sorted(shape.mirrored):
            bc = BoundaryCondition(bc_value)
            got = shape.counts[(bc_value, E)]
            assert got == count_leq(fresh[bc], bc, E), (c.d, bc, E)
        for bc in ALL_BCS:
            assert counts[bc].tolist() == [shape.counts[(bc.value, float(E))] for E in grid]
            dense = np.searchsorted(spectra[bc], grid + snap, side="right")
            assert counts[bc].tolist() == dense.tolist(), (c.d, bc)


def test_integer_energy_is_never_mirrored(giant_clusters):
    """An integer energy is counted by count_leq at its shifted energy, so
    neither its count nor its partner's is read off the other's
    factorization, even where the partner is no integer.  Here Dirichlet
    has 4d in its spectrum and the rest of it at least 1 away from 0.
    The partner 4d - 8 ulps of E = 0 lies within the snap below 4d, so
    every eigenvalue counts there without a factorization, the Dirichlet
    eigenvalue 4d included, as in the dense count."""
    c, spectra = giant_clusters[0]
    width = 4 * c.d
    assert spectra[D][0] > 1.0 and spectra[D][-1] == pytest.approx(width, abs=1e-12)
    grid = np.array([0.0, width - 8 * np.spacing(float(width))])
    assert mirror_partners(grid, c.d).tolist() == [1, 0]
    cache = {}
    for bc in (N, D):
        got = giant_grid_counts(c, bc, grid, cache).tolist()
        assert got == [count_leq(ShiftedMatrix(c), bc, float(E)) for E in grid], bc
        dense = np.searchsorted(spectra[bc], grid + 1e-12 * width, side="right")
        assert got == dense.tolist() == [1 if bc is N else 0, c.n_vertices], bc
    assert cache[("giant", c.canonical_key())].mirrored == set()


def test_integer_partner_is_never_mirrored():
    """A clean factorization at a non-integer E within the snap above an
    integer eigenvalue k does not count its integer partner 4d - k: the
    eigenvalues > E leave out k, whose mirror 4d - k the partner's count
    holds.  The Neumann spectrum of a 4-vertex path in d=2 is 2 - 2 cos(pi
    j / 4), so 2 is an eigenvalue, and the factorization at 2 + snap / 2
    is clean (no pivot near 0), so nothing but the integer test stops
    its mirror count.  The counting does not depend on the shape's size,
    so a small one stands in for a giant."""
    c = make_linear_cluster(4, 2)
    snap = 1e-12 * 8
    grid = np.array([2.0 + snap / 2, 6.0])
    assert grid[0] != 2.0 and mirror_partners(grid, 2).tolist() == [1, 0]
    assert count_leq(ShiftedMatrix(c), N, float(grid[0]), report_clean=True) == (3, True)
    cache = {}
    counts = {bc: giant_grid_counts(c, bc, grid, cache).tolist() for bc in (N, D)}
    for bc in (N, D):
        dense = np.linalg.eigvalsh(reference_laplacian(c, bc.value).astype(np.float64))
        assert counts[bc] == np.searchsorted(dense, grid + snap, side="right").tolist(), bc
    assert counts[D] == [0, 2]
    assert cache[("giant", c.canonical_key())].mirrored == set()


# (d, L, p, seed, grid points) of the threshold sweep: subcritical to
# supercritical in each d.  The last case puts E = 5 on the grid, where a
# 54-vertex shape has one pseudo-Dirichlet eigenvalue; the unpivoted
# sparse factorization at 5 + 1e-12 * 4d counts 37 eigenvalues below,
# the dense spectrum 38.
THRESHOLD_SWEEP = [(d, L, p, seed, 16)
                   for d, L, p in ((1, 300, 0.9), (2, 12, 0.5), (2, 16, 0.7), (2, 20, 0.55),
                                   (3, 6, 0.3), (3, 7, 0.4))
                   for seed in (1, 2)]
THRESHOLD_SWEEP.append(pytest.param(
    2, 12, 0.5, 1, 9, marks=pytest.mark.xfail(
        strict=True, reason="sparse inertia miscounts a pseudo-Dirichlet atom at E = 5")))


@pytest.mark.parametrize("d, L, p, seed, points", THRESHOLD_SWEEP)
def test_threshold_sweep_leaves_ids_bytes_unchanged(d, L, p, seed, points, tmp_path,
                                                     monkeypatch):
    """Whether a shape is pooled densely or counted by sparse inertia
    changes no byte of ids_*.csv: with the dense threshold at 4 or 16
    vertices, most shapes take the giant path, mirrored counts included.
    The refined grid reaches 4d (1 - 2^-40), within the snap below the
    Dirichlet eigenvalue 4d that every cluster has."""
    cfg = config_from_dict({"d": d, "L": L, "p": p, "seed": seed, "task": "ids",
                            "realizations": 2, "grid_points": points, "grid_refine": 40})

    def ids_bytes(out):
        run(cfg, out)
        return {bc.value: (out / f"ids_{bc.value}.csv").read_bytes() for bc in ALL_BCS}

    want = ids_bytes(tmp_path / "default")
    for threshold in (4, 16):
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", threshold)
        monkeypatch.setattr(perclap.laplacian, "DENSE_THRESHOLD", threshold)
        assert ids_bytes(tmp_path / f"below{threshold}") == want, threshold


def test_giant_dirichlet_ids_identical_for_every_bc_list(tmp_path, monkeypatch):
    """Whichever condition asks first factors a mirrored pair: Dirichlet
    alone factors its own energies, after Neumann it reads them off the
    Neumann pivots, and ids_D.csv is the same bytes.  No list factors more
    than one operator per condition does (15 times on this grid), and each
    shape is ordered once."""
    specs = _recording_splu(monkeypatch)
    written = set()
    for bcs, factored in ((["D"], 15), (["D", "N"], 16), (["N", "Dt", "D"], 24)):
        specs.clear()
        cfg = tmp_path / "giant.json"
        cfg.write_text(json.dumps({**D2_GIANT, "boundary_conditions": bcs}))
        out = tmp_path / "-".join(bcs)
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        written.add((out / "ids_D.csv").read_bytes())
        assert (len(specs), specs.count("MMD_AT_PLUS_A")) == (factored, 1), bcs
    assert len(written) == 1


def test_broken_down_partner_is_not_mirrored(giant_clusters, monkeypatch):
    """A Neumann factorization that breaks down is retried at a shifted
    energy and mirrors nothing: its Dirichlet partner is factored itself."""
    c, spectra = giant_clusters[0]
    snap = 1e-12 * 4 * c.d
    grid = default_grid(c.d, 16, 0)
    g, E = float(grid[3]), float(grid[12])
    pivots = spectral._lu_pivots

    def breaking(matrix, bc, energy):
        got = pivots(matrix, bc, energy)
        return np.zeros_like(got) if bc is N and energy == g else got

    monkeypatch.setattr(spectral, "_lu_pivots", breaking)
    cache = {}
    count_n = giant_grid_counts(c, N, grid, cache)
    assert count_n[3] == np.searchsorted(spectra[N], g + snap, side="right")
    shape = cache[("giant", c.canonical_key())]
    assert ("D", E) not in shape.counts
    specs = _recording_splu(monkeypatch)
    count_d = giant_grid_counts(c, D, grid, cache)
    assert specs == ["NATURAL"] * 2  # E = 0 at its shifted energy, and E
    want = np.searchsorted(spectra[D], grid + snap, side="right")
    assert count_d.tolist() == want.tolist()
    assert count_d[12] == count_leq(ShiftedMatrix(c), D, E)


def test_giant_grid_off_symmetry_factors_as_often_as_fresh_operators(giant_clusters, monkeypatch):
    """With no mirrored pair a shape's three conditions factor every energy
    below 4d, as one fresh matrix per condition does, but order the
    shape's columns once instead of three times.  A second call reads the
    cache."""
    specs = _recording_splu(monkeypatch)
    for c, spectra in giant_clusters:
        grid = default_grid(c.d, 16, 0) + 1e-3
        assert (mirror_partners(grid, c.d) == -1).all()
        specs.clear()
        cache = {}
        counts = {bc: giant_grid_counts(c, bc, grid, cache).tolist() for bc in ALL_BCS}
        shared = list(specs)
        specs.clear()
        for bc, eigs in spectra.items():
            matrix = ShiftedMatrix(c)
            assert counts[bc] == [count_leq(matrix, bc, float(E)) for E in grid], (c.d, bc)
            want = np.searchsorted(eigs, grid + 1e-12 * 4 * c.d, side="right")
            assert counts[bc] == want.tolist(), (c.d, bc)
        assert len(shared) == len(specs) == 3 * (grid.size - 1)
        assert (shared.count("MMD_AT_PLUS_A"), specs.count("MMD_AT_PLUS_A")) == (1, 3)
        specs.clear()
        assert giant_grid_counts(c, N, grid, cache).tolist() == counts[N]
        assert specs == []


def test_d2_giant_run_factors_24_times_and_logs_each_bc(tmp_path, monkeypatch, caplog):
    """On the d2_giant workload Neumann factors its 15 energies below 4d
    (E = 0 at its shifted energy), pseudo-Dirichlet the 8 up to 2d, and
    Dirichlet only its shifted E = 0; every other count is read off a
    mirror's factorization.  One SuperLU call orders the columns."""
    specs = _recording_splu(monkeypatch)
    cfg = tmp_path / "giant.json"
    cfg.write_text(json.dumps(D2_GIANT))
    with caplog.at_level("DEBUG", logger="perclap.spectral"):
        assert main(["ids", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(specs) == 24 and specs.count("MMD_AT_PLUS_A") == 1
    graph = sample_graph(LatticeBox(2, 52), 0.8, derive_seed(3, 0))
    n = max(c.n_vertices for c in clusters(graph))
    lines = [r.getMessage() for r in caplog.records if "giant shape" in r.getMessage()]
    assert lines == [
        f"bc {bc}, giant shape of {n} vertices: {factored} energies factored, "
        f"{mirrored} mirrored, 1 shifted, 1 unfactored (E >= 4d), 0 cached"
        for bc, factored, mirrored in (("N", 14, 0), ("Dt", 7, 7), ("D", 0, 14))
    ]


def test_zero_mode_density_equals_cluster_density(small_ensemble):
    """The Neumann IDS at the zero tolerance counts one zero mode per
    cluster, from a realization or its ShapeEnsemble alike."""
    # a supercritical box: one of its 93 clusters is above the dense threshold
    giant = sample_graph(LatticeBox(2, 48), 0.6, derive_seed(1, 0))
    assert max(c.n_vertices for c in clusters(giant)) > DENSE_THRESHOLD
    for g in list(small_ensemble) + [giant]:
        tol = zero_tolerance(g.box.d)
        # a giant shape's zero mode is in the grid counts, not in the pooled values
        rho = float(empirical_ids([g], N, grid=[tol]).evaluate(tol))
        n_clusters = len(clusters(g))
        assert rho == pytest.approx(n_clusters / g.box.n_vertices, abs=1e-15)
        assert float(empirical_ids(ShapeEnsemble([g]), N, grid=[tol]).evaluate(tol)) == rho


def test_lowest_nonzero_gap_selection():
    """The Neumann gap skips the zero mode, the others are the lowest
    eigenvalue, and a single Neumann eigenvalue has no gap."""
    path = make_linear_cluster(3, 1)
    assert lowest_nonzero(cluster_eigenvalues(path, N), N) == pytest.approx(1.0, abs=1e-12)
    assert lowest_nonzero(cluster_eigenvalues(path, DT), DT) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-12)
    assert math.isnan(lowest_nonzero(np.zeros(1), N))


def test_spectrum_cache_shared_across_translates():
    g = sample_graph(LatticeBox(1, 5000), 0.3, derive_seed(61, 0))
    cache = {}
    for c in clusters(g):
        for bc in ALL_BCS:
            cluster_eigenvalues(c, bc, cache)
    shapes = {c.canonical_key() for c in clusters(g)}  # the isolated vertex too
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


@pytest.mark.parametrize("task", ["all", "verify"])
def test_run_all_solves_each_shape_once(task, tmp_path, monkeypatch):
    """ids, verify, mc tails and the FK ratios share one decomposition per
    realization, one spectrum per (shape, bc), the isolated vertex's 1x1
    ones included, one Cheeger cut search per shape of 2 to
    EXHAUSTIVE_CUTOFF vertices and, in all, one IDS per boundary
    condition.  Also when verify runs alone, it solves in bulk: a single
    solve only for a vertex count that holds one shape."""
    cfg = config_from_dict({
        "d": 2, "L": 16, "p": 0.35, "realizations": 3, "seed": 5, "task": task,
        "grid_points": 64, "grid_refine": 8, "tail_mode": "mc",
        "tail_window": [0.5, 4.0], "decay_samples": 2000,
    })
    shapes = {
        c.canonical_key(): c.n_vertices
        for i in range(cfg.realizations)
        for c in clusters(sample_graph(LatticeBox(2, 16), 0.35, derive_seed(5, i)))
    }
    per_size = Counter(shapes.values())
    assert per_size[1] == 1
    assert max(per_size.values()) > 1
    # every (bc, shape) diagonalized, as a single solve or a stacked row
    solves = Counter()
    singles = set()  # (bc, vertex count) of every single solve
    solve, solve_stack = spectral.eigenvalues, spectral._stacked_eigenvalues

    def counting(op):
        solves[(op.bc, op.cluster.canonical_key())] += 1
        singles.add((op.bc, op.cluster.n_vertices))
        return solve(op)

    def counting_stack(shapes, bc):
        for c in shapes:
            solves[(bc, c.canonical_key())] += 1
        return solve_stack(shapes, bc)

    calls = Counter()
    _count_calls(monkeypatch, lattice.clusters, calls)
    _count_calls(monkeypatch, kernels.best_cheeger_cut, calls)
    _count_calls(monkeypatch, spectral.empirical_ids, calls)
    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(spectral, "eigenvalues", counting)
    monkeypatch.setattr(spectral, "_stacked_eigenvalues", counting_stack)
    assert run(cfg, tmp_path)["status"] == "ok"
    assert set(solves) == {(bc, key) for bc in ALL_BCS for key in shapes}
    assert set(solves.values()) == {1}
    assert singles and all(per_size[n] == 1 for _, n in singles)
    assert calls["clusters"] == cfg.realizations
    assert calls["best_cheeger_cut"] == sum(
        1 for n in shapes.values() if 2 <= n <= EXHAUSTIVE_CUTOFF)
    assert calls["empirical_ids"] == (len(ALL_BCS) if task == "all" else 0)


@pytest.mark.parametrize("seed", [1, 3])
def test_supercritical_verify_refuses_before_any_dense_solve(seed, tmp_path, monkeypatch):
    """verify refuses a shape above the dense threshold before it solves
    or assembles any shape, and names the largest, the last shape of the
    table, wherever its cluster falls in the box: at seed 1 the giant is
    the first cluster, at seed 3 a two-vertex cluster comes before it."""
    cfg = config_from_dict({"d": 2, "L": 48, "p": 0.6, "seed": seed, "task": "verify"})
    giant = max(c.n_vertices for c in clusters(sample_graph(LatticeBox(2, 48), 0.6,
                                                            derive_seed(seed, 0))))
    assert giant > DENSE_THRESHOLD
    calls = Counter()
    _count_calls(monkeypatch, spectral.eigenvalues, calls)
    _count_calls(monkeypatch, spectral._stacked_eigenvalues, calls)
    _count_calls(monkeypatch, perclap.laplacian.assemble, calls)
    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    with pytest.raises(DomainError, match=f"^cluster size {giant} above dense threshold "
                                          f"{DENSE_THRESHOLD}$"):
        run(cfg, tmp_path)
    assert calls == Counter()


# d = 1, 2, 3 ensembles; each has isolated vertices and, in d >= 2,
# vertex counts with several shapes
SHAPE_SPECTRA_CASES = [(1, 3000, 0.6), (2, 30, 0.45), (3, 10, 0.22)]


def _no_solve(*args):
    raise AssertionError("solved a cached shape")


@pytest.mark.parametrize("d, L, p", SHAPE_SPECTRA_CASES)
def test_shape_spectra_match_per_shape_solves(d, L, p, monkeypatch):
    ensemble = ShapeEnsemble([sample_graph(LatticeBox(d, L), p, derive_seed(4, i))
                              for i in range(2)])
    sizes = [c.n_vertices for c in ensemble.shapes]
    assert 1 in sizes
    stacks = []
    fill = spectral.dense_stack

    def recording(shapes, bc):
        stack = fill(shapes, bc)
        stacks.append(stack.shape)
        return stack

    monkeypatch.setattr(spectral, "dense_stack", recording)
    bounds = ensemble.bounds.tolist()
    for threshold in (DENSE_THRESHOLD, 5):
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", threshold)
        stacks.clear()
        for bc in ALL_BCS:
            cache = {}
            spectra = shape_spectra(ensemble, bc, cache)
            assert [s.shape for s in spectra] == [(hi - lo, sizes[lo]) for lo, hi
                                                  in zip(bounds, bounds[1:])
                                                  if sizes[lo] <= threshold]
            rows = [row for s in spectra for row in s]
            for c, eigs in zip(ensemble.shapes, rows):
                assert eigs.tobytes() == assemble(c, bc).spectrum.tobytes()
                assert cache[(bc.value, c.canonical_key())].tobytes() == eigs.tobytes()
            with monkeypatch.context() as m:  # every spectrum is a cache hit
                m.setattr(spectral, "eigenvalues", _no_solve)
                m.setattr(spectral, "dense_stack", _no_solve)
                again = shape_spectra(ensemble, bc, cache)
            assert [a.tobytes() for a in again] == [s.tobytes() for s in spectra]
        assert all(m * n * n <= threshold ** 2 for m, n, _ in stacks)
        if d == 1:  # every d = 1 shape is a path, alone at its vertex count
            assert stacks == []
    if d > 1:  # at threshold 5 some vertex count is split over several stacks
        per_size = Counter(n for _, n, _ in stacks)
        assert max(per_size.values()) > len(ALL_BCS)


def test_shape_spectra_logs_solve_counts(caplog):
    ensemble = ShapeEnsemble([sample_graph(LatticeBox(2, 16), 0.35, derive_seed(2, 0))])
    multi = Counter(c.n_vertices for c in ensemble.shapes)  # the isolated vertex too
    assert multi[1] == 1 < max(multi.values())
    cache = {}
    with caplog.at_level("DEBUG", logger="perclap.spectral"):
        for bc in ALL_BCS:
            empirical_ids(ensemble, bc, cache=cache)
        lines = [r.getMessage() for r in caplog.records if "shapes solved" in r.getMessage()]
        assert lines == [
            f"bc {bc.value}: {sum(multi.values())} shapes solved, "
            f"{sum(1 for k in multi.values() if k > 1)} stacked calls, "
            f"{sum(1 for k in multi.values() if k == 1)} single solves"
            for bc in ALL_BCS
        ]
        caplog.clear()
        empirical_ids(ensemble, N, cache=cache)
    assert [r.getMessage() for r in caplog.records if "shapes solved" in r.getMessage()] == [
        "bc N: 0 shapes solved, 0 stacked calls, 0 single solves"]


def test_stacked_solver_failure_names_the_cluster(tmp_path, monkeypatch, capsys):
    """A failed stacked solve is redone shape by shape, so the exit-3
    message names the cluster whose own solve fails."""
    data = {"d": 2, "L": 12, "p": 0.35, "seed": 3, "task": "ids", "boundary_conditions": ["N"]}
    ensemble = ShapeEnsemble([sample_graph(LatticeBox(2, 12), 0.35, derive_seed(3, 0))])
    multi = Counter(c.n_vertices for c in ensemble.shapes)
    target = next(c for c in ensemble.shapes if c.n_vertices > 1 and multi[c.n_vertices] > 1)
    bad = assemble(target, N).matrix.astype(np.float64)
    eigvalsh = np.linalg.eigvalsh

    def failing(a):
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["ids", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert (f"numeric failure (solver): eigensolver failed on cluster with root vertex "
            f"{int(target.vertices[0])}:") in capsys.readouterr().err


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
        assert int(ensemble.counts.sum()) == n_clusters
        assert ensemble.order.size == sum(c.n_vertices > 1 for g in graphs for c in clusters(g))
        for bc in ALL_BCS:
            ids = empirical_ids(graphs, bc, cache={})
            assert (ids.n_clusters, ids.total_vertices) == (n_clusters, total)
            want = _per_cluster_ids_pool(graphs, bc)
            assert ids.eigenvalues.shape == want.shape
            assert np.allclose(ids.eigenvalues, want, rtol=0.0, atol=1e-12)


def test_empirical_ids_traced_peak_follows_distinct_eigenvalues():
    """On the d1_paths workload's ensemble (4 x 10^5 vertices, 10 shapes of
    55 vertices in all) pooling allocates for the shapes' eigenvalues and
    the grid, not per vertex: one float64 per vertex alone would be
    3.2 MB, and tiling each spectrum by its multiplicity peaked at 9.6 MB
    of traced allocations.  Pooling by weight peaks at about 35 kB."""
    graphs = [sample_graph(LatticeBox(1, 100_000), 0.3, derive_seed(7, i)) for i in range(4)]
    ensemble = ShapeEnsemble(graphs)
    grid = default_grid(1)
    for bc in ALL_BCS:
        empirical_ids(ensemble, bc, grid=grid, cache={})  # first-call set-up untraced
        tracemalloc.start()
        try:
            ids = empirical_ids(ensemble, bc, grid=grid, cache={})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids.values.size == sum(c.n_vertices for c in ensemble.shapes) == 55
        assert int(ids.cumulative[-1]) == ensemble.total_vertices == 400_000
        assert peak <= 0.25e6, f"{bc}: traced peak {peak / 1e6:.2f} MB"


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
            spectra = spectra_of(c)
            checked += 1
            violations["range"] += range_violations(spectra, cfg.d, tol)
            violations["reflection"] += reflection_deviation(spectra, cfg.d) > REFLECTION_TOL
            violations["chain"] += not chain_holds(spectra, grid)
            if c.n_vertices < 2:
                continue
            rep = reference_report(c, spectra)
            violations["crude"] += rep["crude_margin"] < -MARGIN_TOL
            violations["cheeger"] += (rep["cheeger_margin"] is not None
                                      and rep["cheeger_margin"] < -MARGIN_TOL)
            fk_min = rep["fk_ratio"] if fk_min is None else min(fk_min, rep["fk_ratio"])
            rows.append(",".join("" if x is None else str(x) if name == "n_vertices"
                                 else _fmt(x) for name, x in rep.items()))
    summary = {"clusters_checked": checked, "violations": violations, "fk_estimate": fk_min}
    return ("\n".join(rows) + "\n").encode(), (
        json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()


# (3, 8, 0.3, 2) has 2 cyclic shapes whose bridges do not settle the
# Cheeger cut; (1, 700, 0.999, 1) is one path of about 700 vertices
@pytest.mark.parametrize("d, L, p, realizations", [
    (1, 300, 0.4, 3), (2, 12, 0.35, 3), (3, 6, 0.2, 2), (2, 10, 0.05, 2),
    (3, 8, 0.3, 2), (1, 700, 0.999, 1),
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
