"""Laplacian assembly tests: exact matrices, identities, symmetries."""

import numpy as np

from conftest import chain_holds, reference_laplacian, reflection_deviation, spectra_of
from perclap import LatticeBox, clusters, make_cubic_cluster, make_linear_cluster, sample_graph
from perclap.isoperimetry import REFLECTION_TOL
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS, ShiftedMatrix, assemble
from perclap.lattice import make_cluster

N, DT, D = ALL_BCS


def test_two_vertex_matrices_exact():
    c = make_linear_cluster(2, 1)
    assert assemble(c, N).matrix.tolist() == [[1, -1], [-1, 1]]
    assert assemble(c, DT).matrix.tolist() == [[2, -1], [-1, 2]]
    assert assemble(c, D).matrix.tolist() == [[3, -1], [-1, 3]]


def test_isolated_vertex_values():
    """The 1x1 matrices are 0, 2d and 4d, and each is 4d minus its
    mirror's (S = 1 on one vertex)."""
    for d in (1, 2, 3):
        c = make_cluster(d, np.array([0]), np.zeros((1, d), dtype=np.int64),
                         np.zeros((0, 2), dtype=np.int64))
        matrices = {bc: assemble(c, bc).matrix.tolist() for bc in ALL_BCS}
        assert matrices == {N: [[0]], DT: [[2 * d]], D: [[4 * d]]}
        for bc in ALL_BCS:
            assert matrices[bc.mirror] == [[4 * d - matrices[bc][0][0]]]


def test_assembly_matches_reference(small_ensemble):
    for g in small_ensemble[:3]:
        for c in clusters(g):
            if not 2 <= c.n_vertices <= 80:
                continue
            for bc in ALL_BCS:
                got = assemble(c, bc).matrix
                assert np.array_equal(got, reference_laplacian(c, bc.value))


def test_trace_identities():
    """Exact integer traces: sum(deg), 2dn, and 4dn - sum(deg)."""
    g = sample_graph(LatticeBox(2, 12), 0.45, derive_seed(31, 0))
    for c in clusters(g):
        n, d = c.n_vertices, c.d
        degsum = int(c.degrees.sum())
        assert int(np.trace(assemble(c, N).matrix)) == degsum
        assert int(np.trace(assemble(c, DT).matrix)) == 2 * d * n
        assert int(np.trace(assemble(c, D).matrix)) == 4 * d * n - degsum


def test_quadratic_forms():
    """<f, Lf> equals the closed forms built from edge differences/sums.

    Neumann: sum over edges of (f_u - f_v)^2.  Pseudo-Dirichlet adds the
    deficiency term sum_v (2d - deg_v) f_v^2.  Dirichlet complements the
    edge sums: 4d|f|^2 - sum over edges of (f_u + f_v)^2.
    """
    rng = np.random.default_rng(5)
    g = sample_graph(LatticeBox(2, 10), 0.5, derive_seed(32, 0))
    for c in clusters(g):
        if c.n_vertices < 2:
            continue
        d = c.d
        u, v = c.edges[:, 0], c.edges[:, 1]
        defic = 2 * d - c.degrees
        for _ in range(5):
            f = rng.standard_normal(c.n_vertices)
            q_n = float(np.sum((f[u] - f[v]) ** 2))
            q_dt = q_n + float(defic @ f**2)
            q_d = 4 * d * float(f @ f) - float(np.sum((f[u] + f[v]) ** 2))
            for bc, want in ((N, q_n), (DT, q_dt), (D, q_d)):
                got = float(f @ (assemble(c, bc).matrix @ f))
                scale = max(1.0, abs(want))
                assert abs(got - want) < 1e-10 * scale


def test_reflection_is_exact_at_matrix_level():
    """S L_D S = 4d - L_N under the parity sign flip, entrywise in ints."""
    for c in (make_linear_cluster(7, 2), make_cubic_cluster(3, 2), make_cubic_cluster(2, 3)):
        s = c.parity().astype(np.int64)
        l_n = assemble(c, N).matrix
        l_d = assemble(c, D).matrix
        conj = s[:, None] * l_d * s[None, :]
        ident = np.eye(c.n_vertices, dtype=np.int64)
        assert np.array_equal(conj, 4 * c.d * ident - l_n)


def test_reflection_check_on_sampled_clusters(small_ensemble):
    for g in small_ensemble[:2]:
        for c in clusters(g):
            if not 2 <= c.n_vertices <= 200:
                continue
            dev = reflection_deviation(spectra_of(c), c.d)
            assert dev <= REFLECTION_TOL, f"reflection deviation {dev}"


def test_neumann_zero_mode_is_constant_vector():
    c = make_cubic_cluster(3, 2)
    l_n = assemble(c, N).matrix
    assert np.array_equal(l_n @ np.ones(c.n_vertices, dtype=np.int64),
                          np.zeros(c.n_vertices, dtype=np.int64))


def test_chain_holds_on_cube():
    c = make_cubic_cluster(3, 2)
    assert chain_holds(spectra_of(c), np.linspace(0, 8, 65))


def test_operators_symmetric_integer(small_ensemble):
    g = small_ensemble[1]
    for c in clusters(g)[:50]:
        for bc in ALL_BCS:
            m = assemble(c, bc).matrix
            assert m.dtype == np.int64
            assert np.array_equal(m, m.T)


def test_giant_matrix_holds_every_condition_in_its_stored_order(small_ensemble):
    """A ShiftedMatrix stores one -1 per edge end and every diagonal entry,
    an isolated vertex's zero Neumann one too, and at(bc, E) is
    P (Delta_bc - E I) P^T with the diagonal permuted like the rest,
    as built (P = I) and after a reorder."""
    rng = np.random.default_rng(3)

    def assert_stored(matrix, perm):
        n = perm.size
        for bc in ALL_BCS:
            want = np.empty((n, n))
            shifted = reference_laplacian(matrix.cluster, bc.value) - 0.25 * np.eye(n)
            want[np.ix_(perm, perm)] = shifted
            assert matrix.at(bc, 0.25).toarray().tolist() == want.tolist(), bc

    for g in small_ensemble:
        cs = clusters(g)
        for c in (max(cs, key=lambda c: c.n_vertices), min(cs, key=lambda c: c.n_vertices)):
            matrix = ShiftedMatrix(c)
            assert matrix.matrix.nnz == 2 * c.n_edges + c.n_vertices
            assert_stored(matrix, np.arange(c.n_vertices))
            perm = rng.permutation(c.n_vertices)
            matrix.reorder(perm)
            assert_stored(matrix, perm)
