"""Per-cluster graph Laplacians for the three boundary conditions.

Matrices are assembled with exact integer entries; floating point only
enters in the eigensolvers.  Clusters up to :data:`DENSE_THRESHOLD`
vertices get a dense array, larger ones a sparse CSC matrix, so no
n x n array is allocated for a giant cluster unless its dense
:attr:`SymmetricOperator.spectrum` is asked for.  For the sparse
inertia counts an operator also keeps :attr:`SymmetricOperator.shifted`,
a float64 copy in the elimination order of its first factorization (or
one handed over from another operator of the same shape), whose
diagonal is rewritten for each energy.  Dense matrices are
filled by :func:`dense_stack`, which builds the matrices of many
clusters of one size as one ``(m, n, n)`` array for a stacked
eigensolver call; a single dense :func:`assemble` is its one-cluster
case.
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError
from .lattice import Cluster

DENSE_THRESHOLD = 2048  # largest cluster assembled dense and diagonalized


class BoundaryCondition(enum.Enum):
    NEUMANN = "N"
    PSEUDO_DIRICHLET = "Dt"
    DIRICHLET = "D"

    def isolated_value(self, d: int) -> int:
        """Action on an isolated vertex: 0, 2d or 4d."""
        if self is BoundaryCondition.NEUMANN:
            return 0
        if self is BoundaryCondition.PSEUDO_DIRICHLET:
            return 2 * d
        return 4 * d

    def diagonal(self, degrees: np.ndarray, d: int) -> np.ndarray:
        if self is BoundaryCondition.NEUMANN:
            return degrees
        if self is BoundaryCondition.PSEUDO_DIRICHLET:
            return np.full_like(degrees, 2 * d)
        return 4 * d - degrees


ALL_BCS = (
    BoundaryCondition.NEUMANN,
    BoundaryCondition.PSEUDO_DIRICHLET,
    BoundaryCondition.DIRICHLET,
)


@dataclass(frozen=True)
class SymmetricOperator:
    """Symmetric integer matrix of one Laplacian on one cluster.

    ``matrix`` is an int64 |V| x |V| numpy array up to
    :data:`DENSE_THRESHOLD` vertices and a scipy CSC matrix above it.
    Two derived matrices are built on first use and live as long as the
    operator: the dense :attr:`spectrum` and the :attr:`shifted` matrix
    that holds the sparse elimination order.
    """

    cluster: Cluster
    bc: BoundaryCondition
    matrix: object  # np.ndarray, or scipy.sparse.csc_matrix above DENSE_THRESHOLD

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_width(self) -> int:
        return 4 * self.cluster.d

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """All eigenvalues, ascending, from the dense symmetric solver.

        Computed once per operator; a sparse matrix is densified first.
        """
        dense = self.matrix if isinstance(self.matrix, np.ndarray) else self.matrix.toarray()
        try:
            return np.linalg.eigvalsh(dense.astype(np.float64))
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigensolver failed on cluster with root vertex "
                f"{int(self.cluster.vertices[0])}: {exc}"
            ) from exc

    @functools.cached_property
    def shifted(self) -> "ShiftedMatrix":
        """Storage for the sparse factorizations of ``matrix - E*I``;
        its elimination order is fixed by the first one."""
        return ShiftedMatrix(self.matrix)


class ShiftedMatrix:
    """float64 CSC of P A P^T, refilled with P (A - E I) P^T per energy.

    Every column stores its diagonal entry, at ``diag_pos`` in
    ``matrix.data``, so :meth:`at` rewrites values and never the
    sparsity pattern.  P is the identity, with ``perm`` None, until
    :meth:`reorder` sets it to the column order of a first
    factorization.  A - E I has the same pattern at every energy, so
    that order serves every later one.
    """

    def __init__(self, source):
        self._source = source  # the operator's integer matrix, dense or sparse
        self.perm = None
        self._build(np.arange(source.shape[0]))

    def _build(self, perm: np.ndarray) -> None:
        """Entry (i, j) of the source goes to (perm[i], perm[j])."""
        from scipy.sparse import coo_matrix, csc_matrix

        coo = coo_matrix(self._source)
        n = coo.shape[0]
        # an extra 0.5 on the diagonal keeps every diagonal entry stored,
        # also a zero one (the Neumann matrix of an isolated vertex)
        rows = perm[np.concatenate((coo.row, np.arange(n)))]
        cols = perm[np.concatenate((coo.col, np.arange(n)))]
        data = np.concatenate((coo.data.astype(np.float64), np.full(n, 0.5)))
        self.matrix = csc_matrix((data, (rows, cols)), shape=(n, n))
        column = np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        self.diag_pos = np.flatnonzero(self.matrix.indices == column)
        self.diag = self.matrix.data[self.diag_pos] - 0.5

    def reorder(self, perm: np.ndarray) -> None:
        """Store the matrix as P A P^T, with P taking index i to perm[i]."""
        self.perm = np.asarray(perm)
        self._build(self.perm)

    def at(self, E: float):
        """The stored matrix, with its diagonal set to diag(P A P^T) - E."""
        self.matrix.data[self.diag_pos] = self.diag - E
        return self.matrix


def assemble(cluster: Cluster, bc: BoundaryCondition) -> SymmetricOperator:
    """Degree/adjacency combination for the requested boundary condition."""
    n = cluster.n_vertices
    if n > DENSE_THRESHOLD:
        from scipy.sparse import csc_matrix

        diag = bc.diagonal(cluster.degrees, cluster.d)
        u, v = cluster.edges[:, 0], cluster.edges[:, 1]
        rows = np.concatenate((np.arange(n), u, v))
        cols = np.concatenate((np.arange(n), v, u))
        data = np.concatenate((diag, np.full(2 * cluster.n_edges, -1, dtype=np.int64)))
        return SymmetricOperator(cluster, bc, csc_matrix((data, (rows, cols)), shape=(n, n)))
    return SymmetricOperator(cluster, bc, dense_stack([cluster], bc)[0])


def dense_stack(clusters, bc: BoundaryCondition) -> np.ndarray:
    """int64 ``(m, n, n)`` stack of the dense matrices of m clusters that
    all have n vertices, filled in one vectorized pass."""
    n, d = clusters[0].n_vertices, clusters[0].d
    stack = np.zeros((len(clusters), n, n), dtype=np.int64)
    diag = np.arange(n)
    stack[:, diag, diag] = bc.diagonal(np.stack([c.degrees for c in clusters]), d)
    which = np.repeat(np.arange(len(clusters)), [c.n_edges for c in clusters])
    u, v = np.concatenate([c.edges for c in clusters]).T
    stack[which, u, v] = -1
    stack[which, v, u] = -1
    return stack
