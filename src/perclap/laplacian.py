"""Per-cluster graph Laplacians for the three boundary conditions.

Matrices are assembled with exact integer entries; floating point only
enters in the eigensolvers.  Dense matrices are filled by
:func:`dense_stack`, which builds the matrices of many clusters of one
size as one ``(m, n, n)`` array for a stacked eigensolver call; a
single :func:`assemble` is its one-cluster case, and it refuses a
cluster above :data:`DENSE_THRESHOLD` vertices (:func:`require_dense`)
before allocating anything.  Such a giant cluster gets one sparse
:class:`ShiftedMatrix` for all three conditions, which differ only on
the diagonal: the float64 matrix of its inertia counts, stored in the
elimination order of its first factorization, whose diagonal is
rewritten for each condition and energy.
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NumericError
from .lattice import Cluster

DENSE_THRESHOLD = 2048  # largest cluster assembled dense and diagonalized


class BoundaryCondition(enum.Enum):
    NEUMANN = "N"
    PSEUDO_DIRICHLET = "Dt"
    DIRICHLET = "D"

    @property
    def mirror(self) -> "BoundaryCondition":
        """The condition whose spectrum on a lattice cluster is 4d minus
        this one's: N and D mirror each other, Dt mirrors itself.

        A lattice cluster is bipartite, so with S = diag((-1)^|x|),
        S A S = -A.  Then S (deg - A) S = deg + A, so
        Delta_D = 4d I - deg - A = 4d I - S Delta_N S, and likewise
        Delta_Dt = 2d I - A = 4d I - S Delta_Dt S.  S is orthogonal and
        its own inverse, so spec(Delta_D) = 4d - spec(Delta_N) and
        spec(Delta_Dt) = 4d - spec(Delta_Dt): the upper band edge of a
        condition is the lower edge of its mirror.
        """
        if self is BoundaryCondition.PSEUDO_DIRICHLET:
            return self
        if self is BoundaryCondition.NEUMANN:
            return BoundaryCondition.DIRICHLET
        return BoundaryCondition.NEUMANN

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


def require_dense(n: int) -> None:
    """Refuse a dense matrix of an n-vertex cluster above the threshold."""
    if n > DENSE_THRESHOLD:
        raise DomainError(f"cluster size {n} above dense threshold {DENSE_THRESHOLD}")


def _eigvalsh(matrix: np.ndarray, cluster: Cluster) -> np.ndarray:
    """Ascending spectrum of a dense integer matrix of ``cluster``."""
    try:
        return np.linalg.eigvalsh(matrix.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed on cluster with root vertex "
            f"{int(cluster.vertices[0])}: {exc}"
        ) from exc


@dataclass(frozen=True)
class SymmetricOperator:
    """Dense symmetric integer matrix of one Laplacian on one cluster of
    at most :data:`DENSE_THRESHOLD` vertices: ``matrix`` is an int64
    |V| x |V| array.  Its :attr:`spectrum` is computed on first use and
    lives as long as the operator.
    """

    cluster: Cluster
    bc: BoundaryCondition
    matrix: np.ndarray

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """All eigenvalues, ascending, from the dense symmetric solver."""
        return _eigvalsh(self.matrix, self.cluster)


class ShiftedMatrix:
    """float64 CSC of P (Delta_bc - E I) P^T on one cluster, for every
    boundary condition bc and energy E of its sparse inertia counts.

    The three Laplacians differ only on the diagonal
    (:meth:`BoundaryCondition.diagonal`), so the -1 of every edge is
    stored once, and every column stores its diagonal entry, at
    ``diag_pos`` in ``matrix.data``: :meth:`at` rewrites values and
    never the sparsity pattern.  P is the identity, with ``perm`` None,
    until :meth:`reorder` sets it to the column order of the first
    factorization, under whichever condition comes first.  The pattern
    is the same at every energy and condition, so that order serves
    every later factorization.  The dense spectra of the counts'
    fallback are kept by condition (:meth:`spectrum`).
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.perm = None
        self._spectra = {}
        self._build(np.arange(cluster.n_vertices))

    def _build(self, perm: np.ndarray) -> None:
        """Vertex i goes to row and column perm[i]."""
        from scipy.sparse import csc_matrix

        n, (u, v) = self.cluster.n_vertices, self.cluster.edges.T
        diag = np.arange(n)
        rows = perm[np.concatenate((u, v, diag))]
        cols = perm[np.concatenate((v, u, diag))]
        # every diagonal entry is stored, with a placeholder that at() overwrites
        data = np.concatenate((np.full(u.size * 2, -1.0), np.ones(n)))
        self.matrix = csc_matrix((data, (rows, cols)), shape=(n, n))
        column = np.repeat(diag, np.diff(self.matrix.indptr))
        self.diag_pos = np.flatnonzero(self.matrix.indices == column)
        self._vertex = np.argsort(perm)  # the vertex stored at each position

    def reorder(self, perm: np.ndarray) -> None:
        """Store the matrix in the order ``perm``: P takes index i to perm[i]."""
        self.perm = np.asarray(perm)
        self._build(self.perm)

    def at(self, bc: BoundaryCondition, E: float):
        """The stored matrix, with its diagonal set to that of
        P (Delta_bc - E I) P^T."""
        diag = bc.diagonal(self.cluster.degrees, self.cluster.d)
        self.matrix.data[self.diag_pos] = diag[self._vertex] - E
        return self.matrix

    def spectrum(self, bc: BoundaryCondition) -> np.ndarray:
        """All eigenvalues of Delta_bc, ascending, computed at most once
        per mirror pair: with the mirror's spectrum held, 4d minus it,
        reversed (:attr:`BoundaryCondition.mirror`); otherwise by the
        dense solver on the matrix in vertex order (:func:`dense_stack`).
        Pseudo-Dirichlet is its own mirror, so it is always solved."""
        eigs = self._spectra.get(bc)
        if eigs is None:
            held = self._spectra.get(bc.mirror)
            if held is not None:
                eigs = 4 * self.cluster.d - held[::-1]
            else:
                eigs = _eigvalsh(dense_stack([self.cluster], bc)[0], self.cluster)
            self._spectra[bc] = eigs
        return eigs


def assemble(cluster: Cluster, bc: BoundaryCondition) -> SymmetricOperator:
    """Dense degree/adjacency combination for the requested boundary
    condition; a cluster above the dense threshold is refused before
    anything is allocated."""
    require_dense(cluster.n_vertices)
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
