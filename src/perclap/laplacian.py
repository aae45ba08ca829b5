"""Per-cluster graph Laplacians for the three boundary conditions.

Matrices are assembled with exact integer entries; floating point only
enters in the eigensolvers.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import Cluster


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
    """Dense symmetric integer matrix of one Laplacian on one cluster."""

    cluster: Cluster
    bc: BoundaryCondition
    matrix: np.ndarray  # int64, |V| x |V|

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_width(self) -> int:
        return 4 * self.cluster.d


def assemble(cluster: Cluster, bc: BoundaryCondition) -> SymmetricOperator:
    """Degree/adjacency combination for the requested boundary condition."""
    n = cluster.n_vertices
    mat = np.zeros((n, n), dtype=np.int64)
    diag = bc.diagonal(cluster.degrees, cluster.d)
    mat[np.arange(n), np.arange(n)] = diag
    if cluster.n_edges:
        u, v = cluster.edges[:, 0], cluster.edges[:, 1]
        mat[u, v] = -1
        mat[v, u] = -1
    return SymmetricOperator(cluster, bc, mat)
