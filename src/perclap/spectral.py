"""Spectra, inertia-based eigenvalue counting, and the empirical IDS.

The empirical IDS works on a :class:`~perclap.lattice.ShapeEnsemble`:
each distinct cluster shape is diagonalized once per boundary condition
and its spectrum pooled with the shape's multiplicity.  Spectra are
cached by the translation-invariant canonical key, so the stages of a
run share them.  Shapes above :data:`DENSE_THRESHOLD` are not
diagonalized up front; :func:`count_leq` counts their eigenvalues at
each grid energy from the pivot signs of a sparse SuperLU factorization
(Sylvester's law of inertia).  Only at an energy where that
factorization breaks down twice does it read the count off the shape's
dense spectrum, computed once per operator.  The counting convention is
right-continuous throughout: N(E) counts eigenvalues <= E.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .exceptions import DomainError, NumericError
from .laplacian import (
    ALL_BCS,
    DENSE_THRESHOLD,
    BoundaryCondition,
    SymmetricOperator,
    assemble,
)
from .lattice import Cluster, ShapeEnsemble

log = logging.getLogger(__name__)

ZERO_TOL_FACTOR = 1e-9  # relative to the spectral width 4d
ATOM_TOL_FACTOR = 1e-12  # snap tolerance for counting at spectral atoms


def zero_tolerance(d: int) -> float:
    return ZERO_TOL_FACTOR * 4 * d


def eigenvalues(op: SymmetricOperator) -> np.ndarray:
    """All eigenvalues, ascending (dense symmetric solver)."""
    if op.n > DENSE_THRESHOLD:
        raise DomainError(
            f"cluster size {op.n} above dense threshold {DENSE_THRESHOLD}"
        )
    return op.spectrum


def _lu_pivots(op: SymmetricOperator, E: float):
    """diag(U) of a sparse symmetric-mode LU of (matrix - E*I), or None.

    Without row pivoting and with ``perm_r == perm_c``, SuperLU factors
    P (A - E I) P^T = L U, and U = D L^T with D the pivots of an LDL^T
    congruence.  None when SuperLU finds the matrix exactly singular or
    the permutations differ, so that the factorization is no congruence.

    None also, without factorizing, for an integer or non-finite E.  At
    an integer E, A - E I is an integer matrix, and its elimination meets
    exact zero pivots whenever E is an eigenvalue of a leading principal
    submatrix (always on the all-zero diagonal of pseudo-Dirichlet at
    E = 2d).  On such a matrix SuperLU's unpivoted path depends on
    uninitialized memory, and it has crashed the interpreter.  A rational
    eigenvalue of an integer matrix is an integer, so at any other finite
    E every exact pivot is nonzero.
    """
    if not math.isfinite(E) or float(E).is_integer():
        return None
    shifted = (scipy.sparse.csc_matrix(op.matrix, dtype=np.float64)
               - E * scipy.sparse.identity(op.n, format="csc"))
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "exactly singular" in str(exc):
            return None
        raise NumericError(
            f"sparse LU failed on cluster with root vertex "
            f"{int(op.cluster.vertices[0])} at E={E}: {exc}"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu.U.diagonal()


def count_leq(op: SymmetricOperator, E: float, _shift: bool = True) -> int:
    """Number of eigenvalues <= E via the inertia of (matrix - E*I).

    ``op.matrix`` may be dense or sparse.  By Sylvester's law of inertia
    the count is the number of negative pivots of the congruence
    L D L^T of :func:`_lu_pivots`.  That factorization breaks down when
    SuperLU reports the matrix exactly singular, when its row and column
    permutations differ, when a pivot is smaller in magnitude than
    1e-12 * 4d, or when E is an integer, which it refuses.

    On a breakdown ``count_leq`` calls itself once at E + 1e-12 * 4d,
    which puts an eigenvalue at E on the counted side.  If the sparse
    factorization breaks down there too, the count at that shifted
    energy is read off the operator's dense spectrum
    (:attr:`~perclap.laplacian.SymmetricOperator.spectrum`, computed at
    most once per operator), the same snap convention as the pooled
    IDS.  Unpivoted sparse LU cannot get past energies where a giant
    cluster has an eigenvalue of high multiplicity (Neumann E = 1 or 2,
    pseudo-Dirichlet E = 2d).  Both steps are logged.  ``_shift`` is
    internal: False in the shifted call.
    """
    pivots = _lu_pivots(op, E)
    breakdown = ZERO_TOL_FACTOR * 1e-3 * op.spectral_width  # |pivot| ~ 0
    if pivots is not None and np.abs(pivots).min() >= breakdown:
        return int(np.count_nonzero(pivots < 0.0))
    if _shift:
        shifted = E + ATOM_TOL_FACTOR * op.spectral_width
        log.warning("inertia count at E=%.17g broke down, retrying at E=%.17g", E, shifted)
        return count_leq(op, shifted, _shift=False)
    log.warning("inertia count at E=%.17g broke down, counting the dense spectrum", E)
    return int(np.searchsorted(op.spectrum, E, side="right"))


_SPECTRUM_CACHE: dict = {}


def cluster_eigenvalues(cluster: Cluster, bc: BoundaryCondition, cache=None) -> np.ndarray:
    """Cached dense spectrum of one cluster under one boundary condition."""
    if cluster.n_vertices == 1:
        return np.array([float(bc.isolated_value(cluster.d))])
    if cache is None:
        cache = _SPECTRUM_CACHE
    key = (bc.value, cluster.canonical_key())
    eigs = cache.get(key)
    if eigs is None:
        eigs = eigenvalues(assemble(cluster, bc))
        cache[key] = eigs
    return eigs


def cluster_spectra(cluster: Cluster, cache=None) -> dict:
    """Cached spectra of one cluster under every boundary condition."""
    return {bc: cluster_eigenvalues(cluster, bc, cache) for bc in ALL_BCS}


def lowest_nonzero(eigs: np.ndarray, bc: BoundaryCondition) -> float:
    """Spectral gap: the second Neumann eigenvalue (the first is the zero
    mode), otherwise the first; NaN for a single Neumann eigenvalue."""
    if bc is BoundaryCondition.NEUMANN:
        return float(eigs[1]) if eigs.size >= 2 else float("nan")
    return float(eigs[0])


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue list and spectral gap of one cluster."""

    n_vertices: int
    bc: BoundaryCondition
    eigenvalues: np.ndarray
    lowest_nonzero: float


def summarize(cluster: Cluster, bc: BoundaryCondition) -> SpectralSummary:
    eigs = cluster_eigenvalues(cluster, bc)
    return SpectralSummary(cluster.n_vertices, bc, eigs, lowest_nonzero(eigs, bc))


# Checks on the spectra of one cluster, as returned by cluster_spectra;
# isoperimetry.check_shape applies them with verify's tolerances and caps.


def range_violations(spectra: dict, d: int, tol: float) -> int:
    """Number of spectra with an eigenvalue outside [-tol, 4d + tol]."""
    width = 4 * d
    return sum(1 for e in spectra.values() if e[0] < -tol or e[-1] > width + tol)


def reflection_deviation(spectra: dict, d: int) -> float:
    """Max entrywise |sorted spec(D) - (4d - reversed sorted spec(N))|."""
    e_n = spectra[BoundaryCondition.NEUMANN]
    e_d = spectra[BoundaryCondition.DIRICHLET]
    return float(np.abs(e_d - (4 * d - e_n[::-1])).max())


def chain_holds(spectra: dict, grid: np.ndarray) -> bool:
    """Eigenvalue counts ordered N >= Dt >= D at every grid energy."""
    c_n = np.searchsorted(spectra[BoundaryCondition.NEUMANN], grid, side="right")
    c_dt = np.searchsorted(spectra[BoundaryCondition.PSEUDO_DIRICHLET], grid, side="right")
    c_d = np.searchsorted(spectra[BoundaryCondition.DIRICHLET], grid, side="right")
    # array methods rather than np.all: this runs once per shape in verify
    return bool((c_n >= c_dt).all() and (c_dt >= c_d).all())


def default_grid(d: int, points: int = 512, refine: int = 40) -> np.ndarray:
    """Uniform grid on [0, 4d] plus geometric refinement at both edges."""
    width = 4.0 * d
    uniform = np.linspace(0.0, width, points)
    k = np.arange(1, refine + 1, dtype=np.float64)
    low = width * 0.5 ** k
    high = width - low
    return np.unique(np.concatenate((uniform, low, high)))


@dataclass
class EmpiricalIDS:
    """Right-continuous step function E -> (#eigenvalues <= E) / |Lambda|.

    Counts use a snap tolerance of 1e-12 * 4d: spectra carry atoms at
    rational energies (e.g. E = 2 in d = 1), and the dense eigensolver
    scatters those eigenvalues by a few ulps on either side of the exact
    value.  The tolerance keeps the whole atom on the counted side, the
    same convention the inertia counter enforces by shifting off
    near-singular pivots.
    """

    bc: BoundaryCondition
    d: int
    total_vertices: int
    eigenvalues: np.ndarray  # sorted pool, weight 1/total_vertices each
    grid: np.ndarray
    grid_values: np.ndarray
    n_clusters: int
    grid_collisions: np.ndarray = field(default_factory=lambda: np.empty(0))
    extra_grid_counts: np.ndarray | None = None  # clusters above dense threshold

    def evaluate(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=np.float64)
        snap = ATOM_TOL_FACTOR * 4 * self.d
        counts = np.searchsorted(self.eigenvalues, E + snap, side="right").astype(np.float64)
        if self.extra_grid_counts is not None:
            pos = np.searchsorted(self.grid, E, side="right") - 1
            counts += np.where(pos >= 0, self.extra_grid_counts[np.maximum(pos, 0)], 0)
        return counts / self.total_vertices


def empirical_ids(graphs, bc: BoundaryCondition, grid=None, cache=None) -> EmpiricalIDS:
    """Pool cluster spectra of an ensemble with weight 1/(total vertices).

    ``graphs`` are realizations of one dimension or their
    :class:`ShapeEnsemble`.  Each shape's spectrum, or above the dense
    threshold its inertia counts on the grid, enters once per cluster.
    """
    ensemble = graphs if isinstance(graphs, ShapeEnsemble) else ShapeEnsemble(graphs)
    if grid is None:
        grid = default_grid(ensemble.d)
    grid = np.asarray(grid, dtype=np.float64)

    pools = []
    extra = None
    for c, m in zip(ensemble.shapes, ensemble.counts):
        if c.n_vertices > DENSE_THRESHOLD:
            op = assemble(c, bc)
            inertia = m * np.array([count_leq(op, E) for E in grid], dtype=np.int64)
            extra = inertia if extra is None else extra + inertia
        else:
            pools.append(np.tile(cluster_eigenvalues(c, bc, cache), m))
    pooled = np.sort(np.concatenate(pools)) if pools else np.empty(0)

    tol = ATOM_TOL_FACTOR * 4 * ensemble.d
    counts = np.searchsorted(pooled, grid + tol, side="right").astype(np.float64)
    if extra is not None:
        counts += extra
    values = counts / ensemble.total_vertices

    if pooled.size:
        near = np.searchsorted(pooled, grid - tol)
        hit = near < pooled.size
        hit[hit] = np.abs(pooled[near[hit]] - grid[hit]) <= tol
        collisions = grid[hit]
    else:
        collisions = np.empty(0)
    if collisions.size:
        log.info("%d grid points collide with detected eigenvalues", collisions.size)

    return EmpiricalIDS(
        bc=bc,
        d=ensemble.d,
        total_vertices=ensemble.total_vertices,
        eigenvalues=pooled,
        grid=grid,
        grid_values=values,
        n_clusters=ensemble.n_clusters,
        grid_collisions=collisions,
        extra_grid_counts=extra,
    )


def zero_mode_density(graphs, tol: float | None = None) -> float:
    """Density of Neumann zero modes; equals (#clusters)/(total vertices).

    ``graphs`` are realizations of one dimension or their
    :class:`ShapeEnsemble`.
    """
    ensemble = graphs if isinstance(graphs, ShapeEnsemble) else ShapeEnsemble(graphs)
    if tol is None:
        tol = zero_tolerance(ensemble.d)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    # a giant shape's zero mode is in the grid counts, not in ids.eigenvalues
    ids = empirical_ids(ensemble, BoundaryCondition.NEUMANN, grid=[tol])
    return float(ids.evaluate(tol))
