"""Spectra, inertia-based eigenvalue counting, and the empirical IDS.

The empirical IDS works on a :class:`~perclap.lattice.ShapeEnsemble`:
each distinct cluster shape is diagonalized once per boundary condition
and its spectrum pooled with the shape's multiplicity.  Spectra are
cached by the translation-invariant canonical key, so the stages of a
run share them.  Shapes above :data:`DENSE_THRESHOLD` are not
diagonalized; :func:`count_leq` counts their eigenvalues at each grid
energy from the pivot signs of a sparse SuperLU factorization
(Sylvester's law of inertia), and falls back to a dense Bunch-Kaufman
LDL^T only at energies where the sparse factorization breaks down.  The
counting convention is right-continuous throughout: N(E) counts
eigenvalues <= E.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
# re-entrant count_leq calls allowed for one energy before NumericError
MAX_INERTIA_RETRIES = 8


def zero_tolerance(d: int) -> float:
    return ZERO_TOL_FACTOR * 4 * d


def eigenvalues(op: SymmetricOperator) -> np.ndarray:
    """All eigenvalues, ascending (dense symmetric solver)."""
    if op.n > DENSE_THRESHOLD:
        raise DomainError(
            f"cluster size {op.n} above dense threshold {DENSE_THRESHOLD}"
        )
    try:
        return np.linalg.eigvalsh(op.matrix.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed on cluster with root vertex "
            f"{int(op.cluster.vertices[0])}: {exc}"
        ) from exc


def _root(op: SymmetricOperator) -> int:
    return int(op.cluster.vertices[0])


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
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import splu

    shifted = csc_matrix(op.matrix, dtype=np.float64) - E * identity(op.n, format="csc")
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "exactly singular" in str(exc):
            return None
        raise NumericError(
            f"sparse LU failed on cluster with root vertex {_root(op)} at E={E}: {exc}"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu.U.diagonal()


def _ldl_block_eigenvalues(dmat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the (1x1 / 2x2) block-diagonal factor of an LDL^T."""
    n = dmat.shape[0]
    out = np.empty(n)
    i = 0
    while i < n:
        if i + 1 < n and dmat[i + 1, i] != 0.0:
            a, b, c = dmat[i, i], dmat[i + 1, i], dmat[i + 1, i + 1]
            half = 0.5 * (a + c)
            disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
            out[i] = half - disc
            out[i + 1] = half + disc
            i += 2
        else:
            out[i] = dmat[i, i]
            i += 1
    return out


def _ldl_pivots(op: SymmetricOperator, E: float) -> np.ndarray:
    """Block pivots of a dense Bunch-Kaufman LDL^T of (matrix - E*I)."""
    shifted = op.matrix.astype(np.float64)
    if not isinstance(shifted, np.ndarray):
        shifted = shifted.toarray()
    shifted[np.diag_indices_from(shifted)] -= E
    try:
        _, dmat, _ = scipy.linalg.ldl(shifted)
    except Exception as exc:  # LAPACK failure
        raise NumericError(
            f"LDL factorization failed on cluster with root vertex {_root(op)} "
            f"at E={E}: {exc}"
        ) from exc
    return _ldl_block_eigenvalues(dmat)


def count_leq(op: SymmetricOperator, E: float, _retries: int = 0) -> int:
    """Number of eigenvalues <= E via the inertia of (matrix - E*I).

    ``op.matrix`` may be dense or sparse.  By Sylvester's law of inertia
    the count is the number of negative pivots of a congruence
    L D L^T; the first factorization is the sparse SuperLU one of
    :func:`_lu_pivots`.  A factorization breaks down when SuperLU reports
    the matrix exactly singular, when its row and column permutations
    differ, or when a pivot is smaller in magnitude than 1e-12 * 4d.

    On a breakdown (E sits on or next to an eigenvalue, the unpivoted
    sparse LU meets a tiny pivot, or E is an integer, which the sparse
    factorization refuses) ``count_leq`` calls itself again at
    E + 1e-12 * 4d, which puts an eigenvalue at E on the counted side.
    If the sparse factorization breaks down there too, that energy is
    counted with the dense Bunch-Kaufman LDL^T, moving up by 1e-12 * 4d
    per further breakdown.  Unpivoted sparse LU cannot get past energies
    where a giant cluster has an eigenvalue of high multiplicity (Neumann
    E = 1 or 2, pseudo-Dirichlet E = 2d), which the pivoted dense
    factorization handles.  The dense count starts at the shifted energy,
    not at E: on an eigenvalue, the dense LDL^T at E itself can lose one
    without showing a small pivot.  Every retry is logged; after
    :data:`MAX_INERTIA_RETRIES` the count raises :class:`NumericError`.
    ``_retries`` is internal: the number of calls made before this one
    for the same count.
    """
    width = op.spectral_width
    pivots = _ldl_pivots(op, E) if _retries >= 2 else _lu_pivots(op, E)
    breakdown = ZERO_TOL_FACTOR * 1e-3 * width  # |pivot| ~ 0
    if pivots is not None and np.abs(pivots).min() >= breakdown:
        return int(np.count_nonzero(pivots < 0.0))
    if _retries == MAX_INERTIA_RETRIES:
        raise NumericError(
            f"inertia count on cluster with root vertex {_root(op)} broke down "
            f"{_retries + 1} times, last at E={E}"
        )
    retry = E if _retries == 1 else E + 1e-12 * width
    log.warning("inertia count at E=%.17g broke down, retrying at E=%.17g (%s)", E, retry,
                "dense LDL" if _retries >= 1 else "sparse LU")
    return count_leq(op, retry, _retries + 1)


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


# Checks on the spectra of one cluster, as returned by cluster_spectra.
# The [0, 4d] range check takes its tolerance from the caller (verify
# uses zero_tolerance(d)).

REFLECTION_TOL = 1e-9  # entrywise |spec(D) - (4d - spec(N))|
REFLECTION_MAX_VERTICES = 500  # verify checks the reflection up to this size


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


def reflection_check(cluster: Cluster, tol: float):
    """Dirichlet spectrum vs the reflected Neumann spectrum.

    Returns (ok, max absolute deviation), see :func:`reflection_deviation`.
    """
    dev = reflection_deviation(cluster_spectra(cluster), cluster.d)
    return dev <= tol, dev


def chain_check(cluster: Cluster, grid, tol: float) -> bool:
    """Eigenvalue-count ordering N >= Dt >= D on an energy grid.

    Also requires every eigenvalue to lie in [-tol, 4d + tol].
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("energy grid must be nonempty")
    spectra = cluster_spectra(cluster)
    return range_violations(spectra, cluster.d, tol) == 0 and chain_holds(spectra, grid)


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
    total_vertices: int
    eigenvalues: np.ndarray  # sorted pool, weight 1/total_vertices each
    grid: np.ndarray
    grid_values: np.ndarray
    n_clusters: int
    grid_collisions: np.ndarray = field(default_factory=lambda: np.empty(0))
    extra_grid_counts: np.ndarray | None = None  # clusters above dense threshold

    def evaluate(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=np.float64)
        snap = ATOM_TOL_FACTOR * float(self.grid[-1])
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
        total_vertices=ensemble.total_vertices,
        eigenvalues=pooled,
        grid=grid,
        grid_values=values,
        n_clusters=ensemble.n_clusters,
        grid_collisions=collisions,
        extra_grid_counts=extra,
    )


def zero_mode_density(graphs, tol: float | None = None) -> float:
    """Density of Neumann zero modes; equals (#clusters)/(total vertices)."""
    ensemble = ShapeEnsemble(graphs)
    if tol is None:
        tol = zero_tolerance(ensemble.d)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    ids = empirical_ids(ensemble, BoundaryCondition.NEUMANN)
    count = int(np.searchsorted(ids.eigenvalues, tol, side="right"))
    return count / ids.total_vertices
