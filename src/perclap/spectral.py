"""Spectra, inertia-based eigenvalue counting, and the empirical IDS.

The empirical IDS works on a :class:`~perclap.lattice.ShapeEnsemble`:
each distinct cluster shape is diagonalized once per boundary condition
and its spectrum pooled with the shape's multiplicity.  Spectra are
cached by the translation-invariant canonical key, so the stages of a
run share them.  The counting convention is right-continuous
throughout: N(E) counts eigenvalues <= E.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import DomainError, NumericError
from .laplacian import ALL_BCS, BoundaryCondition, SymmetricOperator, assemble
from .lattice import Cluster, ShapeEnsemble

log = logging.getLogger(__name__)

DENSE_THRESHOLD = 2048
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
    try:
        return np.linalg.eigvalsh(op.matrix.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed on cluster with root vertex "
            f"{int(op.cluster.vertices[0])}: {exc}"
        ) from exc


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


def count_leq(op: SymmetricOperator, E: float) -> int:
    """Number of eigenvalues <= E via the inertia of (matrix - E*I).

    If the shift lands on an eigenvalue (factorization of a singular
    matrix), the count is retried at E + 1e-12 * 4d and the retry logged.
    """
    width = op.spectral_width
    shifted = op.matrix.astype(np.float64)
    shifted[np.diag_indices_from(shifted)] -= E
    try:
        _, dmat, _ = scipy.linalg.ldl(shifted)
    except Exception as exc:  # LAPACK failure
        raise NumericError(
            f"LDL factorization failed on cluster with root vertex "
            f"{int(op.cluster.vertices[0])} at E={E}: {exc}"
        ) from exc
    block = _ldl_block_eigenvalues(dmat)
    breakdown = ZERO_TOL_FACTOR * 1e-3 * width  # |pivot eigenvalue| ~ 0
    if np.any(np.abs(block) < breakdown):
        eps = 1e-12 * width
        log.warning("inertia shift E=%g hit an eigenvalue, retrying at E+%g", E, eps)
        return count_leq(op, E + eps)
    return int(np.count_nonzero(block < 0.0))


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
