"""Spectra, inertia-based eigenvalue counting, and the empirical IDS.

The empirical IDS works on a :class:`~perclap.lattice.ShapeEnsemble`:
each distinct cluster shape is diagonalized once per boundary condition
and its spectrum pooled with the shape's multiplicity.
:func:`shape_spectra` diagonalizes the shapes in bulk: shapes of one
vertex count go through one stacked ``eigvalsh`` call per chunk of at
most ``DENSE_THRESHOLD**2`` matrix entries, and the spectra it returns
are bitwise those of solving each shape alone.  Spectra are cached by
the translation-invariant canonical key, so the stages of a run share
them.  Shapes above :data:`DENSE_THRESHOLD` are not
diagonalized up front; :func:`count_leq` counts their eigenvalues at
each grid energy below 4d from the pivot signs of a sparse SuperLU
factorization (Sylvester's law of inertia), and at E >= 4d (1 - 1e-12)
returns the vertex count, as the pooled IDS's snap does.  Only at an
energy where that factorization breaks down twice does it read the
count off the shape's dense spectrum, computed once per operator.

:func:`giant_grid_counts` makes those counts for one such shape and
keeps them in the run's cache.  Lattice clusters are bipartite, so D
has the spectrum of 4d - N and Dt that of 4d - Dt (:data:`MIRROR`):
one clean factorization at E counts its own condition at E and the
mirror condition at the grid energy paired with 4d - E
(:func:`mirror_partners`).  The shape's three operators share one
elimination order, fixed by its first factorization; later energies
are factored in that order without ordering again.  The counting
convention is right-continuous throughout: N(E) counts eigenvalues <= E.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .exceptions import DomainError, NumericError
from .laplacian import (
    ALL_BCS,
    DENSE_THRESHOLD,
    BoundaryCondition,
    SymmetricOperator,
    assemble,
    dense_stack,
)
from .lattice import Cluster, ShapeEnsemble

log = logging.getLogger(__name__)

ZERO_TOL_FACTOR = 1e-9  # relative to the spectral width 4d
ATOM_TOL_FACTOR = 1e-12  # snap tolerance for counting at spectral atoms


def zero_tolerance(d: int) -> float:
    return ZERO_TOL_FACTOR * 4 * d


def require_dense(n: int) -> None:
    """Refuse a dense solve of an n-vertex cluster above the threshold."""
    if n > DENSE_THRESHOLD:
        raise DomainError(f"cluster size {n} above dense threshold {DENSE_THRESHOLD}")


def eigenvalues(op: SymmetricOperator) -> np.ndarray:
    """All eigenvalues, ascending (dense symmetric solver)."""
    require_dense(op.n)
    return op.spectrum


def _refused(E: float) -> bool:
    """True for an energy :func:`_lu_pivots` never factors."""
    return not math.isfinite(E) or float(E).is_integer()


def _lu_pivots(op: SymmetricOperator, E: float):
    """diag(U) of a sparse symmetric-mode LU of (matrix - E*I), or None.

    Without row pivoting and with ``perm_r == perm_c``, SuperLU factors
    P (A - E I) P^T = L U, and U = D L^T with D the pivots of an LDL^T
    congruence.  None when SuperLU finds the matrix exactly singular or
    the permutations differ, so that the factorization is no congruence.

    The matrix factored is ``op.shifted``
    (:class:`~perclap.laplacian.ShiftedMatrix`) with its diagonal set for
    E.  Its first factorization orders the columns by MMD on A + A^T and
    stores the matrix in that order; A - E I has the same pattern at every
    energy, so every later factorization of the operator keeps that order
    (``NATURAL``) and skips the ordering step.  ``panel_size=1`` is a
    measured constant (2-vCPU AMD EPYC, scipy 1.17): on Neumann operators
    of 2.7k, 24k and 62k vertices a factorization in the stored order took
    1.9, 12 and 42 ms with it and 3.3, 27 and 94 ms with SuperLU's default
    panel, against 4.9, 40 and 137 ms for an MMD-ordered one at the default.

    None also, without factorizing, for an integer or non-finite E.  At
    an integer E, A - E I is an integer matrix, and its elimination meets
    exact zero pivots whenever E is an eigenvalue of a leading principal
    submatrix (always on the all-zero diagonal of pseudo-Dirichlet at
    E = 2d).  On such a matrix SuperLU's unpivoted path depends on
    uninitialized memory, and it has crashed the interpreter.  A rational
    eigenvalue of an integer matrix is an integer, so at any other finite
    E every exact pivot is nonzero.
    """
    if _refused(E):
        return None
    shifted = op.shifted
    try:
        lu = scipy.sparse.linalg.splu(
            shifted.at(E), permc_spec="MMD_AT_PLUS_A" if shifted.perm is None else "NATURAL",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True}, panel_size=1)
    except RuntimeError as exc:
        if "exactly singular" in str(exc):
            return None
        raise NumericError(
            f"sparse LU failed on cluster with root vertex "
            f"{int(op.cluster.vertices[0])} at E={E}: {exc}"
        ) from exc
    if shifted.perm is None:
        shifted.reorder(lu.perm_c)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu.U.diagonal()


def _counts_all(E: float, width: float) -> bool:
    """True where every eigenvalue counts: E >= 4d - 1e-12 * 4d.

    By Gershgorin every N, Dt and D spectrum lies in [0, 4d], and an
    eigenvalue at 4d (Dirichlet has one on every cluster, the mirror of
    the Neumann zero mode) is within the snap of such an E, which the
    pooled IDS counts.  A factorization there would leave it out.
    """
    return E >= width * (1.0 - ATOM_TOL_FACTOR)


def count_leq(op: SymmetricOperator, E: float, _shift: bool = True, *,
              report_clean: bool = False):
    """Number of eigenvalues <= E via the inertia of (matrix - E*I).

    ``op.matrix`` may be dense or sparse.  For E >= 4d (1 - 1e-12) the
    count is ``op.n`` without a factorization (:func:`_counts_all`).
    Below that, by Sylvester's law of inertia,
    the count is the number of negative pivots of the congruence
    L D L^T of :func:`_lu_pivots`.  That factorization breaks down when
    SuperLU reports the matrix exactly singular, when its row and column
    permutations differ, or when a pivot is smaller in magnitude than
    1e-12 * 4d; it is not made at an integer E.

    At an integer E, or on a breakdown, ``count_leq`` calls itself once
    at E + 1e-12 * 4d, which puts an eigenvalue at E on the counted side.
    If the sparse factorization breaks down there too, the count at that
    shifted energy is read off the operator's dense spectrum
    (:attr:`~perclap.laplacian.SymmetricOperator.spectrum`, computed at
    most once per operator), the same snap convention as the pooled
    IDS.  Unpivoted sparse LU cannot get past energies where a giant
    cluster has an eigenvalue of high multiplicity (Neumann E = 1 or 2,
    pseudo-Dirichlet E = 2d).  The planned integer shift is logged at
    DEBUG, breakdowns and the dense fallback at WARNING.  ``_shift`` is
    internal: False in the shifted call.

    With ``report_clean`` the result is ``(count, clean)``.  ``clean`` is
    True when the count was read off one factorization at E itself with
    no pivot near 0: then no eigenvalue equals E, and the other
    ``op.n - count`` eigenvalues are all > E.
    """
    clean = False
    if _counts_all(E, op.spectral_width):
        count = op.n
    else:
        pivots = _lu_pivots(op, E)
        breakdown = ZERO_TOL_FACTOR * 1e-3 * op.spectral_width  # |pivot| ~ 0
        clean = pivots is not None and bool(np.abs(pivots).min() >= breakdown)
        if clean:
            count = int(np.count_nonzero(pivots < 0.0))
        elif _shift:
            shifted = E + ATOM_TOL_FACTOR * op.spectral_width
            if _refused(E):
                log.debug("inertia count at E=%.17g is not factored, counting at E=%.17g",
                          E, shifted)
            else:
                log.warning("inertia count at E=%.17g broke down, retrying at E=%.17g",
                            E, shifted)
            count = count_leq(op, shifted, _shift=False)
        else:
            log.warning("inertia count at E=%.17g broke down, counting the dense spectrum", E)
            count = int(np.searchsorted(op.spectrum, E, side="right"))
    return (count, clean) if report_clean else count


# On a bipartite cluster, with S = diag((-1)^|x|), S (deg - A) S = deg + A,
# so D = 4d I - S N S and Dt = 4d I - S Dt S: the spectrum of each
# condition is 4d minus that of its mirror.
MIRROR = {
    BoundaryCondition.NEUMANN: BoundaryCondition.DIRICHLET,
    BoundaryCondition.PSEUDO_DIRICHLET: BoundaryCondition.PSEUDO_DIRICHLET,
    BoundaryCondition.DIRICHLET: BoundaryCondition.NEUMANN,
}


def mirror_partners(grid: np.ndarray, d: int) -> np.ndarray:
    """For each grid energy E, the index of the grid energy nearest 4d - E,
    or -1 if none lies within ``ATOM_TOL_FACTOR * 4d`` of it.

    A tolerance, not equality: ``linspace`` is not bitwise symmetric, and
    on the default grids a partner sits up to 2 ulps off 4d - E.
    """
    width = 4 * d
    order = np.argsort(grid, kind="stable")
    ranked = grid[order]
    target = width - grid
    pos = np.searchsorted(ranked, target)
    lo = np.clip(pos - 1, 0, ranked.size - 1)
    hi = np.clip(pos, 0, ranked.size - 1)
    nearest = order[np.where(np.abs(ranked[hi] - target) < np.abs(ranked[lo] - target), hi, lo)]
    return np.where(np.abs(grid[nearest] - target) <= ATOM_TOL_FACTOR * width, nearest, -1)


@dataclass
class GiantCounts:
    """Grid counts of one shape above :data:`DENSE_THRESHOLD`, shared by
    its three operators through the run's cache."""

    perm: np.ndarray | None = None  # elimination order of the shape's first factorization
    counts: dict = field(default_factory=dict)  # (bc value, E) -> eigenvalues <= E
    mirrored: set = field(default_factory=set)  # keys of counts read off a mirror's pivots


def giant_grid_counts(cluster: Cluster, bc: BoundaryCondition, grid: np.ndarray,
                      cache) -> np.ndarray:
    """Eigenvalues <= E of one shape above the dense threshold under ``bc``,
    at every energy of ``grid``, as an int64 array.

    The shape's counts and elimination order are kept in ``cache`` under
    ``("giant", cluster.canonical_key())`` (a :class:`GiantCounts`), so
    a later call for any boundary condition reads what an earlier one
    found.  The first factorization of any of the shape's operators fixes
    the elimination order of all three.

    Every eigenvalue counts at E >= 4d (1 - 1e-12) (:func:`_counts_all`);
    each energy below is counted by :func:`count_leq`.  One clean
    factorization there (see its ``report_clean``) also counts the mirror
    condition (:data:`MIRROR`) at the partner energy g ~ 4d - E of
    :func:`mirror_partners`: its count there is n - count, when g is not
    an integer and E lies at least the snap 1e-12 * 4d above 0.  Below
    that, the eigenvalues > E leave out the partner's eigenvalue at 4d,
    the mirror of the zero mode, which the snap counts at g.  For a
    pseudo-Dirichlet energy E < 2d the partner is above 2d; those are
    counted last, so they are read off their partner's factorization
    rather than factored.  Integer energies,
    unpaired ones and partners of unclean factorizations keep
    :func:`count_leq` with its shifted retry and dense fallback.
    """
    d, n = cluster.d, cluster.n_vertices
    snap = ATOM_TOL_FACTOR * 4 * d
    shape = cache.setdefault(("giant", cluster.canonical_key()), GiantCounts())
    mirror = MIRROR[bc]
    partners = mirror_partners(grid, d)
    out = np.empty(grid.size, dtype=np.int64)
    op = None
    tally = Counter()
    for i in np.argsort(grid > 2 * d, kind="stable").tolist():
        E = float(grid[i])
        key = (bc.value, E)
        if key in shape.counts:
            out[i] = shape.counts[key]
            tally["mirrored" if key in shape.mirrored else "cached"] += 1
            continue
        if _counts_all(E, 4 * d):
            out[i] = n
            tally["unfactored"] += 1
        else:
            if op is None:
                op = assemble(cluster, bc)
                if shape.perm is not None:
                    op.shifted.reorder(shape.perm)
            out[i], clean = count_leq(op, E, report_clean=True)
            tally["factored" if clean else "shifted"] += 1
            j = int(partners[i])
            if clean and j >= 0 and snap <= E <= 4 * d - snap:
                g = float(grid[j])
                mkey = (mirror.value, g)
                if (not _refused(g) and mkey not in shape.counts
                        and (mirror is not bc or E < 2 * d < g)):
                    shape.counts[mkey] = n - int(out[i])  # the eigenvalues > E
                    shape.mirrored.add(mkey)
        shape.counts[key] = int(out[i])
    if op is not None and shape.perm is None:
        shape.perm = op.shifted.perm
    log.debug("bc %s, giant shape of %d vertices: %d energies factored, %d mirrored, "
              "%d shifted, %d unfactored (E >= 4d), %d cached",
              bc.value, n, tally["factored"], tally["mirrored"], tally["shifted"],
              tally["unfactored"], tally["cached"])
    return out


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


def _stacked_eigenvalues(shapes, bc: BoundaryCondition):
    """Spectra of shapes of one vertex count, one per shape, from one
    stacked solve.

    If the stacked solver fails, the shapes are solved one by one, so
    the :class:`NumericError` names the failing cluster.
    """
    try:
        return np.linalg.eigvalsh(dense_stack(shapes, bc).astype(np.float64))
    except np.linalg.LinAlgError:
        return [eigenvalues(assemble(c, bc)) for c in shapes]


def shape_spectra(ensemble: ShapeEnsemble, bc: BoundaryCondition, cache) -> list:
    """Spectrum of every shape of ``ensemble``, by shape id.

    None for a shape above :data:`DENSE_THRESHOLD`.  Uncached shapes of
    2 to ``DENSE_THRESHOLD`` vertices are grouped by vertex count; a
    group of one goes through :func:`cluster_eigenvalues`, a larger one
    through stacked solves of at most ``DENSE_THRESHOLD**2`` matrix
    entries each.  Every spectrum solved is stored in ``cache``.
    """
    spectra = [None] * len(ensemble.shapes)
    pending = {}  # vertex count -> ids of uncached shapes
    for sid, c in enumerate(ensemble.shapes):
        n = c.n_vertices
        if n > DENSE_THRESHOLD:
            continue
        if n == 1:
            spectra[sid] = cluster_eigenvalues(c, bc, cache)
            continue
        spectra[sid] = cache.get((bc.value, c.canonical_key()))
        if spectra[sid] is None:
            pending.setdefault(n, []).append(sid)
    stacked = singles = 0
    for n, sids in pending.items():
        if len(sids) == 1:
            spectra[sids[0]] = cluster_eigenvalues(ensemble.shapes[sids[0]], bc, cache)
            singles += 1
            continue
        per_chunk = DENSE_THRESHOLD ** 2 // (n * n)
        for lo in range(0, len(sids), per_chunk):
            chunk = sids[lo:lo + per_chunk]
            shapes = [ensemble.shapes[sid] for sid in chunk]
            for sid, c, eigs in zip(chunk, shapes, _stacked_eigenvalues(shapes, bc)):
                spectra[sid] = cache[(bc.value, c.canonical_key())] = eigs
            stacked += 1
    log.debug("bc %s: %d shapes solved, %d stacked calls, %d single solves",
              bc.value, sum(map(len, pending.values())), stacked, singles)
    return spectra


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

    The pool is kept by weight: ``values`` holds the spectrum of every
    shape up to the dense threshold once, sorted, and
    ``cumulative[i]`` the number of pooled eigenvalues among
    ``values[:i]``, each counted with its shape's multiplicity.  The
    expanded multiset, one eigenvalue per vertex, is
    :attr:`eigenvalues`, built only when read.

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
    values: np.ndarray  # sorted distinct-shape spectra, each shape once
    cumulative: np.ndarray  # int64, size values.size + 1, starts at 0
    grid: np.ndarray  # sorted, distinct
    n_clusters: int
    grid_collisions: np.ndarray = field(default_factory=lambda: np.empty(0))
    extra_grid_counts: np.ndarray | None = None  # clusters above dense threshold
    grid_values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.grid_values = self.evaluate(self.grid)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The sorted pool, weight 1/total_vertices each."""
        return np.repeat(self.values, np.diff(self.cumulative))

    def evaluate(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=np.float64)
        snap = ATOM_TOL_FACTOR * 4 * self.d
        counts = self.cumulative[np.searchsorted(self.values, E + snap, side="right")]
        counts = counts.astype(np.float64)
        if self.extra_grid_counts is not None:
            pos = np.searchsorted(self.grid, E, side="right") - 1
            counts += np.where(pos >= 0, self.extra_grid_counts[np.maximum(pos, 0)], 0)
        return counts / self.total_vertices


def empirical_ids(graphs, bc: BoundaryCondition, grid=None, cache=None) -> EmpiricalIDS:
    """Pool cluster spectra of an ensemble with weight 1/(total vertices).

    ``graphs`` are realizations of one dimension or their
    :class:`ShapeEnsemble`.  Each shape's spectrum enters the pool once,
    weighted by the shape's multiplicity; above the dense threshold its
    inertia counts on the grid, times that multiplicity, are added to
    the grid counts instead.  The grid is kept sorted and distinct, the
    order :meth:`EmpiricalIDS.evaluate` reads those counts in.
    """
    ensemble = graphs if isinstance(graphs, ShapeEnsemble) else ShapeEnsemble(graphs)
    grid = default_grid(ensemble.d) if grid is None else np.unique(np.asarray(grid, float))

    if cache is None:
        cache = _SPECTRUM_CACHE
    pools, dense_ids = [], []
    extra = None
    spectra = shape_spectra(ensemble, bc, cache)
    for i, (c, m, eigs) in enumerate(zip(ensemble.shapes, ensemble.counts.tolist(), spectra)):
        if eigs is None:
            inertia = m * giant_grid_counts(c, bc, grid, cache)
            extra = inertia if extra is None else extra + inertia
        else:
            pools.append(eigs)
            dense_ids.append(i)
    if pools:
        values = np.concatenate(pools)
        rank = np.argsort(values, kind="stable")
        values = values[rank]
        weights = np.repeat(ensemble.counts[dense_ids], [eigs.size for eigs in pools])
        cumulative = np.concatenate(([0], np.cumsum(weights[rank])))
    else:
        values, cumulative = np.empty(0), np.zeros(1, dtype=np.int64)

    tol = ATOM_TOL_FACTOR * 4 * ensemble.d
    if values.size:
        near = np.searchsorted(values, grid - tol)
        hit = near < values.size
        hit[hit] = np.abs(values[near[hit]] - grid[hit]) <= tol
        collisions = grid[hit]
    else:
        collisions = np.empty(0)
    if collisions.size:
        log.info("%d grid points collide with detected eigenvalues", collisions.size)

    return EmpiricalIDS(
        bc=bc,
        d=ensemble.d,
        total_vertices=ensemble.total_vertices,
        values=values,
        cumulative=cumulative,
        grid=grid,
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
    # a giant shape's zero mode is in the grid counts, not in the pooled values
    ids = empirical_ids(ensemble, BoundaryCondition.NEUMANN, grid=[tol])
    return float(ids.evaluate(tol))
