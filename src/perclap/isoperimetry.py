"""Cheeger and Faber-Krahn bounds checked against computed spectra.

The Cheeger constant is exact: :func:`kernels.best_cheeger_cut` takes
the best bridge when a bound proves it optimal and otherwise searches
every connected vertex subset of at most half the vertices, where the
minimal ratio is always attained; the minimum is an integer pair, so
margins carry no search-side floating error.

:func:`check_stack` is verify's one implementation of every check, on
the stacked spectra of shapes of one vertex count.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .exceptions import DomainError, UnsupportedSizeError
from .laplacian import ALL_BCS, BoundaryCondition
from .lattice import Cluster, make_cubic_cluster, make_linear_cluster
from .spectral import cluster_eigenvalues, lowest_nonzero, zero_tolerance

EXHAUSTIVE_CUTOFF = 20
MARGIN_TOL = 1e-12  # a bound margin below -MARGIN_TOL is a violation
REFLECTION_TOL = 1e-9  # entrywise |spec(D) - (4d - spec(N))|
VIOLATION_KINDS = ("reflection", "chain", "cheeger", "crude", "range")


def cheeger_constant(cluster: Cluster) -> Fraction:
    """Minimal |boundary edges| / |W| over subsets W with |W| <= |V|/2."""
    n = cluster.n_vertices
    if n < 2:
        raise DomainError("Cheeger constant needs at least 2 vertices")
    if n > EXHAUSTIVE_CUTOFF:
        raise UnsupportedSizeError(
            f"exhaustive Cheeger search capped at {EXHAUSTIVE_CUTOFF} vertices, got {n}"
        )
    b, w = kernels.best_cheeger_cut(n, cluster.edges[:, 0], cluster.edges[:, 1])
    return Fraction(b, w)


def cheeger_margin(e1_n: float, h: Fraction, d: int) -> float:
    """Margin of E1_N >= h_Ch^2 / (4d); nonnegative when the bound holds.

    With h = a/b, h^2 is the int true division a^2 / b^2, which Python
    rounds correctly, so it is the float of ``h * h`` without building
    that Fraction.
    """
    return e1_n - h.numerator**2 / h.denominator**2 / (4 * d)


def crude_margin(e1_n, n: int, d: int):
    """Margin of E1_N >= 1/(d |V|^2); valid for clusters of any size.
    ``e1_n`` is a float, or an array of gaps of n-vertex clusters."""
    return e1_n - 1.0 / (d * n * n)


def fk_scale(e1_dt, n: int, d: int):
    """E1_Dt * n^(2/d), the scale-free Faber-Krahn ratio of n-vertex
    clusters; ``e1_dt`` is a float or an array of their gaps."""
    return e1_dt * n ** (2.0 / d)


def fk_ratio(cluster: Cluster) -> float:
    """E1_Dt * |V|^(2/d), the scale-free Faber-Krahn ratio, from the
    spectrum in the default cache."""
    n = cluster.n_vertices
    if n < 2:
        raise DomainError("Faber-Krahn ratio needs at least 2 vertices")
    bc = BoundaryCondition.PSEUDO_DIRICHLET
    return fk_scale(lowest_nonzero(cluster_eigenvalues(cluster, bc), bc), n, cluster.d)


def linear_bound_check(n: int, d: int) -> float:
    """Margin of E1_N(path of n) <= 12/n^2."""
    bc = BoundaryCondition.NEUMANN
    e1 = lowest_nonzero(cluster_eigenvalues(make_linear_cluster(n, d), bc), bc)
    return 12.0 / (n * n) - e1


def cubic_bound_check(l: int, d: int) -> float:
    """Margin of E1_D(cube of side l) <= 27d/l^2."""
    bc = BoundaryCondition.DIRICHLET
    e1 = lowest_nonzero(cluster_eigenvalues(make_cubic_cluster(l, d), bc), bc)
    return 27.0 * d / (l * l) - e1


@dataclass(frozen=True)
class StackReport:
    """Eigenvalue bounds of shapes of one vertex count, as columns: entry
    i belongs to shape i.  ``h_cheeger`` and ``cheeger_margin`` are
    lists, of None above the cutoff; the other columns are float64
    arrays."""

    n_vertices: int
    e1_neumann: np.ndarray
    e1_pseudo_dirichlet: np.ndarray
    e1_dirichlet: np.ndarray
    h_cheeger: list
    cheeger_margin: list
    crude_margin: np.ndarray
    fk_ratio: np.ndarray


def check_stack(shapes, spectra: dict, grid):
    """Verify's verdict on shapes of one vertex count n, in bulk:
    ``(counts, report)``.

    ``spectra`` maps each boundary condition to a (k, n) array whose row
    i is the ascending spectrum of ``shapes[i]``.  ``counts`` maps each
    of :data:`VIOLATION_KINDS` to a length-k int64 array: ``range``
    counts the boundary conditions with an eigenvalue outside
    [-tol, 4d + tol], tol = ``zero_tolerance(d)``; every other kind is
    0 or 1.  The reflection |spec(D) - (4d - reversed spec(N))| is
    checked entrywise, at every size.

    The chain N >= Dt >= D of eigenvalue counts at every energy of
    ``grid`` (in any order) is a rule on positions: with pos = the
    number of grid energies below an eigenvalue, it holds iff
    pos_N <= pos_Dt <= pos_D for every i, as counts_Dt(E) > counts_N(E)
    at some grid E iff some grid E lies in [lambda_i^Dt, lambda_i^N),
    and likewise for D against Dt.

    ``report`` is the shapes' :class:`StackReport`, or None for n = 1;
    the Cheeger constant is searched shape by shape up to
    :data:`EXHAUSTIVE_CUTOFF` vertices.
    """
    n, d = shapes[0].n_vertices, shapes[0].d
    e_n, e_dt, e_d = (spectra[bc] for bc in ALL_BCS)
    k = e_n.shape[0]
    tol, width = zero_tolerance(d), 4 * d
    counts = dict.fromkeys(VIOLATION_KINDS)
    counts["reflection"] = np.abs(e_d - (width - e_n[:, ::-1])).max(axis=1) > REFLECTION_TOL
    grid = np.sort(grid)
    pos_n, pos_dt, pos_d = (np.searchsorted(grid, e) for e in (e_n, e_dt, e_d))
    counts["chain"] = ~((pos_n <= pos_dt).all(axis=1) & (pos_dt <= pos_d).all(axis=1))
    counts["range"] = sum((e[:, 0] < -tol) | (e[:, -1] > width + tol) for e in (e_n, e_dt, e_d))
    counts["cheeger"] = counts["crude"] = np.zeros(k, dtype=bool)
    report = None
    if n >= 2:
        e1_n, e1_dt = e_n[:, 1], e_dt[:, 0]
        if n <= EXHAUSTIVE_CUTOFF:
            h = [cheeger_constant(c) for c in shapes]
            ch_margin = [cheeger_margin(e, hc, d) for e, hc in zip(e1_n.tolist(), h)]
            counts["cheeger"] = np.array(ch_margin) < -MARGIN_TOL
        else:
            h = ch_margin = [None] * k
        report = StackReport(
            n_vertices=n,
            e1_neumann=e1_n,
            e1_pseudo_dirichlet=e1_dt,
            e1_dirichlet=e_d[:, 0],
            h_cheeger=h,
            cheeger_margin=ch_margin,
            crude_margin=crude_margin(e1_n, n, d),
            fk_ratio=fk_scale(e1_dt, n, d),
        )
        counts["crude"] = report.crude_margin < -MARGIN_TOL
    return {kind: c.astype(np.int64) for kind, c in counts.items()}, report

