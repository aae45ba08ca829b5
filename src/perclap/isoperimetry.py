"""Cheeger and Faber-Krahn bounds checked against computed spectra.

The Cheeger constant is exact: the search runs over every connected
vertex subset of at most half the vertices, where the minimal ratio is
always attained, and keeps the minimum as an integer pair, so margins
carry no search-side floating error.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .exceptions import DomainError, UnsupportedSizeError
from .laplacian import ALL_BCS, BoundaryCondition
from .lattice import Cluster, make_cubic_cluster, make_linear_cluster
from .spectral import cluster_eigenvalues, cluster_spectra, lowest_nonzero, summarize

EXHAUSTIVE_CUTOFF = 20
MARGIN_TOL = 1e-12  # a bound margin below -MARGIN_TOL is a violation


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


def lowest_nonzero_neumann(cluster: Cluster) -> float:
    return summarize(cluster, BoundaryCondition.NEUMANN).lowest_nonzero


def cheeger_margin(e1_n: float, h: Fraction, d: int) -> float:
    """Margin of E1_N >= h_Ch^2 / (4d); nonnegative when the bound holds."""
    return e1_n - float(h * h) / (4 * d)


def crude_margin(e1_n: float, n: int, d: int) -> float:
    """Margin of E1_N >= 1/(d |V|^2); valid for clusters of any size."""
    return e1_n - 1.0 / (d * n * n)


def check_cheeger(cluster: Cluster) -> float:
    """Cheeger margin of one cluster of at most EXHAUSTIVE_CUTOFF vertices."""
    h = cheeger_constant(cluster)
    return cheeger_margin(lowest_nonzero_neumann(cluster), h, cluster.d)


def check_crude_cheeger(cluster: Cluster) -> float:
    """Crude-gap margin of one cluster of at least 2 vertices."""
    n = cluster.n_vertices
    if n < 2:
        raise DomainError("crude Cheeger bound needs at least 2 vertices")
    return crude_margin(lowest_nonzero_neumann(cluster), n, cluster.d)


def fk_ratio(cluster: Cluster, spectra=None) -> float:
    """E1_Dt * |V|^(2/d), the scale-free Faber-Krahn ratio.

    ``spectra`` are the cluster's spectra from :func:`cluster_spectra`;
    without them the spectrum is looked up in the default cache.
    """
    n = cluster.n_vertices
    if n < 2:
        raise DomainError("Faber-Krahn ratio needs at least 2 vertices")
    bc = BoundaryCondition.PSEUDO_DIRICHLET
    eigs = cluster_eigenvalues(cluster, bc) if spectra is None else spectra[bc]
    return lowest_nonzero(eigs, bc) * n ** (2.0 / cluster.d)


def estimate_fk_constant(cluster_list) -> float:
    """Empirical lower bound for the Faber-Krahn constant of a population."""
    ratios = [fk_ratio(c) for c in cluster_list if c.n_vertices >= 2]
    if not ratios:
        raise DomainError("no clusters with at least 2 vertices supplied")
    return min(ratios)


def linear_bound_check(n: int, d: int) -> float:
    """Margin of E1_N(path of n) <= 12/n^2."""
    e1 = lowest_nonzero_neumann(make_linear_cluster(n, d))
    return 12.0 / (n * n) - e1


def cubic_bound_check(l: int, d: int) -> float:
    """Margin of E1_D(cube of side l) <= 27d/l^2."""
    e1 = summarize(make_cubic_cluster(l, d), BoundaryCondition.DIRICHLET).lowest_nonzero
    return 27.0 * d / (l * l) - e1


@dataclass(frozen=True)
class IsoperimetryReport:
    """Eigenvalue bounds of one cluster; h_ch is None above the cutoff."""

    n_vertices: int
    e1_neumann: float
    e1_pseudo_dirichlet: float
    e1_dirichlet: float
    h_cheeger: Fraction | None
    cheeger_margin: float | None
    crude_margin: float
    fk_ratio: float

    @property
    def cheeger_violated(self) -> bool:
        return self.cheeger_margin is not None and self.cheeger_margin < -MARGIN_TOL

    @property
    def crude_violated(self) -> bool:
        return self.crude_margin < -MARGIN_TOL


def report_cluster(cluster: Cluster, spectra=None) -> IsoperimetryReport:
    """Gaps, Cheeger and crude margins and FK ratio of one cluster.

    ``spectra`` are the cluster's spectra from :func:`cluster_spectra`;
    without them they are looked up in the default cache.
    """
    n, d = cluster.n_vertices, cluster.d
    if n < 2:
        raise DomainError("isoperimetry report needs at least 2 vertices")
    if spectra is None:
        spectra = cluster_spectra(cluster)
    e1_n, e1_dt, e1_d = (lowest_nonzero(spectra[bc], bc) for bc in ALL_BCS)
    if n <= EXHAUSTIVE_CUTOFF:
        h = cheeger_constant(cluster)
        ch_margin = cheeger_margin(e1_n, h, d)
    else:
        h = None
        ch_margin = None
    return IsoperimetryReport(
        n_vertices=n,
        e1_neumann=e1_n,
        e1_pseudo_dirichlet=e1_dt,
        e1_dirichlet=e1_d,
        h_cheeger=h,
        cheeger_margin=ch_margin,
        crude_margin=crude_margin(e1_n, n, d),
        fk_ratio=fk_ratio(cluster, spectra),
    )
