"""Band-edge tail exponents and cluster-size decay.

The one-dimensional analytic series reaches energies far below anything
Monte Carlo can resolve: every cluster is a path, so the per-vertex
eigenvalue mass is a geometric sum over path lengths with closed-form
eigenvalue counts.  The path formulas are validated against dense
diagonalization in the test suite before being trusted here.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .config import MAX_ARRAY_ITEMS
from .exceptions import DomainError, InsufficientDataError, PrecisionError, UnsupportedSizeError
from .laplacian import BoundaryCondition
from .lattice import LatticeBox
from .spectral import EmpiricalIDS, zero_tolerance

logger = logging.getLogger(__name__)

TAIL_FLOOR_ANALYTIC = 1e-300
DECAY_MIN_COUNT = 50
# bound on the origin-cluster BFS pool: DECAY_BATCH_SLOTS // n_vertices
# slots (at least 1, at most the sample count), each a visited row of
# n_vertices flags plus the always-set wall column, one byte each.  So
# 512 KiB and one byte per slot (one box, if larger) whatever the sample
# count, e.g. 481 slots of 1090 flags on the 33x33 box of radius 16
DECAY_BATCH_SLOTS = 1 << 19

# engineering caps well below the literature percolation thresholds;
# the source analysis never states numeric p_c values
SUBCRITICAL_P_CAP = {1: 1.0, 2: 0.4, 3: 0.2}


def series_truncation(p: float, e_min: float) -> int:
    """Smallest path length covering both the weight and energy tails."""
    n_weight = math.ceil(math.log(1e-16) / math.log(p))
    n_energy = math.ceil(4.0 * math.pi / math.sqrt(e_min))
    return max(n_weight, n_energy, 2)


def _path_counts(energy: float, n: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Nonzero path-Laplacian eigenvalues <= energy, in closed form.

    Neumann eigenvalues of a path of n vertices: 2(1-cos(pi k / n)),
    k=1..n-1; Pseudo-Dirichlet (d=1): 2-2cos(pi k/(n+1)), k=1..n.
    """
    theta = math.acos(1.0 - min(energy, 4.0) / 2.0)
    if bc is BoundaryCondition.NEUMANN:
        c = np.floor(n * (theta / math.pi) + 1e-9)
        return np.minimum(c, n - 1)
    if bc is BoundaryCondition.PSEUDO_DIRICHLET:
        c = np.floor((n + 1) * (theta / math.pi) + 1e-9)
        return np.minimum(c, n)
    raise DomainError(f"series supports N and Dt only, got {bc}")


def ids_1d_series(p: float, energy: float, bc: BoundaryCondition, n_max: int | None = None) -> float:
    """N_X(E) - N_X(0) for d=1, exact up to the geometric truncation."""
    return float(ids_1d_series_many(p, [energy], bc, n_max)[0])


def _series_truncation_checked(p, energy, n_max):
    """The truncation at ``energy``, or the error that forbids the series."""
    if not 0.0 < energy <= 4.0:
        raise DomainError(f"energy must be in (0,4], got {energy}")
    if n_max is None:
        n_max = series_truncation(p, energy)
    if n_max > MAX_ARRAY_ITEMS:
        raise UnsupportedSizeError(
            f"series truncation n_max={n_max:.3e} at E={energy:g} exceeds "
            f"{MAX_ARRAY_ITEMS} array items"
        )
    tail = p ** n_max
    if tail >= 1e-16:
        raise PrecisionError(
            f"truncation n_max={n_max} leaves weight tail ~{tail:.3e} >= 1e-16"
        )
    if n_max < 4.0 * math.pi / math.sqrt(energy):
        raise PrecisionError(
            f"truncation n_max={n_max} misses paths contributing at E={energy}; "
            f"need >= {4.0 * math.pi / math.sqrt(energy):.0f}"
        )
    return n_max


def weight_cutoff(p: float) -> int:
    """The path length from which on every weight is +0.0 in float64.

    The weight (1-p)^2 p^(n-1) <= p^(n-1), and from n - 1 >= i0 =
    ceil((1075 ln 2 + 1) / |ln p|) on, p^(n-1) <= e^-1 2^-1075: below
    0.19 of the smallest subnormal 2^-1074, so a pow within 0.8 ulp of
    it returns +0.0 and so does the product.  The +1 in the numerator
    is that margin, 1/|ln p| path lengths; leaving out the (1-p)^2
    factor adds 2 ln(1-p) / ln p more (under one at p = 0.3).  The
    series computes the weights of n = 1..i0 + 1 and checks at run time
    that the last of them is +0.0.
    """
    return math.ceil((1075.0 * math.log(2.0) + 1.0) / -math.log(p)) + 1


def _weight_prefix(p: float, length: int):
    """Path lengths n = 1..k and their weights (1-p)^2 p^(n-1), where k
    is :func:`weight_cutoff` (at most ``length``), or ``length`` if the
    weight at the cutoff is not +0.0 after all."""
    def prefix(k):
        n = np.arange(1, k + 1, dtype=np.float64)
        return n, (1.0 - p) ** 2 * p ** (n - 1.0)

    k = min(weight_cutoff(p), length)
    n, weights = prefix(k)
    if k < length and weights[-1] != 0.0:
        n, weights = prefix(length)
    return n, weights


def ids_1d_series_many(p, energies, bc, n_max=None) -> np.ndarray:
    """:func:`ids_1d_series` at each energy; each energy gets its own
    truncation by default.

    The path weights (1-p)^2 p^(n-1) are computed once, up to the largest
    truncation, and each energy sums the first ``n_max`` of them.  Both
    the weights and the path counts are computed only up to
    :func:`weight_cutoff` (621 at p = 0.3, where E = 1e-8 truncates at
    125,664) and left 0.0 past it; the prefix values come from the same
    elementwise expressions as the full-length ones.  Each dot product
    still runs over all ``n_max`` terms: every weight past the cutoff is
    +0.0, so its product with any count is +0.0 and adding it leaves a
    partial sum as it is.  The dot then sees the same products at the
    same positions as with every count computed, whatever its reduction
    order, and the bytes are those of the per-energy body.  A dot over
    the prefix alone would sum the same nonzero products, but BLAS may
    group a shorter vector differently (blocks, tails, threads), and
    float addition is not associative.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"bond probability must be in (0,1), got {p}")
    energies = np.asarray(energies, dtype=np.float64).tolist()
    n_maxes = [_series_truncation_checked(p, e, n_max) for e in energies]
    length = max(n_maxes, default=0)
    n, prefix = _weight_prefix(p, length)
    weights, counts = np.zeros(length), np.zeros(length)
    weights[:n.size] = prefix
    out = np.empty(len(energies))
    for i, (e, m) in enumerate(zip(energies, n_maxes)):
        k = min(m, n.size)
        counts[:k] = _path_counts(e, n[:k], bc)
        out[i] = np.dot(weights[:m], counts[:m])
    return out


@dataclass(frozen=True)
class TailFit:
    """Double-log slope of the band-edge mass against the edge distance."""

    bc: BoundaryCondition
    edge: str  # "lower" | "upper"
    window: tuple
    slope: float
    residual: float
    n_points: int


def _fit_double_log(gaps, mass, bc, edge, window, floor):
    gaps = np.asarray(gaps, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    keep = (mass > floor) & (mass < 1.0) & (gaps > 0)
    if int(keep.sum()) < 8:
        raise InsufficientDataError(
            f"only {int(keep.sum())} usable points above floor {floor:g}"
        )
    x = np.log(gaps[keep])
    y = np.log(-np.log(mass[keep]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return TailFit(bc, edge, (float(window[0]), float(window[1])),
                   float(slope), resid, int(keep.sum()))


def analytic_tail_fit(p: float, bc: BoundaryCondition, window,
                      edge: str = "lower", n_points: int = 96) -> TailFit:
    """Tail exponent fit on the d=1 series over a log-spaced energy window.

    Upper-edge fits use the spectral reflection: the Dirichlet mass at
    distance g below 4d equals the Neumann mass at energy g (and the
    Pseudo-Dirichlet spectrum is reflection symmetric), so the fit runs
    on identical data.
    """
    lo, hi = window
    if not 0.0 < lo < hi <= 4.0:
        raise DomainError(f"window must satisfy 0 < lo < hi <= 4, got {window}")
    if edge == "lower":
        series_bc = bc
    elif edge == "upper":
        if bc is BoundaryCondition.DIRICHLET:
            series_bc = BoundaryCondition.NEUMANN
        elif bc is BoundaryCondition.PSEUDO_DIRICHLET:
            series_bc = BoundaryCondition.PSEUDO_DIRICHLET
        else:
            raise DomainError("analytic upper-edge fit supports Dt and D only")
    else:
        raise DomainError(f"edge must be 'lower' or 'upper', got {edge!r}")
    gaps = np.geomspace(lo, hi, n_points)
    mass = _series_mass(p, lo, hi, n_points, series_bc)
    return _fit_double_log(gaps, mass, bc, edge, window, TAIL_FLOOR_ANALYTIC)


@lru_cache(maxsize=8)
def _series_mass(p, lo, hi, n_points, series_bc) -> np.ndarray:
    """The series on ``n_points`` log-spaced gaps in [lo, hi], read-only.

    Cached because reflected fits share their data: the Dirichlet upper
    edge evaluates the Neumann lower series, and the Pseudo-Dirichlet
    upper edge the Pseudo-Dirichlet lower one.
    """
    mass = ids_1d_series_many(p, np.geomspace(lo, hi, n_points), series_bc)
    mass.setflags(write=False)
    return mass


def fit_tail(ids: EmpiricalIDS, edge: str, window) -> TailFit:
    """Tail exponent fit on an empirical IDS (grid points in the window)."""
    lo, hi = window
    width = 4 * ids.d
    floor = 10.0 / ids.total_vertices
    zero_tol = zero_tolerance(ids.d)
    if edge == "lower":
        sel = (ids.grid >= lo) & (ids.grid <= hi)
        gaps = ids.grid[sel]
        mass = ids.evaluate(gaps) - ids.evaluate(zero_tol)
    elif edge == "upper":
        sel = (width - ids.grid >= lo) & (width - ids.grid <= hi)
        energies = ids.grid[sel]
        gaps = width - energies
        top = ids.evaluate(width - zero_tol)
        mass = top - ids.evaluate(energies)
    else:
        raise DomainError(f"edge must be 'lower' or 'upper', got {edge!r}")
    return _fit_double_log(gaps, mass, ids.bc, edge, window, floor)


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay of the origin-cluster size distribution."""

    d: int
    p: float
    samples: int
    sizes_n: np.ndarray          # size thresholds used in the fit
    survival: np.ndarray         # P(|cluster of origin| >= n), all n
    zeta_hat: float
    r_squared: float
    truncated: int               # samples whose cluster touched the box wall


def _default_decay_radius(d: int, p: float) -> int:
    if d == 1:
        return max(32, int(60.0 / math.log(1.0 / p)) + 1)
    return 16 if d == 2 else 8


def _neighbour_table(box: LatticeBox):
    """(neighbours, edge_ids), each (n_vertices, 2d): the vertex across
    each axis direction (-1 past the wall) and that bond's candidate-edge
    index (uint64), as ``LatticeBox.candidate_edges`` numbers the edges."""
    eu, ev = box.candidate_edges()
    ids = np.arange(eu.size, dtype=np.uint64)
    axis = np.repeat(np.arange(box.d), box.n_edges // box.d)
    neighbours = np.full((box.n_vertices, 2 * box.d), -1, dtype=np.int64)
    edge_ids = np.zeros(neighbours.shape, dtype=np.uint64)
    neighbours[eu, 2 * axis + 1], edge_ids[eu, 2 * axis + 1] = ev, ids
    neighbours[ev, 2 * axis], edge_ids[ev, 2 * axis] = eu, ids
    return neighbours, edge_ids


def origin_cluster_samples(d: int, p: float, samples: int, seed: int, radius: int):
    """Origin-cluster size and wall contact of realizations 0..samples-1.

    Realization i is bond percolation on the box of side 2*radius + 1
    centred on the origin, drawn from ``derive_seed(seed, i)`` exactly as
    ``sample_graph`` would draw it.  One ``origin_cluster_bfs`` call runs
    the samples through a pool of ``DECAY_BATCH_SLOTS // n_vertices``
    stream slots (at least 1, at most ``samples``), refilled as clusters
    finish.  Returns ``(sizes, touched)``.
    """
    side = 2 * radius + 1
    box = LatticeBox(d, side)
    neighbours, edge_ids = _neighbour_table(box)
    coords = box.coords(np.arange(box.n_vertices, dtype=np.int64))
    wall = np.any((coords == 0) | (coords == side - 1), axis=1)
    origin = int(box.linear_index(np.full(d, radius, dtype=np.int64)))
    return kernels.origin_cluster_bfs(neighbours, edge_ids, wall, origin, seed, samples,
                                      DECAY_BATCH_SLOTS // box.n_vertices, p)


def decay_domain_problem(d: int, p: float) -> str | None:
    """Why decay sampling refuses (d, p), or None if it accepts them."""
    cap = SUBCRITICAL_P_CAP.get(d)
    if cap is None:
        return f"decay sampling supports d in {{1,2,3}}, got {d}"
    if not 0.0 < p < cap:
        return f"need 0 < p < {cap} for d={d} (safely subcritical), got {p}"
    return None


def cluster_size_decay(d: int, p: float, samples: int, seed: int,
                       radius: int | None = None) -> DecayFit:
    """Sample the cluster of the origin and fit its size-decay rate.

    The survival curve is fit as ln S(n) = a + b ln(n+1) - zeta n by
    weighted least squares (the ln(n+1) term absorbs the polynomial
    prefactor of the subcritical size law), over n with at least
    50 surviving samples.
    """
    problem = decay_domain_problem(d, p)
    if problem is not None:
        raise DomainError(problem)
    if samples < 1:
        raise DomainError("samples must be positive")
    if radius is None:
        radius = _default_decay_radius(d, p)

    sizes, touched = origin_cluster_samples(d, p, samples, seed, radius)
    truncated = int(touched.sum())
    if truncated:
        logger.warning(
            "%d/%d origin clusters touched the sampling box wall "
            "(radius %d too small); their sizes are lower bounds",
            truncated, samples, radius,
        )

    # surv_counts[n - 1] = #{samples with size >= n}, n = 1..max size
    surv_counts = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    n_all = np.arange(1, surv_counts.size + 1)
    survival = surv_counts / samples

    keep = surv_counts >= DECAY_MIN_COUNT
    if int(keep.sum()) < 4:
        raise InsufficientDataError("too few size thresholds with enough samples")
    n = n_all[keep].astype(np.float64)
    s = survival[keep]
    y = np.log(s)
    design = np.column_stack((np.ones_like(n), np.log(n + 1.0), n))
    weights = samples * s / np.maximum(1.0 - s, 1e-12)
    sw = np.sqrt(weights)[:, None]
    coef, *_ = np.linalg.lstsq(design * sw, y * sw[:, 0], rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    return DecayFit(
        d=d, p=p, samples=samples,
        sizes_n=n_all[keep], survival=survival,
        zeta_hat=float(-coef[2]), r_squared=r2, truncated=truncated,
    )
