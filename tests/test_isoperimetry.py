"""Cheeger / Faber-Krahn constants and eigenvalue bound checks."""

import json
from fractions import Fraction

import numpy as np
import pytest

from perclap import (
    DomainError,
    LatticeBox,
    UnsupportedSizeError,
    cheeger_constant,
    check_shape,
    clusters,
    config_from_dict,
    cubic_bound_check,
    fk_ratio,
    linear_bound_check,
    make_cubic_cluster,
    make_linear_cluster,
    run,
    sample_graph,
)
from perclap.isoperimetry import (
    EXHAUSTIVE_CUTOFF,
    REFLECTION_MAX_VERTICES,
    VIOLATION_KINDS,
    report_cluster,
)
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS
from perclap.lattice import Cluster
from perclap.spectral import cluster_spectra

N, DT, D = ALL_BCS
ISOLATED = Cluster(1, np.array([0]), np.zeros((1, 1), dtype=np.int64),
                   np.empty((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))


def test_path_cheeger_constant_closed_form():
    """h(path of n) = 1/floor(n/2): cut at the midpoint."""
    for n in range(2, 17):
        assert cheeger_constant(make_linear_cluster(n, 1)) == Fraction(1, n // 2)


def test_cycle_cheeger_constant():
    assert cheeger_constant(make_cubic_cluster(2, 2)) == 1  # 4-cycle
    # 8-vertex cube: best cut is a face, 4 boundary edges over 4 vertices
    assert cheeger_constant(make_cubic_cluster(2, 3)) == 1


def test_cheeger_size_limits():
    with pytest.raises(DomainError):
        cheeger_constant(ISOLATED)
    with pytest.raises(UnsupportedSizeError):
        cheeger_constant(make_linear_cluster(EXHAUSTIVE_CUTOFF + 1, 1))


def test_cheeger_bound_margins_nonnegative():
    g = sample_graph(LatticeBox(2, 10), 0.4, derive_seed(81, 0))
    seen = 0
    for c in clusters(g):
        if c.n_vertices < 2:
            continue
        rep = report_cluster(c)
        assert rep.crude_margin >= -1e-12
        if c.n_vertices <= EXHAUSTIVE_CUTOFF:
            assert rep.cheeger_margin >= -1e-12
            seen += 1
    assert seen >= 3


def test_fk_ratio_positive_and_scaling():
    rs = [fk_ratio(make_cubic_cluster(l, 2)) for l in (8, 16, 24)]
    assert all(r > 0 for r in rs)
    # ratio stabilizes once l is moderate: |V|^(2/d) scaling is correct
    assert abs(rs[2] - rs[1]) / rs[1] < 0.10


def test_estimate_fk_constant(tmp_path):
    """verify's fk_estimate is the least FK ratio over clusters of 2 or more vertices."""
    run(config_from_dict({"d": 2, "L": 12, "p": 0.35, "seed": 82, "task": "verify"}), tmp_path)
    est = json.loads((tmp_path / "verify_summary.json").read_text())["fk_estimate"]
    g = sample_graph(LatticeBox(2, 12), 0.35, derive_seed(82, 0))
    assert est > 0
    assert est == min(fk_ratio(c) for c in clusters(g) if c.n_vertices >= 2)
    with pytest.raises(DomainError):
        fk_ratio(ISOLATED)


def test_linear_bound_margins():
    for n in (2, 3, 10, 50, 300):
        assert linear_bound_check(n, 1) >= 0.0


def test_cubic_bound_margins():
    for l in (2, 4, 8, 16):
        assert cubic_bound_check(l, 2) >= 0.0
    for l in (2, 4, 8):
        assert cubic_bound_check(l, 3) >= 0.0


def test_report_cluster_fields():
    c = make_linear_cluster(6, 2)
    rep = report_cluster(c)
    assert rep.n_vertices == 6
    assert rep.h_cheeger == Fraction(1, 3)
    assert rep.cheeger_margin >= 0
    assert rep.crude_margin >= 0
    assert rep.fk_ratio > 0
    big = make_linear_cluster(EXHAUSTIVE_CUTOFF + 5, 2)
    rep_big = report_cluster(big)
    assert rep_big.h_cheeger is None and rep_big.cheeger_margin is None


def test_check_shape_counts_each_violation_kind():
    """All zeros on true spectra; each crafted spectrum trips only its own check."""
    c = make_linear_cluster(4, 1)  # h = 1/2, so h^2/(4d) = 1/(d n^2) = 1/16
    grid = np.linspace(0.0, 4.0, 65)
    true = cluster_spectra(c, {})
    zeros = dict.fromkeys(VIOLATION_KINDS, 0)
    counts, rep = check_shape(c, grid, true)
    assert counts == zeros and rep == report_cluster(c, true)
    e_n, e_dt, e_d = (true[bc] for bc in ALL_BCS)
    gap = 0.01
    cases = [
        # a Neumann eigenvalue below -tol, and its Dirichlet reflection above 4d + tol
        ({N: np.concatenate(([-1e-6], e_n[1:])), D: np.concatenate((e_d[:-1], [4.0 + 1e-6]))},
         {"range": 2}),
        # a Dirichlet spectrum 1e-6 off the reflected Neumann one
        ({D: e_d + np.array([1e-6, 0.0, 0.0, 0.0])}, {"reflection": 1}),
        # a Dt spectrum below the Neumann one: more Dt than N eigenvalues <= 0.5
        ({DT: e_n / 2}, {"chain": 1}),
        # a Neumann gap below both bounds, with the Dirichlet reflection kept
        ({N: np.array([e_n[0], gap, e_n[2], e_n[3]]),
          D: np.array([e_d[0], e_d[1], 4.0 - gap, e_d[3]])}, {"cheeger": 1, "crude": 1}),
    ]
    for changes, fired in cases:
        counts, _ = check_shape(c, grid, {**true, **changes})
        assert counts == {**zeros, **fired}, fired
    assert check_shape(ISOLATED, grid) == (zeros, None)


def test_check_shape_reflection_size_cap():
    grid = np.linspace(0.0, 4.0, 65)
    for n in (REFLECTION_MAX_VERTICES, REFLECTION_MAX_VERTICES + 1):
        c = make_linear_cluster(n, 1)
        spectra = cluster_spectra(c, {})
        off = spectra[D].copy()
        off[0] += 1e-6
        counts, _ = check_shape(c, grid, {**spectra, D: off})
        assert counts["reflection"] == int(n <= REFLECTION_MAX_VERTICES)
        assert sum(counts.values()) == counts["reflection"]
