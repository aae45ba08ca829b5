"""Cheeger / Faber-Krahn constants and eigenvalue bound checks."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclap import (
    DomainError,
    LatticeBox,
    UnsupportedSizeError,
    cheeger_constant,
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
    VIOLATION_KINDS,
    check_stack,
    cheeger_margin,
)
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS
from perclap.lattice import make_cluster

from conftest import assert_report_columns, chain_holds, spectra_of

N, DT, D = ALL_BCS
ISOLATED = make_cluster(1, np.array([0]), np.zeros((1, 1), dtype=np.int64),
                        np.empty((0, 2), dtype=np.int64))


def _stack(rows):
    """(k, n) spectra stacks, by boundary condition, whose row i is that
    of the spectra dict ``rows[i]``."""
    return {bc: np.array([row[bc] for row in rows]) for bc in ALL_BCS}


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
    """Every cluster of two or more vertices of a sampled box, checked in
    one stack per vertex count, has nonnegative crude and Cheeger margins."""
    g = sample_graph(LatticeBox(2, 10), 0.4, derive_seed(81, 0))
    grid = np.linspace(0.0, 8.0, 65)
    by_size = {}
    for c in clusters(g):
        if c.n_vertices >= 2:
            by_size.setdefault(c.n_vertices, []).append(c)
    seen = 0
    for n, shapes in by_size.items():
        _, rep = check_stack(shapes, _stack([spectra_of(c) for c in shapes]), grid)
        assert (rep.crude_margin >= -1e-12).all()
        if n <= EXHAUSTIVE_CUTOFF:
            assert all(m >= -1e-12 for m in rep.cheeger_margin)
            seen += len(shapes)
    assert seen >= 3 and max(map(len, by_size.values())) >= 2


def test_cheeger_margin_bitwise_equals_fraction_square():
    """The margin squares h in integers, a^2 / b^2, and gives the float
    bytes of ``float(h * h)`` for every h = |boundary| / |W| a cluster up
    to the exhaustive cutoff can have."""
    for w in range(1, EXHAUSTIVE_CUTOFF // 2 + 1):
        for b in range(1, 6 * w + 1):
            h = Fraction(b, w)
            for d in (1, 2, 3):
                for e1 in (0.0, 1e-3, 0.3, 2.0 / 3.0, 7.5):
                    want = e1 - float(h * h) / (4 * d)
                    assert cheeger_margin(e1, h, d).hex() == want.hex(), (h, d, e1)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_value=2**20, max_denominator=2**40),
       st.floats(0.0, 12.0), st.integers(1, 3))
def test_cheeger_margin_equals_fraction_square_on_any_fraction(h, e1, d):
    """Correct rounding of int true division holds for any numerator and
    denominator, so the integer square matches the Fraction's float."""
    assert cheeger_margin(e1, h, d).hex() == (e1 - float(h * h) / (4 * d)).hex()


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


def _tree(n, d=2):
    """A path of n - 1 vertices along the first axis with one pendant
    vertex off its second vertex: an n-vertex tree that is no path."""
    coords = np.zeros((n, d), dtype=np.int64)
    coords[:n - 1, 0] = np.arange(n - 1)
    coords[n - 1, :2] = (1, 1)
    edges = np.array([(i, i + 1) for i in range(n - 2)] + [(1, n - 1)], dtype=np.int64)
    return make_cluster(d, LatticeBox(d, n).linear_index(coords), coords, edges)


def test_report_cluster_fields():
    """check_stack's report of a stack of distinct shapes, column by
    column as the oracle computes it shape by shape, with no Cheeger
    fields above the cutoff."""
    grid = np.linspace(0.0, 8.0, 65)
    shapes = [make_linear_cluster(6, 2), _tree(6), make_linear_cluster(6, 2)]
    spectra = _stack([spectra_of(c) for c in shapes])
    _, rep = check_stack(shapes, spectra, grid)
    assert_report_columns(rep, shapes, spectra)
    assert rep.n_vertices == 6
    assert rep.h_cheeger[0] == rep.h_cheeger[2] == Fraction(1, 3)
    assert all(m >= 0 for m in rep.cheeger_margin)
    assert (rep.crude_margin >= 0).all() and (rep.fk_ratio > 0).all()
    assert rep.e1_neumann[0] != rep.e1_neumann[1]
    big = [make_linear_cluster(EXHAUSTIVE_CUTOFF + 5, 2), _tree(EXHAUSTIVE_CUTOFF + 5)]
    spectra = _stack([spectra_of(c) for c in big])
    _, rep_big = check_stack(big, spectra, grid)
    assert_report_columns(rep_big, big, spectra)
    assert rep_big.h_cheeger == rep_big.cheeger_margin == [None, None]


def test_check_stack_counts_each_violation_kind():
    """Clean rows count nothing; each crafted row of the same stack trips
    only its own check, and no verdict reaches the clean rows between."""
    c = make_linear_cluster(4, 1)  # h = 1/2, so h^2/(4d) = 1/(d n^2) = 1/16
    grid = np.linspace(0.0, 4.0, 65)
    true = spectra_of(c)
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
    rows, fired = [true], [{}]
    for changes, kinds in cases:
        rows += [{**true, **changes}, true]
        fired += [kinds, {}]
    counts, rep = check_stack([c] * len(rows), _stack(rows), grid)
    for kind in VIOLATION_KINDS:
        assert counts[kind].tolist() == [f.get(kind, 0) for f in fired], kind
    assert_report_columns(rep, [c] * len(rows), _stack(rows))
    # single vertices: a range row, with its reflection kept, between clean rows
    iso = {N: np.array([0.0]), DT: np.array([2.0]), D: np.array([4.0])}
    rows = [iso, {**iso, N: np.array([-1e-6]), D: np.array([4.0 + 1e-6])}, iso]
    counts, rep = check_stack([ISOLATED] * 3, _stack(rows), grid)
    assert rep is None
    for kind in VIOLATION_KINDS:
        assert counts[kind].tolist() == ([0, 2, 0] if kind == "range" else [0, 0, 0]), kind


def test_check_stack_reflection_at_any_size():
    """An off Dirichlet row between clean ones is a reflection violation
    at every vertex count, 500 and above too."""
    grid = np.linspace(0.0, 4.0, 65)
    for n in (5, 500, 501, 700):
        c = make_linear_cluster(n, 1)
        spectra = _stack([spectra_of(c)] * 3)
        spectra[D][1, 0] += 1e-6
        counts, _ = check_stack([c] * 3, spectra, grid)
        assert counts["reflection"].tolist() == [0, 1, 0], n
        assert sum(counts.values()).tolist() == [0, 1, 0], n


@st.composite
def _chain_cases(draw):
    """A grid with ties, and k stacked N, Dt and D spectra of n values
    each, many of them exactly on grid points."""
    grid = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 3.75, 4.0])
                         | st.floats(0.0, 4.0), min_size=1, max_size=12))
    value = st.sampled_from(grid) | st.floats(-0.5, 4.5)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    spectra = {bc: np.sort(np.array(draw(st.lists(value, min_size=k * n, max_size=k * n)))
                           .reshape(k, n), axis=1) for bc in ALL_BCS}
    return np.array(grid), spectra


@settings(max_examples=300, deadline=None)
@given(_chain_cases())
def test_positional_chain_rule_matches_grid_counts(case):
    """check_stack's chain rule on positions (pos_N <= pos_Dt <= pos_D,
    pos the number of grid energies below each eigenvalue) flags exactly
    the rows whose counts at some grid energy break N >= Dt >= D."""
    grid, spectra = case
    k, n = spectra[N].shape
    shape = ISOLATED if n == 1 else make_linear_cluster(n, 1)
    counts, _ = check_stack([shape] * k, spectra, grid[::-1])
    want = [int(not chain_holds({bc: s[i] for bc, s in spectra.items()}, grid))
            for i in range(k)]
    assert counts["chain"].tolist() == want
