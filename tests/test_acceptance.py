"""Acceptance gate: end-to-end numerical criteria with pinned tolerances.

Each test prints one PASS line on success.  The shared ensemble spans
d in {1,2,3} and p in {0.1, 0.2, 0.3} with more than 300 independent
realizations; per-cluster spectra are cached across tests by the
translation-invariant shape key.
"""

import json
import math
import time

import numpy as np
import pytest

from perclap import (
    LatticeBox,
    cheeger_constant,
    cluster_size_decay,
    clusters,
    config_from_dict,
    empirical_ids,
    fk_ratio,
    make_cubic_cluster,
    make_linear_cluster,
    sample_graph,
)
from perclap.isoperimetry import cubic_bound_check
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS
from perclap.runner import run
from perclap.spectral import cluster_eigenvalues, lowest_nonzero, zero_tolerance
from perclap.tails import analytic_tail_fit, ids_1d_series_many

from conftest import run_single_blas_thread

N, DT, D = ALL_BCS

P_VALUES = (0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def ensemble():
    """312 graphs: d=1 at L=10^4, d=2 at L in {8,12,16}, d=3 at L in {8,10}."""
    t0 = time.monotonic()
    graphs = []
    for pi, p in enumerate(P_VALUES):
        for s in range(10):
            graphs.append(sample_graph(LatticeBox(1, 10_000), p,
                                       derive_seed(1000 + pi, s)))
        for L in (8, 12, 16):
            for s in range(18):
                graphs.append(sample_graph(LatticeBox(2, L), p,
                                           derive_seed(2000 + 10 * pi + L, s)))
        for L in (8, 10):
            for s in range(20):
                graphs.append(sample_graph(LatticeBox(3, L), p,
                                           derive_seed(3000 + 10 * pi + L, s)))
    assert len(graphs) >= 300
    cache = {}
    per_graph = []
    for g in graphs:
        cs = clusters(g)
        spectra = [
            {bc: cluster_eigenvalues(c, bc, cache) for bc in ALL_BCS} for c in cs
        ]
        per_graph.append((g, cs, spectra))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"ensemble construction took {elapsed:.0f}s"
    return per_graph


def test_01_zero_modes_equal_cluster_count(ensemble):
    t0 = time.monotonic()
    exceptions = 0
    for g, cs, spectra in ensemble:
        tol = zero_tolerance(g.box.d)
        zero_modes = sum(
            int(np.searchsorted(eigs[N], tol, side="right")) for eigs in spectra
        )
        if zero_modes != len(cs):
            exceptions += 1
    elapsed = time.monotonic() - t0
    assert exceptions == 0
    assert elapsed < 120.0
    print(f"\nPASS criterion 1: zero modes == cluster count on "
          f"{len(ensemble)} graphs, 0 exceptions ({elapsed:.1f}s)")


def test_02_spectral_reflection(ensemble):
    max_dev = 0.0
    for g, cs, spectra in ensemble:
        width = 4.0 * g.box.d
        pooled_n, pooled_d, pooled_dt = [], [], []
        for c, eigs in zip(cs, spectra):
            if c.n_vertices > 500:
                continue
            dev = float(np.max(np.abs(eigs[D] - (width - eigs[N][::-1]))))
            max_dev = max(max_dev, dev)
            pooled_n.append(eigs[N])
            pooled_d.append(eigs[D])
            pooled_dt.append(eigs[DT])
        e_n = np.sort(np.concatenate(pooled_n))
        e_d = np.sort(np.concatenate(pooled_d))
        e_dt = np.sort(np.concatenate(pooled_dt))
        assert np.allclose(e_d, width - e_n[::-1], atol=1e-9)
        assert np.allclose(e_dt, width - e_dt[::-1], atol=1e-9)
    assert max_dev < 1e-9
    print(f"\nPASS criterion 2: reflection max deviation {max_dev:.2e} < 1e-9")


def test_03_chain_ordering_and_range(ensemble):
    for g, cs, spectra in ensemble:
        width = 4.0 * g.box.d
        grid = np.linspace(0.0, width, 512)
        tol = 1e-9
        counts = {}
        for bc in ALL_BCS:
            pooled = np.sort(np.concatenate([eigs[bc] for eigs in spectra]))
            assert pooled[0] >= -tol and pooled[-1] <= width + tol
            counts[bc] = np.searchsorted(pooled, grid + 1e-12 * width, side="right")
        assert np.all(counts[N] >= counts[DT])
        assert np.all(counts[DT] >= counts[D])
    print(f"\nPASS criterion 3: chain ordering and [0, 4d] range on "
          f"{len(ensemble)} graphs")


def test_04_cheeger_bounds(ensemble):
    checked_exact = 0
    checked_crude = 0
    for g, cs, spectra in ensemble:
        d = g.box.d
        for c, eigs in zip(cs, spectra):
            n = c.n_vertices
            if n < 2:
                continue
            e1_n = float(eigs[N][1])
            assert e1_n >= 1.0 / (d * n * n) - 1e-12, (d, n, e1_n)
            checked_crude += 1
            if n <= 18:
                h = cheeger_constant(c)
                assert e1_n >= float(h * h) / (4 * d) - 1e-12
                checked_exact += 1
    assert checked_exact > 1000 and checked_crude > 10_000
    print(f"\nPASS criterion 4: 0 Cheeger violations ({checked_exact} exact, "
          f"{checked_crude} crude)")


def test_05_variational_bounds():
    t0 = time.monotonic()
    for n in range(2, 301):
        e1 = lowest_nonzero(cluster_eigenvalues(make_linear_cluster(n, 1), N), N)
        closed = 2.0 * (1.0 - math.cos(math.pi / n))
        assert abs(e1 - closed) < 1e-10
        assert e1 <= 12.0 / (n * n) + 1e-12
    for l in range(2, 33):
        assert cubic_bound_check(l, 2) >= -1e-12
    for l in range(2, 9):
        assert cubic_bound_check(l, 3) >= -1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 5: variational bounds, paths n<=300 and cubes "
          f"({elapsed:.1f}s)")


def test_06_faber_krahn(ensemble):
    ratios = []
    for g, cs, spectra in ensemble:
        d = g.box.d
        for c, eigs in zip(cs, spectra):
            if c.n_vertices >= 2:
                ratios.append(float(eigs[DT][0]) * c.n_vertices ** (2.0 / d))
    est = min(ratios)
    assert est > 0.0
    assert all(r >= est for r in ratios)
    r16 = fk_ratio(make_cubic_cluster(16, 2))
    r24 = fk_ratio(make_cubic_cluster(24, 2))
    assert abs(r24 - r16) / r16 < 0.10
    print(f"\nPASS criterion 6: Faber-Krahn estimate {est:.4f} > 0 over "
          f"{len(ratios)} clusters; cubic ratio drift "
          f"{abs(r24 - r16) / r16:.3f} < 0.10")


def test_07_1d_monte_carlo_vs_series():
    t0 = time.monotonic()
    p = 0.3
    n_total = 10**6
    g = sample_graph(LatticeBox(1, n_total), p, derive_seed(12345, 0))
    cache = {}
    worst = 0.0
    for bc in (N, DT):
        ids = empirical_ids([g], bc, cache=cache)
        emp = ids.grid_values - ids.evaluate(zero_tolerance(1))
        pos = ids.grid > 0
        ana = ids_1d_series_many(p, ids.grid[pos], bc)
        dev = np.abs(emp[pos] - ana)
        se = np.sqrt(np.maximum(ana * (1.0 - ana), 0.0) / n_total)
        allowed = np.maximum(3.0 * se, 5.0 / n_total)
        assert np.all(dev <= allowed), f"{bc}: {np.max(dev / allowed):.2f}x allowed"
        worst = max(worst, float(np.max(dev)))
    assert worst <= 0.005
    kappa = ids.n_clusters / ids.total_vertices
    sigma = math.sqrt(p * (1 - p) / n_total)
    assert abs(kappa - (1 - p)) <= 3 * sigma
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    print(f"\nPASS criterion 7: max |MC - series| = {worst:.2e} <= 0.005, "
          f"kappa_hat = {kappa:.6f} within 3 sigma of 0.7 ({elapsed:.1f}s)")


def test_08_lifshits_exponents_1d():
    t0 = time.monotonic()
    p = 0.3
    window = (1e-8, 1e-3)
    lower = {bc: analytic_tail_fit(p, bc, window, edge="lower") for bc in (N, DT)}
    for bc, fit in lower.items():
        assert -0.55 <= fit.slope <= -0.45, (bc, fit.slope)
    up_d = analytic_tail_fit(p, D, window, edge="upper")
    up_dt = analytic_tail_fit(p, DT, window, edge="upper")
    assert up_d.slope == lower[N].slope
    assert up_dt.slope == lower[DT].slope
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 8: lower-edge slopes N={lower[N].slope:.4f}, "
          f"Dt={lower[DT].slope:.4f} in [-0.55, -0.45]; upper edges identical "
          f"({elapsed:.1f}s)")


def test_09_2d_qualitative_tail_ordering():
    t0 = time.monotonic()
    p, L, reals = 0.3, 24, 1000
    graphs = [sample_graph(LatticeBox(2, L), p, derive_seed(909, i))
              for i in range(reals)]
    cache = {}
    ids_n = empirical_ids(graphs, N, cache=cache)
    ids_dt = empirical_ids(graphs, DT, cache=cache)
    sel = (ids_n.grid > 0) & (ids_n.grid <= 0.5)
    lhs = ids_dt.grid_values[sel]
    rhs = ids_n.grid_values[sel] - ids_n.evaluate(zero_tolerance(2))
    assert np.all(lhs <= rhs + 1e-15)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"\nPASS criterion 9: pseudo-Dirichlet tail below Neumann tail at "
          f"{int(sel.sum())} grid energies in (0, 0.5], {reals} realizations "
          f"({elapsed:.1f}s)")


def test_10_cluster_size_decay():
    fit1 = cluster_size_decay(1, 0.5, 100_000, seed=derive_seed(1010, 0))
    rel = abs(fit1.zeta_hat - math.log(2.0)) / math.log(2.0)
    assert rel < 0.02
    fit2 = cluster_size_decay(2, 0.3, 50_000, seed=derive_seed(1010, 1))
    assert fit2.zeta_hat > 0.0
    assert fit2.r_squared > 0.98
    print(f"\nPASS criterion 10: d=1 zeta_hat={fit1.zeta_hat:.4f} "
          f"({100 * rel:.2f}% from ln 2); d=2 zeta_hat={fit2.zeta_hat:.4f} > 0, "
          f"R^2={fit2.r_squared:.4f} > 0.98")


def test_11_determinism(tmp_path):
    """Reruns give the same bytes, and so does a CLI run in a fresh
    interpreter with a one-thread OpenBLAS pool."""
    base = {"d": 1, "L": 2000, "p": 0.3, "realizations": 3, "seed": 4,
            "task": "all", "decay_samples": 2000}
    for label in ("a", "b"):
        run(config_from_dict(base), tmp_path / label)
    run_single_blas_thread(base, "all", tmp_path / "t")
    runs = {}
    for label in ("a", "b", "t"):
        out = tmp_path / label
        manifest = json.loads((out / "manifest.json").read_text())
        runs[label] = {name: (out / name).read_bytes()
                       for name in list(manifest["outputs"]) + ["manifest.json"]}
    assert runs["a"] == runs["b"] == runs["t"]
    print(f"\nPASS criterion 11: {len(runs['a'])} output files byte-identical "
          f"across reruns and BLAS thread counts")
