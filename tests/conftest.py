import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perclap
from perclap import LatticeBox, cheeger_constant, sample_graph
from perclap.isoperimetry import EXHAUSTIVE_CUTOFF
from perclap.kernels import derive_seed
from perclap.laplacian import ALL_BCS
from perclap.spectral import cluster_eigenvalues

N, DT, D = ALL_BCS
SRC = str(Path(perclap.__file__).resolve().parents[1])


def dfs_components(n_vertices, eu, ev):
    """Reference connected-components labeling by explicit DFS.

    Independent of the union-find / scipy code under test: adjacency
    lists plus an explicit stack.  Returns the root (minimal vertex) of
    each vertex's component.
    """
    adj = [[] for _ in range(n_vertices)]
    for u, v in zip(eu.tolist(), ev.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    roots = np.full(n_vertices, -1, dtype=np.int64)
    for start in range(n_vertices):
        if roots[start] >= 0:
            continue
        stack = [start]
        roots[start] = start
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if roots[y] < 0:
                    roots[y] = start
                    stack.append(y)
    return roots


def reference_laplacian(cluster, bc_name):
    """Assemble a Laplacian from scratch (adjacency + degree loops)."""
    n = cluster.n_vertices
    d = cluster.d
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in cluster.edges:
        a[u, v] -= 1
        a[v, u] -= 1
    deg = -a.sum(axis=1)
    if bc_name == "N":
        a[np.diag_indices(n)] = deg
    elif bc_name == "Dt":
        a[np.diag_indices(n)] = 2 * d
    elif bc_name == "D":
        a[np.diag_indices(n)] = 4 * d - deg
    else:
        raise ValueError(bc_name)
    return a


# Scalar oracles of verify's checks on the spectra of one cluster, as
# ``spectra_of`` returns them; isoperimetry.check_stack makes the same
# checks on stacks of shapes.


def spectra_of(cluster):
    """The spectra of one cluster, by boundary condition, solved afresh."""
    return {bc: cluster_eigenvalues(cluster, bc, {}) for bc in ALL_BCS}


def range_violations(spectra, d, tol):
    """Number of spectra with an eigenvalue outside [-tol, 4d + tol]."""
    return sum(1 for e in spectra.values() if e[0] < -tol or e[-1] > 4 * d + tol)


def reflection_deviation(spectra, d):
    """Max entrywise |sorted spec(D) - (4d - reversed sorted spec(N))|."""
    return float(np.abs(spectra[D] - (4 * d - spectra[N][::-1])).max())


def chain_holds(spectra, grid):
    """Eigenvalue counts ordered N >= Dt >= D at every grid energy."""
    c_n, c_dt, c_d = (np.searchsorted(spectra[bc], grid, side="right") for bc in (N, DT, D))
    return bool(np.all(c_n >= c_dt) and np.all(c_dt >= c_d))


def reference_report(cluster, spectra):
    """The report of one cluster of 2 or more vertices, by the name of
    its :class:`~perclap.isoperimetry.StackReport` column: gaps, Cheeger
    margin of E1_N >= h^2/(4d) up to the cutoff, crude margin of
    E1_N >= 1/(d n^2), FK ratio E1_Dt n^(2/d)."""
    n, d = cluster.n_vertices, cluster.d
    e1_n, e1_dt, e1_d = float(spectra[N][1]), float(spectra[DT][0]), float(spectra[D][0])
    h = cheeger_constant(cluster) if n <= EXHAUSTIVE_CUTOFF else None
    return {
        "n_vertices": n,
        "e1_neumann": e1_n,
        "e1_pseudo_dirichlet": e1_dt,
        "e1_dirichlet": e1_d,
        "h_cheeger": h,
        "cheeger_margin": None if h is None else e1_n - float(h * h) / (4 * d),
        "crude_margin": e1_n - 1.0 / (d * n * n),
        "fk_ratio": e1_dt * n ** (2.0 / d),
    }


def assert_report_columns(rep, shapes, spectra):
    """Every column of the StackReport ``rep`` of ``shapes`` equals
    bitwise the fields :func:`reference_report` gives shape by shape."""
    rows = [reference_report(c, {bc: s[i] for bc, s in spectra.items()})
            for i, c in enumerate(shapes)]
    assert rep.n_vertices == rows[0]["n_vertices"]
    for name in rows[0]:
        if name == "n_vertices":
            continue
        column = getattr(rep, name)
        got = column.tolist() if isinstance(column, np.ndarray) else column
        want = [row[name] for row in rows]
        # hex tells 0.0 from -0.0; == compares each Cheeger constant exactly
        assert [None if x is None else float(x).hex() for x in got] == \
            [None if x is None else float(x).hex() for x in want], name
        assert got == want, name


def run_single_blas_thread(cfg: dict, task: str, out) -> None:
    """Run the CLI on ``cfg`` in a fresh interpreter whose OpenBLAS pool
    has one thread, writing its outputs to ``out``."""
    out = Path(out)
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "perclap.cli", task, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="session")
def small_ensemble():
    """A handful of modest graphs reused by unit tests across modules."""
    graphs = []
    for i, (d, L, p) in enumerate(
        [(1, 200, 0.3), (2, 12, 0.3), (2, 16, 0.5), (3, 6, 0.2), (2, 10, 0.05)]
    ):
        graphs.append(sample_graph(LatticeBox(d, L), p, derive_seed(777, i)))
    return graphs
