"""Mutation checks: each mutant must make its test selection fail.

    python tools/mutants.py

A mutant replaces one exact text (its anchor) in one file of ``src/``
with a deliberate fault.  For each, ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory, the anchor is
replaced there and ``pytest -x -k <selection>`` runs in that copy, so
the working tree is never touched.  A mutant is killed when a selected
test fails; an error that stops pytest before any test fails (a
collection error, say) does not kill it.  First the selections run
once together on the unpatched copy, and they must pass.  The script
exits 1 if any anchor does not occur exactly once (checked for every
mutant before any test runs), if that control run fails or if
any mutant survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/perclap
    anchor: str
    replacement: str
    select: str  # pytest -k expression
    why: str


MUTANTS = (
    Mutant(
        "bridge-bound-off-by-one", "kernels.py",
        "(len(eu) == n_vertices - 1 or 2 * w_b >= k)",
        "(len(eu) == n_vertices - 1 or 2 * w_b >= k - 1)",
        "cheeger",
        "a bridge settles the cut only when 1/w_b <= 2/k; a 9-cycle with a "
        "2-vertex pendant path has 2 w_b = k - 1 and h = 2/5 < 1/2",
    ),
    Mutant(
        "bridge-search-ignores-connectivity", "kernels.py",
        "    return best if clock == n + 1 else None\n",
        "    return best\n",
        "cheeger",
        "a disconnected graph can have m = n - 1 (a triangle and a 3-path); "
        "its h is 0, not a bridge ratio",
    ),
    Mutant(
        "bridge-side-not-the-smaller", "kernels.py",
        "best = max(best, min(s, n - s))",
        "best = max(best, s)",
        "cheeger",
        "W is the smaller side of the bridge; a subtree can hold more than "
        "half the vertices",
    ),
    Mutant(
        "chain-rule-strict", "isoperimetry.py",
        "(pos_n <= pos_dt).all(axis=1)",
        "(pos_n < pos_dt).all(axis=1)",
        "positional_chain_rule or check_stack_counts",
        "equal positions mean no grid energy in [lambda_Dt, lambda_N): the "
        "chain holds there",
    ),
    Mutant(
        "range-verdict-per-stack", "isoperimetry.py",
        "sum((e[:, 0] < -tol) | (e[:, -1] > width + tol) for e in (e_n, e_dt, e_d))",
        "sum(np.full(k, ((e[:, 0] < -tol) | (e[:, -1] > width + tol)).any())\n"
        "                          for e in (e_n, e_dt, e_d))",
        "check_stack_counts",
        "each row of a stack is its own shape: one shape out of range must "
        "not mark the others",
    ),
    Mutant(
        "counts-all-without-snap", "spectral.py",
        "return E >= width * (1.0 - ATOM_TOL_FACTOR)",
        "return E >= width",
        "threshold_sweep or integer_energy_is_never_mirrored or mirrored_giant",
        "the Dirichlet eigenvalue at 4d lies within the snap of the top "
        "refined grid energy; the sparse count must count it as the dense "
        "pool does",
    ),
    Mutant(
        "neumann-its-own-mirror", "laplacian.py",
        "if self is BoundaryCondition.NEUMANN:\n            return BoundaryCondition.DIRICHLET",
        "if self is BoundaryCondition.NEUMANN:\n            return BoundaryCondition.NEUMANN",
        "mirrored_giant or analytic_tail_fit_upper_edge_identities or expected_slope",
        "spec(D) = 4d - spec(N): the Neumann upper edge is the Dirichlet lower "
        "one, and a Neumann factorization's positive pivots count Dirichlet",
    ),
    Mutant(
        "mirror-across-snap-window", "spectral.py",
        "if clean and j >= 0 and snap <= E:",
        "if clean and j >= 0:",
        "threshold_sweep or integer_energy_is_never_mirrored or mirrored_giant",
        "below the snap, n - count leaves out the mirror's eigenvalue at 4d, "
        "which the snap counts at the partner energy",
    ),
    Mutant(
        "mirror-unclean-partner", "spectral.py",
        "if clean and j >= 0 and snap <= E:",
        "if j >= 0 and snap <= E:",
        "broken_down_partner",
        "n - count is the mirror's count only when no eigenvalue lies at E: "
        "a shifted or broken-down count must not be mirrored",
    ),
    Mutant(
        "mirror-pairing-exact", "spectral.py",
        "np.abs(grid[nearest] - target) <= ATOM_TOL_FACTOR * width",
        "grid[nearest] == target",
        "mirror_partners or mirrored_giant",
        "linspace is not bitwise symmetric: a partner sits up to 2 ulps off "
        "4d - E",
    ),
    Mutant(
        "clean-without-pivot-test", "spectral.py",
        "clean = pivots is not None and bool(np.abs(pivots).min() >= breakdown)",
        "clean = pivots is not None",
        "count_leq or giant or mirror",
        "a pivot near 0 means an eigenvalue near E, whose side the signs do "
        "not settle",
    ),
    Mutant(
        "diagonal-in-vertex-order", "laplacian.py",
        "self.matrix.data[self.diag_pos] = diag[self._vertex] - E",
        "self.matrix.data[self.diag_pos] = diag - E",
        "count_leq or giant or mirror",
        "after the first factorization a giant shape's matrix is stored "
        "permuted; a diagonal written in vertex order puts each degree on "
        "another vertex",
    ),
    Mutant(
        "reflected-fallback-unreversed", "laplacian.py",
        "eigs = 4 * self.cluster.d - held[::-1]",
        "eigs = 4 * self.cluster.d - held",
        "count_leq or giant or mirror",
        "spec(D) is 4d minus spec(N) reversed; unreversed it descends, and "
        "the fallback's searchsorted count is wrong",
    ),
    Mutant(
        "stacked-solve-unchunked", "spectral.py",
        "per_chunk = DENSE_THRESHOLD ** 2 // (n * n)",
        "per_chunk = len(missing)",
        "shape_spectra",
        "one stacked eigvalsh call holds at most DENSE_THRESHOLD**2 matrix "
        "entries",
    ),
    Mutant(
        "mirror-integer-partner", "spectral.py",
        "if not _refused(g) and mkey not in shape.counts:",
        "if mkey not in shape.counts:",
        "integer_partner_is_never_mirrored",
        "a clean factorization within the snap above an integer eigenvalue k "
        "leaves k out of the eigenvalues > E, but the integer partner 4d - k "
        "counts its mirror",
    ),
    Mutant(
        "clusters-skip-upper-ends", "lattice.py",
        "    touched[ev] = True\n",
        "",
        "clusters_match_reference_decomposition",
        "a vertex reached only as the upper end of its open edges (the "
        "highest vertex of a box always is) belongs to a cluster, not to "
        "the isolated vertices",
    ),
    Mutant(
        "clusters-unstable-vertex-sort", "lattice.py",
        'korder = np.argsort(kroots, kind="stable")',
        "korder = np.argsort(kroots)",
        "clusters_match_reference_decomposition",
        "a cluster's vertices are ascending, and an unstable sort by root "
        "scrambles them for d >= 2, where a cluster is not one run of indices",
    ),
    Mutant(
        "shape-ids-unstable-by-size", "lattice.py",
        'by_size = np.argsort(keys.sizes[firsts], kind="stable")',
        "by_size = np.argsort(keys.sizes[firsts])",
        "shape_ensemble",
        "shapes of one vertex count keep their first-seen order; an "
        "unstable sort by count scrambles them",
    ),
    Mutant(
        "key-without-offset", "lattice.py",
        "rows[:, :n] = vertices - vertices[:, :1]",
        "rows[:, :n] = vertices",
        "shape_ensemble",
        "translates have equal index offsets, not equal indices: keyed by "
        "its indices, every translate is a shape of its own",
    ),
    Mutant(
        "key-without-edges", "lattice.py",
        "        rows[:, n:] = self.edges[self.estart[members, None] + np.arange(2 * ne)]\n",
        "        rows[:, n:] = 0\n",
        "shape_ensemble",
        "offsets alone do not fix a shape: in d = 2 the steps (L - 1, 0) "
        "and (-1, 1) both give L - 1, and only the edges tell the two apart",
    ),
    Mutant(
        "isolated-vertices-uncounted", "lattice.py",
        "n_isolated = self.total_vertices - int(keys.sizes.sum())",
        "n_isolated = 0",
        "shape_ensemble",
        "the isolated vertices have no key columns, but they are clusters: "
        "the isolated shape's multiplicity and the cluster count hold them",
    ),
    Mutant(
        "cluster-degree-int32", "lattice.py",
        "minlength=vertices.size).astype(np.int64, copy=False)",
        "minlength=vertices.size).astype(np.int32)",
        "shape_ensemble_property",
        "every Cluster holds int64 arrays, the shape representatives' degrees too",
    ),
    Mutant(
        "join-by-concatenate", "lattice.py",
        "_join(column) for column in columns)",
        "np.concatenate(column) for column in columns)",
        "traced_peak_on_long_paths",
        "np.concatenate holds every part beside the joined copy: 12.4 MB "
        "traced on d1_paths' graphs against the 11.4 MB bound",
    ),
    Mutant(
        "verify-fresh-cache", "runner.py",
        "by_bc = {bc: shape_spectra(ensemble, bc, cache) for bc in ALL_BCS}",
        "by_bc = {bc: shape_spectra(ensemble, bc, {}) for bc in ALL_BCS}",
        "solves_each_shape_once",
        "verify reads the spectra ids solved; a fresh cache solves every "
        "shape again",
    ),
    Mutant(
        "open-threshold-floor", "kernels.py",
        "threshold = math.ceil(p * 2.0**53) << 11",
        "threshold = math.floor(p * 2.0**53) << 11",
        "open_rule",
        "k 2^-53 < p iff k < ceil(p 2^53); floor drops the bond at k = "
        "floor(p 2^53) when p is not dyadic",
    ),
    Mutant(
        "open-threshold-inclusive", "kernels.py",
        "return z < np.uint64(threshold)",
        "return z <= np.uint64(threshold)",
        "open_rule",
        "the uniform must be strictly below p",
    ),
    Mutant(
        "frontier-ignores-arrival-mask", "kernels.py",
        "hit &= free.take(front & amask, axis=0)",
        "hit &= free.take(walls[vertex], axis=0)",
        "origin",
        "an entry must not draw the bonds it arrived by: redrawn open, they "
        "lead back to its parents, and the search bounces between levels "
        "until the round guard raises",
    ),
    Mutant(
        "frontier-keeps-one-parent", "kernels.py",
        "front = np.bitwise_or.reduceat(key,",
        "front = np.minimum.reduceat(key,",
        "origin",
        "a vertex reached from two parents in one round arrived by both "
        "bonds; kept with one bit, it redraws the other, open, back into "
        "the older level, and the search never settles",
    ),
    Mutant(
        "series-prefix-at-weight-truncation", "tails.py",
        "    k = min(weight_cutoff(p), length)\n"
        "    n, weights = prefix(k)\n"
        "    if k < length and weights[-1] != 0.0:\n",
        "    k = min(math.ceil(math.log(1e-16) / math.log(p)), length)\n"
        "    n, weights = prefix(k)\n"
        "    if False:\n",
        "series_shared_weights",
        "the 1e-16 weight truncation is not the underflow bound: a prefix "
        "cut there, and trusted, drops weights that are not yet +0.0 "
        "(the run-time check would refuse that cut, so it goes too)",
    ),
    Mutant(
        "series-prefix-unchecked", "tails.py",
        "    if k < length and weights[-1] != 0.0:\n",
        "    if False:\n",
        "falls_back",
        "a cutoff whose last weight is not +0.0 must fall back to the full "
        "length, not drop the weights past it",
    ),
)


def check_anchors(mutants) -> list:
    """Names of the mutants whose anchor does not occur exactly once."""
    bad = []
    for m in mutants:
        n = (ROOT / "src" / "perclap" / m.file).read_text().count(m.anchor)
        if n != 1:
            print(f"ANCHOR {m.name}: {m.file} holds the anchor {n} times", flush=True)
            bad.append(m.name)
    return bad


def run_selection(select: str, mutant: Mutant | None = None):
    """Run ``pytest -x -k select`` on a copy of the tree, with the mutant
    applied if one is given; the completed process."""
    with tempfile.TemporaryDirectory(prefix="perclap-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            target = work / "src" / "perclap" / mutant.file
            target.write_text(target.read_text().replace(mutant.anchor, mutant.replacement))
        # pyproject's pythonpath puts the copy's src first on sys.path
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-k", select, "tests"],
            cwd=work, env=env, capture_output=True, text=True,
        )


def _first_failure(proc) -> str:
    """pytest's first FAILED or ERROR line, else its last line."""
    lines = proc.stdout.strip().splitlines() or [""]
    return next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), lines[-1])


def main() -> int:
    if check_anchors(MUTANTS):
        return 1
    start = time.monotonic()
    control = run_selection(" or ".join(sorted({f"({m.select})" for m in MUTANTS})))
    if control.returncode != 0:
        print(f"CONTROL the unpatched selections fail: {_first_failure(control)}", flush=True)
        return 1
    print(f"control: the unpatched selections pass ({time.monotonic() - start:.1f} s)",
          flush=True)
    survived = []
    for m in MUTANTS:
        t = time.monotonic()
        proc = run_selection(m.select, m)
        killed = proc.returncode == 1  # pytest's exit code for failed tests
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name} ({time.monotonic() - t:.1f} s)"
              f": {_first_failure(proc)}", flush=True)
        if not killed:
            survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.1f} s", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
