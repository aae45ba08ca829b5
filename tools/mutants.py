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
        "positional_chain_rule or check_shape_counts",
        "equal positions mean no grid energy in [lambda_Dt, lambda_N): the "
        "chain holds there",
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
        "mirror-across-snap-window", "spectral.py",
        "if clean and j >= 0 and snap <= E <= 4 * d - snap:",
        "if clean and j >= 0:",
        "threshold_sweep or integer_energy_is_never_mirrored or mirrored_giant",
        "below the snap, n - count leaves out the mirror's eigenvalue at 4d, "
        "which the snap counts at the partner energy",
    ),
    Mutant(
        "mirror-unclean-partner", "spectral.py",
        "if clean and j >= 0 and snap <= E <= 4 * d - snap:",
        "if j >= 0 and snap <= E <= 4 * d - snap:",
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
        "stacked-solve-unchunked", "spectral.py",
        "per_chunk = DENSE_THRESHOLD ** 2 // (n * n)",
        "per_chunk = len(sids)",
        "shape_spectra",
        "one stacked eigvalsh call holds at most DENSE_THRESHOLD**2 matrix "
        "entries",
    ),
    Mutant(
        "isolated-slot-first", "lattice.py",
        "iso = int(np.searchsorted(keyed[firsts], np.argmin(keys.multi)))",
        "iso = 0",
        "shape_ensemble",
        "the isolated shape takes the id where its first cluster falls among "
        "the first clusters of the other shapes",
    ),
    Mutant(
        "isolated-degree-int32", "lattice.py",
        "    degrees = np.zeros(1, dtype=np.int64)\n",
        "    degrees = np.zeros(1, dtype=np.int32)\n",
        "shape_ensemble_property",
        "every Cluster holds int64 arrays, the isolated representative too",
    ),
    Mutant(
        "join-by-concatenate", "lattice.py",
        "_join(column) for column in columns)",
        "np.concatenate(column) for column in columns)",
        "traced_peak_on_long_paths",
        "np.concatenate holds every part beside the joined copy: 15.5 MB "
        "traced on d1_paths' graphs against the 13.5 MB bound",
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
