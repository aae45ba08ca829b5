"""Fidelity checks for the benchmark's tracer.

    python3 -m pytest perfbench -q
"""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import perclap  # noqa: E402
from perclap import LatticeBox, sample_graph, spectral  # noqa: E402
from perclap.config import config_from_dict  # noqa: E402
from perclap.kernels import derive_seed  # noqa: E402
from perclap.lattice import Cluster, clusters  # noqa: E402
from perclap.runner import run  # noqa: E402

from tracer import TARGETS, Tracer, package_modules, shape_key  # noqa: E402

# small configs that between them reach every target: d=1 runs the
# analytic tails and decay, the d=2 one has a cluster above the dense
# threshold, so ids goes through count_leq and its singular-shift retry
SMALL = {
    "d1": ("all", {"d": 1, "L": 3000, "p": 0.3, "realizations": 2, "seed": 5,
                   "decay_samples": 2000}),
    "d2": ("ids", {"d": 2, "L": 48, "p": 0.6, "seed": 1, "boundary_conditions": ["N"],
                   "grid_points": 2, "grid_refine": 0}),
}


def expected_bindings(target):
    """Modules binding ``target``, from the package sources alone."""
    mod_name, attr = target.split(".", 1)
    found = {f"perclap.{mod_name}"}
    for path in (ROOT / "src" / "perclap").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == mod_name
                    and any(a.name == attr and a.asname is None for a in node.names)):
                found.add("perclap" if path.stem == "__init__" else f"perclap.{path.stem}")
    return found


def test_every_target_is_wrapped_at_every_binding():
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
        for target in TARGETS:
            original = tracer.originals[target]
            for mod in package_modules():
                assert all(v is not original for v in vars(mod).values()), (target, mod)
            assert {m for m, _ in tracer.bindings[target]} >= expected_bindings(target)
    finally:
        tracer.uninstall()
    for target, original in tracer.originals.items():
        mod_name, attr = target.split(".", 1)
        assert getattr(sys.modules[f"perclap.{mod_name}"], attr) is original


def child(mode, task, cfg, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / mode
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, task, str(config), str(out),
         repr(time.monotonic())],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    manifest = json.loads((out / "manifest.json").read_text())
    return record, manifest["outputs"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced(name, tmp_path):
    task, cfg = SMALL[name]
    plain, plain_outputs = child("run", task, cfg, tmp_path)
    traced, traced_outputs = child("trace", task, cfg, tmp_path)
    assert plain["exit"] == traced["exit"] == 0
    assert traced_outputs == plain_outputs
    assert traced["trace"]["absent"] == []


def test_per_layer_metrics_cover_the_benchmark_and_repeat(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    from_run = {"runner.output_bytes", "tails.decay_truncated", "trace.overhead_s"}
    produced, counts = set(), []
    for name in sorted(SMALL):
        task, cfg = SMALL[name]
        metrics = [child("trace", task, cfg, tmp_path / f"{name}{i}")[0]["trace"]["metrics"]
                   for i in range(2)]
        produced |= set(metrics[0])
        counts.append(metrics)
    assert {m["name"] for m in spec} - from_run <= produced
    for first, second in counts:
        for key, value in first.items():
            if key.endswith((".calls", "_out", "shapes", "subsets", "retries", "_drawn",
                             "_labeled")):
                assert second[key] == value, key
    d1, d2 = counts[0][0], counts[1][0]
    assert d1["spectral.count_leq.calls"] == 0 and d2["spectral.count_leq.calls"] > 0
    assert d2["spectral.inertia_retries"] > 0
    assert d2["tails.cluster_size_decay.calls"] == 0
    assert d1["lattice.distinct_shapes"] < d1["lattice.clusters_out"]


def test_shape_key_matches_canonical_key_without_memoizing():
    graph = sample_graph(LatticeBox(2, 12), 0.4, derive_seed(3, 0))
    for c in clusters(graph):
        assert shape_key(c) == Cluster(c.d, c.vertices, c.coords, c.edges,
                                       c.degrees).canonical_key()
        assert c._key is None


def test_tracer_never_calls_canonical_key(tmp_path, monkeypatch):
    calls = []
    original = Cluster.canonical_key

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Cluster, "canonical_key", counting)
    cfg = config_from_dict(dict(SMALL["d1"][1], L=400))
    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    run(cfg, tmp_path / "plain")
    untraced = len(calls)
    calls.clear()
    monkeypatch.setattr(spectral, "_SPECTRUM_CACHE", {})
    tracer = Tracer().install()
    try:
        run(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()
    tracer.metrics(1.0)
    assert len(calls) == untraced > 0


def test_removed_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(spectral, "count_leq")
    monkeypatch.delattr(perclap, "count_leq")
    tracer = Tracer(TARGETS + ("nosuchmodule.f", "lattice.no_such_function")).install()
    try:
        run(config_from_dict(dict(SMALL["d1"][1], L=400)),
            tmp_path / "out")
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"spectral.count_leq", "nosuchmodule.f",
                                  "lattice.no_such_function"}
    metrics = tracer.metrics(1.0)
    assert not [k for k in metrics if "count_leq" in k or k == "spectral.inertia_retries"]
    assert metrics["spectral.eigenvalues.calls"] > 0
