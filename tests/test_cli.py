"""Config validation, CLI behaviour, and output determinism."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import perclap
from perclap import (
    ConfigurationError,
    LatticeBox,
    clusters,
    config_from_dict,
    default_grid,
    sample_graph,
)
from perclap.cli import main
from perclap.config import (
    BC_NAMES,
    MAX_ARRAY_ITEMS,
    SIZE_FIELDS,
    TASKS,
    parse_config,
    serialize_config,
)
from perclap.kernels import derive_seed
from perclap.laplacian import DENSE_THRESHOLD
from perclap.runner import run

from conftest import reference_laplacian

MINIMAL = {"d": 1, "L": 500, "p": 0.3}
SRC = str(Path(perclap.__file__).resolve().parents[1])


def _write(tmp_path: Path, data, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_minimal_config_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.task == "all"
    assert cfg.realizations == 1
    assert cfg.boundary_conditions == ("N", "Dt", "D")
    assert cfg.tail_mode == "analytic"
    assert cfg.threads == 1


def test_config_roundtrip():
    cfg = config_from_dict({**MINIMAL, "realizations": 3, "tail_window": [1e-7, 1e-2]})
    again = config_from_dict(json.loads(serialize_config(cfg)))
    assert again == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        config_from_dict({**MINIMAL, "turbo": True})


def test_missing_required_keys_all_reported():
    with pytest.raises(ConfigurationError) as exc:
        config_from_dict({"d": 1})
    msg = str(exc.value)
    assert "'L'" in msg and "'p'" in msg


def test_invalid_values_rejected():
    for bad in [
        {**MINIMAL, "p": 1.2},
        {**MINIMAL, "p": 0.0},
        {**MINIMAL, "d": 4},
        {**MINIMAL, "L": 1},
        {**MINIMAL, "realizations": 0},
        {**MINIMAL, "boundary_conditions": ["N", "X"]},
        {**MINIMAL, "tail_mode": "magic"},
        {**MINIMAL, "tail_window": [1e-2, 1e-8]},
        {**MINIMAL, "threads": 0},
        {**MINIMAL, "grid_points": 2.5},
        {**MINIMAL, "threads": "2"},
        {**MINIMAL, "d": True},
        {**MINIMAL, "boundary_conditions": "N"},
        {**MINIMAL, "tail_window": [0.5, 9]},
        {**MINIMAL, "tail_window": "ab"},
        {**MINIMAL, "tail_window": ["a", 1]},
        {**MINIMAL, "decay_radius": "8"},
        {**MINIMAL, "emit_graph": "yes"},
        # seeds are uint64; 2**64 would alias seed 0
        {**MINIMAL, "seed": 2**64},
        # boxes above 2**31 - 1 vertices
        {"d": 2, "L": 10, "p": 0.3, "task": "decay", "decay_radius": 100000},
        {"d": 3, "L": 3000000, "p": 0.1, "task": "ids"},
        # ensembles above 2**31 - 1 vertices in all
        {**MINIMAL, "realizations": 10**14},
        # array sizes numpy refuses with a ValueError
        *({**MINIMAL, key: huge} for key in SIZE_FIELDS for huge in (2**60, 10**30)),
    ]:
        with pytest.raises(ConfigurationError):
            config_from_dict(bad)


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    texts = ["{not json", '{"d": ' + "[" * 100_000 + "]" * 100_000 + "}"]
    if hasattr(sys, "get_int_max_str_digits"):  # the digit limit came in 3.10.7
        texts.append('{"d": 1' + "0" * 5000 + "}")
    for text in texts:
        bad.write_text(text)
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config(bad)
    bad.write_bytes(b'{"d": "\xff"}')
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config(bad)


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, {**MINIMAL, "task": "ids"})
    assert main(["ids", "--config", good, "--out", str(tmp_path / "out")]) == 0
    bad = _write(tmp_path, {**MINIMAL, "p": 2.0}, name="bad.json")
    assert main(["ids", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    # arrays of 8 * 10**14 bytes or more exceed a 2**47-byte address space,
    # so these allocations fail at once under any overcommit policy
    big = 10**14
    small = {"d": 1, "L": 10, "p": 0.3}
    cases = [
        # analytic tails in d=2 have no series
        ({"d": 2, "L": 8, "p": 0.3, "task": "tails"}, "domain", "analytic tail fits"),
        ({**small, "task": "decay", "decay_radius": 2, "decay_samples": 10},
         "insufficient data", "too few size thresholds"),
        ({**small, "task": "ids", "grid_points": big}, "out of memory", ""),
        ({**small, "task": "ids", "grid_refine": big}, "out of memory", ""),
        ({**small, "task": "decay", "decay_samples": 10 * big}, "out of memory", ""),
        # the largest sizes validation accepts still fail as out of memory
        ({**small, "task": "ids", "grid_points": MAX_ARRAY_ITEMS}, "out of memory", ""),
        ({**small, "task": "ids", "grid_refine": MAX_ARRAY_ITEMS}, "out of memory", ""),
        ({**small, "task": "decay", "decay_samples": MAX_ARRAY_ITEMS}, "out of memory", ""),
        # the series at E = 1e-300 needs about 1e151 path lengths
        ({**small, "task": "tails", "tail_window": [1e-300, 1e-299]}, "unsupported size",
         "series truncation"),
        ({**small, "task": "all", "tail_window": [1e-300, 1e-299], "grid_points": 16,
          "grid_refine": 0, "decay_samples": 2000}, "unsupported size", "series truncation"),
        # verify checks no shape above the dense threshold
        ({"d": 2, "L": 48, "p": 0.6, "seed": 1, "task": "verify"}, "domain",
         "cluster size 2131 above dense threshold 2048"),
    ]
    for i, (data, kind, reason) in enumerate(cases):
        cfg = _write(tmp_path, data, name=f"c{i}.json")
        out = tmp_path / f"o{i}"
        assert main([data["task"], "--config", cfg, "--out", str(out)]) == 3, data
        assert f"numeric failure ({kind}): {reason}" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"]


# small valid values per config key: every run that passes validation is quick
_VALID = {
    "d": st.integers(1, 3),
    "L": st.integers(2, 8),
    "p": st.floats(0.05, 0.9),
    "task": st.sampled_from(TASKS),
    "realizations": st.integers(1, 2),
    "seed": st.integers(0, 2**64 - 1),
    "boundary_conditions": st.lists(st.sampled_from(BC_NAMES), min_size=1, max_size=3),
    "grid_points": st.integers(2, 16),
    "grid_refine": st.integers(0, 2),
    "tail_mode": st.sampled_from(["analytic", "mc"]),
    "tail_window": st.sampled_from([[1e-3, 1.0], [0.05, 2.0]]),
    "decay_samples": st.integers(1, 200),
    "decay_radius": st.none() | st.integers(2, 6),
    "threads": st.integers(1, 4),
    "emit_graph": st.booleans(),
}
_MISSING = object()
# keys whose defaults run long: 100,000 decay samples, a 512-point grid, and
# a d=1 series window reaching down to E = 1e-8
_SLOW_DEFAULTS = ("tail_window", *SIZE_FIELDS)
# wrong types, non-finite and extreme floats, huge integers, nested lists;
# each huge size fails validation or an allocation at once
_HOSTILE = st.one_of(
    st.sampled_from([
        _MISSING, None, True, "", "3", float("nan"), float("inf"), float("-inf"),
        1e-300, -1, 0, 2.5, 10**14, MAX_ARRAY_ITEMS, 2**63, 2**64, 10**30, {}, {"d": 1},
        [1e-300, 1e-299], [float("nan"), 1.0], [1e-300, 1e-3],
    ]),
    st.recursive(st.integers(-3, 3) | st.text(max_size=3),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


@st.composite
def _hostile_configs(draw):
    data = {key: draw(value) for key, value in _VALID.items()
            if key in ("d", "L", "p", *_SLOW_DEFAULTS) or draw(st.booleans())}
    for key in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        value = draw(_HOSTILE)
        if value is not _MISSING:
            data[key] = value
        elif key not in _SLOW_DEFAULTS:
            data.pop(key, None)
    if draw(st.integers(0, 3)) == 3:
        data[draw(st.text(min_size=1, max_size=8))] = draw(_HOSTILE.filter(
            lambda v: v is not _MISSING))
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TASKS), _hostile_configs())
def test_cli_exit_contract_on_hostile_configs(task, data):
    """Any JSON object gives exit 0, 2 or 3, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        code = main([task, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        event(f"exit {code}")
        assert code in (0, 2, 3)


def test_skipped_analytic_tails_recorded(tmp_path):
    cfg = config_from_dict({"d": 2, "L": 6, "p": 0.3, "task": "all", "grid_points": 16,
                            "grid_refine": 0, "decay_samples": 2000})
    manifest = run(cfg, tmp_path / "s")
    assert manifest["status"] == "ok"
    assert manifest["skipped"] == {"tails": "analytic tail fits require d = 1"}
    assert not any(name.startswith("tail_") for name in manifest["outputs"])
    on_disk = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert on_disk["skipped"] == manifest["skipped"]
    # a run that skips nothing records no skipped stages
    assert "skipped" not in run(config_from_dict({**MINIMAL, "task": "ids"}), tmp_path / "i")


def test_all_skips_decay_above_subcritical_cap(tmp_path, capsys):
    cfg = _write(tmp_path, {"d": 2, "L": 24, "p": 0.45, "realizations": 2, "seed": 1})
    out = tmp_path / "all"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["skipped"] == {
        "tails": "analytic tail fits require d = 1",
        "decay": "need 0 < p < 0.4 for d=2 (safely subcritical), got 0.45",
    }
    assert "verify_summary.json" in manifest["outputs"]
    assert not (out / "decay.json").exists()
    # the decay task alone still refuses p at or above the cap
    assert main(["decay", "--config", cfg, "--out", str(tmp_path / "decay")]) == 3
    assert "numeric failure (domain): need 0 < p < 0.4" in capsys.readouterr().err


def test_mc_tails_on_supercritical_box_skip_unfittable_edges(tmp_path, capsys):
    # the supercritical box's Neumann upper and Dirichlet lower edges, and
    # both Pseudo-Dirichlet edges, hold too little mass for 8 points
    data = {"d": 2, "L": 16, "p": 0.6, "seed": 1, "task": "tails", "tail_mode": "mc",
            "tail_window": [1e-3, 1]}
    out = tmp_path / "all_bcs"
    assert main(["tails", "--config", _write(tmp_path, data), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert sorted(manifest["outputs"]) == ["tail_D_upper.json", "tail_N_lower.json"]
    assert sorted(manifest["skipped"]) == [
        "tail_D_lower", "tail_Dt_lower", "tail_Dt_upper", "tail_N_upper"]
    assert all(r.startswith("insufficient data: only 0 usable points")
               for r in manifest["skipped"].values())
    assert sorted(p.name for p in out.glob("tail_*")) == sorted(manifest["outputs"])
    # with no fit left the stage fails, and the manifest still names every edge
    only_dt = _write(tmp_path, {**data, "boundary_conditions": ["Dt"]}, name="dt.json")
    out = tmp_path / "dt"
    assert main(["tails", "--config", only_dt, "--out", str(out)]) == 3
    assert "numeric failure (insufficient data): no tail fit succeeded" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert sorted(manifest["skipped"]) == ["tail_Dt_lower", "tail_Dt_upper"]
    assert manifest["outputs"] == {}


def _cli_stderr(tmp_path, *flags):
    cfg = _write(tmp_path, {"d": 2, "L": 4, "p": 0.3, "task": "decay",
                            "decay_radius": 2, "decay_samples": 2000})
    proc = subprocess.run(
        [sys.executable, "-m", "perclap.cli", "decay", "--config", cfg,
         "--out", str(tmp_path / "log"), *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_log_level_flag_controls_wall_warning(tmp_path):
    assert "touched the sampling box wall" in _cli_stderr(tmp_path)
    assert _cli_stderr(tmp_path, "--log-level", "ERROR") == ""
    assert _cli_stderr(tmp_path, "-v", "error") == ""


def test_cli_writes_expected_outputs(tmp_path):
    cfg = _write(tmp_path, {**MINIMAL, "realizations": 2})
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    for want in ("ids_N.csv", "ids_Dt.csv", "ids_D.csv", "summary_N.json",
                 "report.csv", "verify_summary.json", "tail_N_lower.json",
                 "tail_D_upper.json", "decay.json", "manifest.json"):
        assert want in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    # manifest hashes match the files on disk
    import hashlib

    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_emit_graph_flag(tmp_path):
    cfg = _write(tmp_path, {**MINIMAL, "L": 50, "task": "ids"})
    out = tmp_path / "out"
    assert main(["ids", "--config", cfg, "--out", str(out), "--emit-graph"]) == 0
    assert (out / "graph_r0000.json").exists()


def _run_and_hash(cfg_dict, out_dir):
    manifest = run(config_from_dict(cfg_dict), out_dir)
    return {name: (Path(out_dir) / name).read_bytes()
            for name in list(manifest["outputs"]) + ["manifest.json"]}


def test_outputs_byte_identical_across_reruns_and_threads(tmp_path):
    base = {"d": 2, "L": 10, "p": 0.3, "realizations": 4, "seed": 9,
            "task": "ids", "grid_points": 64, "grid_refine": 8}
    a = _run_and_hash(base, tmp_path / "a")
    b = _run_and_hash(base, tmp_path / "b")
    c = _run_and_hash({**base, "threads": 4}, tmp_path / "c")
    assert set(a) == set(b) == set(c)
    for name in a:
        assert a[name] == b[name], name
        if name != "manifest.json":  # manifest records the thread count
            assert a[name] == c[name], name


def test_supercritical_ids_matches_dense_counts(tmp_path):
    """A giant cluster above the dense threshold, on a grid that hits the
    integer energies 1, 2, 4, 6 and 7 where its spectrum has atoms: every
    ids_*.csv equals counts from dense eigvalsh with the 1e-12 * 4d snap."""
    data = {"d": 2, "L": 48, "p": 0.6, "seed": 1, "task": "ids",
            "grid_points": 17, "grid_refine": 3}
    cfg = _write(tmp_path, data)
    out = tmp_path / "out"
    assert main(["ids", "--config", cfg, "--out", str(out)]) == 0
    graph = sample_graph(LatticeBox(2, 48), 0.6, derive_seed(1, 0))
    parts = clusters(graph)
    assert max(c.n_vertices for c in parts) > DENSE_THRESHOLD
    grid = default_grid(2, 17, 3)
    assert {1.0, 2.0, 4.0, 6.0, 7.0} <= set(grid.tolist())
    for bc in ("N", "Dt", "D"):
        pool = np.sort(np.concatenate([
            np.linalg.eigvalsh(reference_laplacian(c, bc).astype(np.float64)) for c in parts
        ]))
        counts = np.searchsorted(pool, grid + 1e-12 * 8, side="right")
        want = "E,N\n" + "".join(
            f"{format(float(e), '.17g')},{format(float(v), '.17g')}\n"
            for e, v in zip(grid, counts / graph.box.n_vertices))
        assert (out / f"ids_{bc}.csv").read_text() == want, bc


def test_decay_task_output(tmp_path):
    cfg = config_from_dict({"d": 1, "L": 10, "p": 0.4, "task": "decay",
                            "decay_samples": 3000})
    manifest = run(cfg, tmp_path / "d")
    report = json.loads((tmp_path / "d" / "decay.json").read_text())
    assert report["zeta_hat"] > 0
    assert manifest["status"] == "ok"
