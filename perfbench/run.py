#!/usr/bin/env python3
"""perclap benchmark: cold-process CLI runs of pinned workloads.

    python3 perfbench/run.py --workload d1_paths [--seed N] [--seconds S] [--trace 0|1]

Every measured run is one ``perclap.cli.main([task, "--config", ...])``
call in a fresh interpreter (``child.py``): ``spectral._SPECTRUM_CACHE``
and the ``lru_cache`` on ``lattice._candidate_edges`` are process-global,
so repeating calls in one process would time a warm program that no CLI
user runs.  Runs follow one another (closed loop, one client) until the
next one would end after ``--seconds``; at least one run is made.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced runs.  ``--trace 1`` adds one traced run in its own process and
reports the per-layer metrics.  Every run is checked: exit code 0,
manifest status ``ok``, each output file matching its manifest SHA-256,
zero verify violations and, at a workload's pinned seed, the output
hashes pinned in ``reference_hashes.json``.  The last stdout line is the
JSON result; the lines above it are for people.
"""

import argparse
import hashlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

# workload -> CLI task; the config is workloads/<name>.json with its seed
# rewritten.  Why each workload exists is in README.md.
WORKLOADS = {"d1_paths": "all", "d2_decay": "all", "d2_giant": "ids"}

SETUP_PROBES = 10  # extra import-and-parse children per untraced run
BUDGET_S = 170.0   # children still running after this are killed


def spawn(mode, task, config, out, deadline):
    """Run child.py once; its JSON record, or one holding ``error``."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, task, str(config), str(out)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn)], capture_output=True, text=True,
                              cwd=ROOT, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child killed after {deadline - t_spawn:.0f} s"}
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        return {"error": f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-800:]}",
                "wall": wall}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall"] = wall
    return record


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(record, out, reference):
    """Problems with one CLI run, and its manifest output hashes."""
    if "error" in record:
        return [record["error"]], {}
    problems = []
    if record["exit"] != 0:
        problems.append(f"perclap exited {record['exit']}")
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no readable manifest: {exc}"], {}
    outputs = manifest.get("outputs", {})
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    for name, digest in outputs.items():
        path = out / name
        if not path.is_file() or sha256(path) != digest:
            problems.append(f"{name} does not match its manifest hash")
    if "verify_summary.json" in outputs:
        violations = json.loads((out / "verify_summary.json").read_text())["violations"]
        if any(violations.values()):
            problems.append(f"verify violations {violations}")
    if reference is not None and outputs != reference:
        problems.append("output hashes differ from reference_hashes.json")
    return problems, outputs


def quartiles(values):
    """(median, first quartile, third quartile) of one or more values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def output_facts(out):
    """Per-layer metrics read from the output files of a traced run."""
    manifest = json.loads((out / "manifest.json").read_text())
    decay = out / "decay.json"
    return {
        "runner.output_bytes": sum((out / n).stat().st_size for n in manifest["outputs"]),
        "tails.decay_truncated": json.loads(decay.read_text())["truncated"] if decay.is_file() else 0,
    }


def measure(workload, seed, seconds, trace, work):
    task = WORKLOADS[workload]
    config = dict(json.loads((BENCH / "workloads" / f"{workload}.json").read_text()), seed=seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    pinned = json.loads((BENCH / "reference_hashes.json").read_text())[workload]
    reference = pinned["outputs"] if seed == pinned["seed"] else None
    deadline = time.monotonic() + BUDGET_S
    print(f"{workload}: task={task} seed={seed} reference check "
          f"{'on (pinned seed)' if reference else 'off (not the pinned seed)'}")

    attempted, failed, env = 0, 0, None
    setup, run_s, rss, hashes = [], [], [], None

    def attempt(mode, tag):
        nonlocal attempted, failed, env
        out = work / tag
        record = spawn(mode, task, config_path, out, deadline)
        attempted += 1
        env = env or record.get("env")
        if mode == "setup":
            problems, outputs = ([record["error"]] if "error" in record else []), {}
        else:
            problems, outputs = check(record, out, reference)
        if problems:
            failed += 1
            print(f"{tag}: FAILED: {'; '.join(problems)}")
        return record, problems, outputs, out

    if not trace:
        for i in range(SETUP_PROBES):
            record, problems, _, _ = attempt("setup", f"setup{i}")
            if not problems:
                setup.append(record["setup_s"])
    start = time.monotonic()
    for i in itertools.count(1):
        tag = f"run{i}"
        record, problems, outputs, out = attempt("run", tag)
        shutil.rmtree(out, ignore_errors=True)
        if "error" in record:
            break
        # a call with wrong outputs is counted as failed but still timed
        setup.append(record["setup_s"])
        run_s.append(record["run_s"])
        rss.append(record["peak_rss_mb"])
        hashes = hashes or outputs
        print(f"{tag}: seed={seed} run_s={record['run_s']:.4f} setup_s={record['setup_s']:.4f} "
              f"peak_rss_mb={record['peak_rss_mb']:.1f} {'FAILED' if problems else 'ok'}")
        print(f"{tag}: outputs {json.dumps(outputs, sort_keys=True)}")
        if trace or time.monotonic() - start + record["wall"] > seconds:
            break
    if not run_s:
        sys.exit(f"perfbench: no {workload} call completed")
    print(f"env {json.dumps(env, sort_keys=True)}")

    if not trace:
        metrics = {}
        for name, unit, values in (("run_s", "s", run_s), ("setup_s", "s", setup),
                                   ("peak_rss_mb", "MB", rss)):
            med, q1, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"{name}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(values)} {unit}")
        return attempted, failed, metrics

    record, problems, outputs, out = attempt("trace", "trace")
    if not problems and outputs != hashes:
        failed += 1
        print("trace: FAILED: traced output hashes differ from the untraced run")
    elif not problems:
        traced = record["trace"]
        for name, start_s, end_s, parent in traced["spans"]:
            print(f"span {name} <- {parent}: {start_s:.4f} .. {end_s:.4f} s")
        for fn, parent, calls, incl, self_s in traced["table"]:
            print(f"call {fn} <- {parent}: calls={calls} s={incl:.4f} self_s={self_s:.4f}")
        if traced["absent"]:
            print(f"absent targets (their metrics are left out): {', '.join(traced['absent'])}")
        values = dict(traced["metrics"], **output_facts(out))
        values["trace.overhead_s"] = record["run_s"] - statistics.median(run_s)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec if m["name"] in values}
        for name, m in metrics.items():
            print(f"{name}: {m['value']} {m['unit']}")
        return attempted, failed, metrics
    return attempted, failed, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="config seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "perclap" / "cli.py").is_file():
        sys.exit(f"perfbench: no perclap sources at {ROOT / 'src' / 'perclap'}")
    seed = args.seed
    if seed is None:
        seed = json.loads((BENCH / "workloads" / f"{args.workload}.json").read_text())["seed"]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        attempted, failed, metrics = measure(args.workload, seed, args.seconds,
                                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"failed_share: {failed / attempted:.4f} ratio ({failed} of {attempted} processes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
