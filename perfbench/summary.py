#!/usr/bin/env python3
"""Print every benchmark metric, with its unit, for every workload.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace]

Runs ``run.py`` once per workload (untraced, and traced too with
``--trace``) and prints its end-to-end metrics plus ``failed_share``,
the failed share of the processes it started.  Exits non-zero if any
run is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="config seed for every workload (default: each one's pinned seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
            if proc.returncode != 0:
                print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
                all_correct = False
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']}")
            print("  " + next(ln for ln in lines if ln.startswith("env ")))
            for name, m in result["metrics"].items():
                print(f"  {name}: {m['value']:.6g} {m['unit']}")
            print(f"  failed_share: {result['failed'] / result['attempted']:.6g} ratio "
                  f"({result['failed']} of {result['attempted']})")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
