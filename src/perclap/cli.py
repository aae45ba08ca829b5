"""Command-line entry point.

Usage: perclap <task> --config <file> [--out <dir>] [-v/--log-level <level>]

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure; the
exit-3 message names the kind, e.g. ``numeric failure (domain): ...``.
"""

import argparse
import logging
import sys

from .config import TASKS, parse_config
from .exceptions import ConfigurationError, PerclapError
from .runner import run

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perclap",
        description="Bond-percolation graph Laplacians: spectra, IDS, tails.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("-v", "--log-level", default="WARNING", type=str.upper,
                        choices=LOG_LEVELS,
                        help="least severe log records written to stderr (default WARNING)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(args.config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else "perclap-out"
    try:
        run(cfg, out_dir, task=args.task)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PerclapError as exc:
        print(f"numeric failure ({exc.kind}): {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure (out of memory): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
