"""Command-line batch runner: JSON config in, CSV out.

    qsdp <command> --config <path.json> --out <path.csv> [--no-timestamp]

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys

import numpy as np

from .experiments import COMMANDS, ConfigError, dispatch

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdp",
        description="Quantized sharded-training experiments: config to CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", required=True, help="CSV output path")
        cmd.add_argument(
            "--no-timestamp",
            action="store_true",
            help="suppress the timestamp header line for byte-reproducible output",
        )
    return parser


def _format(cell) -> str:
    if isinstance(cell, (bool, np.bool_)):
        return "true" if cell else "false"
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, np.integer):
        return str(int(cell))
    return str(cell)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # malformed JSON, or an integer beyond int()'s digit limit
                raise ConfigError(exc) from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        header, rows = dispatch(args.command, cfg)
    except (ConfigError, OSError) as exc:
        print(f"qsdp: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print(f"qsdp: numerical failure: {exc}", file=sys.stderr)
        return 3

    try:
        with open(args.out, "w", newline="") as fh:
            if not args.no_timestamp:
                fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format(c) for c in row])
    except OSError as exc:
        print(f"qsdp: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
