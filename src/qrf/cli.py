"""Command-line experiment runner.

    qrf run <config-path>          # execute a key = value config file
    qrf figure <name> [--out DIR]  # run a built-in figure preset (fig3..fig9)
    qrf suite [--seed N] [--out DIR]

Exit codes: 0 success, 2 configuration problems, 3 numerical-invariant
failures.  Diagnostics go to stderr; data only to files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, QRFError, UnknownFigure
from .experiments import (
    ExperimentConfig,
    FIGURE_PRESETS,
    emit_figure_data,
    load_config,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrf",
        description="Run reference-frame simulation experiments and figure reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("config", type=Path, help="path to a key = value config file")

    figure = sub.add_parser("figure", help="run a built-in figure preset")
    figure.add_argument("name", help=f"one of {', '.join(sorted(FIGURE_PRESETS))}")
    figure.add_argument("--out", type=Path, default=Path("qrf-out"), help="output directory")

    suite = sub.add_parser("suite", help="run the seeded invariant suite")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--out", type=Path, default=Path("qrf-out"), help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            manifest = run_experiment(load_config(args.config))
        elif args.command == "figure":
            manifest = emit_figure_data(args.name, args.out)
        else:
            config = ExperimentConfig(kind="invariant-suite", output_dir=args.out, seed=args.seed)
            manifest = run_experiment(config)
    except (ConfigError, UnknownFigure) as exc:
        print(f"qrf: {exc}", file=sys.stderr)
        return 2
    except QRFError as exc:  # NumericalFailure and every other library error
        print(f"qrf: {exc}", file=sys.stderr)
        return 3
    for entry in manifest["files"]:
        print(f"qrf: wrote {entry['name']} ({entry['rows']} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
