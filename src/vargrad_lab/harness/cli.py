"""Command-line interface.

    vargrad-lab <subcommand> --config <path> [--seed N] [--out <path>]

Subcommands are the experiment names; the config file must declare the same
experiment, so a file never silently drives the wrong runner. Exit codes:
0 success, 2 configuration error, 3 numerical abort during a run.
"""

from __future__ import annotations

import argparse
import sys

from ..optim import NonFiniteGradientError
from .config import EXPERIMENTS, ConfigError, parse_config
from .experiments import RUNNERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vargrad-lab",
        description="Gradient-estimator experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a 'key = value' config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment '{cfg.experiment}' "
                f"but the subcommand is '{args.command}'"
            )
        cfg = cfg.with_overrides(seed=args.seed, out=args.out)
        if cfg.out is None:
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        out = RUNNERS[cfg.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteGradientError, ArithmeticError) as exc:  # overflow, fp errors
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
