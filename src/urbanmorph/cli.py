"""Command-line entry point: one subcommand per pipeline stage plus ``run``.

Configuration comes from an optional flat ``key = value`` file; every config
key can be overridden by a same-named flag (underscores become dashes).
Exit codes: 0 success, 1 computation error, 2 configuration, input or file
system error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigError, FormatError, UrbanMorphError
from .pipeline import (
    STAGES,
    PipelineConfig,
    build_config,
    parse_config_file,
    reuse_freed_memory,
    run_all,
)

_SUBCOMMANDS = [*STAGES, "run"]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "out":
            continue  # --out is a global flag
        # SUPPRESS: an absent flag must not overwrite the global --seed.
        parser.add_argument(flag, dest=f.name, default=argparse.SUPPRESS, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urbanmorph",
        description=(
            "Building-height regression from coarse rasters and gridded "
            "urban canopy parameters."
        ),
    )
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        _add_config_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)
    }
    if args.out is not None:
        overrides["out"] = args.out
    return build_config(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the exit code.  A stage runs after
    ``reuse_freed_memory``, as ``run_all`` does, so on glibc it reuses the
    memory it frees; the process keeps that policy after ``main`` returns."""
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        cfg = _config_from_args(args)
        if stage == "run":
            outputs = run_all(cfg)
        else:
            reuse_freed_memory()
            outputs = STAGES[stage](cfg)
    except (UrbanMorphError, OSError) as exc:
        # One line, even where a value in the message holds a line break.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"ERROR stage={stage}: {message}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError, OSError)) else 1
    for key, path in outputs.items():
        print(f"{key}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
