"""Command-line verifier.

Subcommands: verify-axioms, connectivity, homology, degree, stability.
Exit codes: 0 all checks clean; 1 the config or the run is invalid, or a
budget refuses the run outside a grid cell (one line "homstab: error:
<message>" on stderr); 2 at least one violation or failed check; 3
budget-starved (some cells skipped, no violations).

The flags are described once, in OPTIONS.  A well-formed call is read
from that table by `read_argv`; argparse is loaded only when argv is
anything else, to print help, usage or an error.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import verifier
from .groups import BudgetExceeded


COMMANDS = ("verify-axioms", "connectivity", "homology", "degree", "stability")

# each flag: its add_argument keywords and the subcommands that take it
OPTIONS = {
    "--config": ({"required": True,
                  "help": "path to a JSON run configuration"}, COMMANDS),
    "--format": ({"choices": ("json", "table"), "default": "json"},
                 COMMANDS),
    "--jobs": ({"type": int, "default": 1,
                "help": "worker threads for grid cells"},
               ("homology", "stability")),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="homstab",
        description="Exact verification of homological stability "
                    "predictions for homogeneous categories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag, (keywords, commands) in OPTIONS.items():
            if name in commands:
                p.add_argument(flag, **keywords)
    return parser


def read_argv(argv):
    """The namespace `build_parser` gives argv, when argv is exactly
    COMMAND (--flag VALUE)*: a subcommand, then flags it takes, each
    once, written out whole, with valid values that do not begin with
    "-", and every required flag.  None for anything else."""
    command, pairs = (argv[0], argv[1:]) if argv else (None, [])
    if command not in COMMANDS or len(pairs) % 2:
        return None
    given = {}
    for flag, value in zip(pairs[::2], pairs[1::2]):
        keywords, commands = OPTIONS.get(flag, ({}, ()))
        if (command not in commands or flag in given
                or value.startswith("-")):
            return None
        try:
            given[flag] = keywords.get("type", str)(value)
        except ValueError:
            return None
        if given[flag] not in keywords.get("choices", (given[flag],)):
            return None
    values = {"command": command}
    for flag, (keywords, commands) in OPTIONS.items():
        if command in commands:
            if flag not in given and keywords.get("required"):
                return None
            values[flag[2:]] = given.get(flag, keywords.get("default"))
    return SimpleNamespace(**values)


def _run(command, config, **options) -> dict:
    """verifier.run_<command>, "verify-" dropped, on the config; the
    subcommand's other flags (--jobs) are its keywords."""
    cfg = verifier.load_config(config)
    run = getattr(verifier, "run_" + command.removeprefix("verify-"))
    return run(cfg, **options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    options = vars(read_argv(argv) or build_parser().parse_args(argv))
    fmt = options.pop("format")
    try:
        report = _run(**options)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"homstab: error: {exc}", file=sys.stderr)
        return 1
    verifier.report_emit(report, fmt)
    return verifier.exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
