"""Command-line verifier.

Subcommands: verify-axioms, connectivity, homology, degree, stability.
Exit codes: 0 all checks clean; 1 the config or the run is invalid, or a
budget refuses the run outside a grid cell (one line "homstab: error:
<message>" on stderr); 2 at least one violation or failed check; 3
budget-starved (some cells skipped, no violations).
"""

from __future__ import annotations

import argparse
import sys

from . import verifier
from .groups import BudgetExceeded


COMMANDS = ("verify-axioms", "connectivity", "homology", "degree", "stability")


class _OneCommand(argparse.ArgumentParser):
    # leaves help and errors to the parser of every subcommand
    def error(self, *args):
        raise SystemExit(2)
    print_help = error


def build_parser(commands=COMMANDS, cls=argparse.ArgumentParser):
    parser = cls(
        prog="homstab",
        description="Exact verification of homological stability "
                    "predictions for homogeneous categories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a JSON run configuration")
        p.add_argument("--format", choices=("json", "table"),
                       default="json")
        if name in ("homology", "stability"):
            p.add_argument("--jobs", type=int, default=1,
                           help="worker threads for grid cells")
    return parser


def _run(args) -> dict:
    """verifier.run_<command>, "verify-" dropped, on the config."""
    cfg = verifier.load_config(args.config)
    run = getattr(verifier, "run_" + args.command.removeprefix("verify-"))
    return run(cfg, jobs=args.jobs) if "jobs" in args else run(cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # only the subparser argv names; help and errors from all five
        args = build_parser([c for c in COMMANDS if c in argv[:1]],
                            _OneCommand).parse_args(argv)
    except SystemExit:
        args = build_parser().parse_args(argv)
    try:
        report = _run(args)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"homstab: error: {exc}", file=sys.stderr)
        return 1
    verifier.report_emit(report, args.format)
    return verifier.exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
