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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homstab",
        description="Exact verification of homological stability "
                    "predictions for homogeneous categories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-axioms", "connectivity", "homology",
                 "degree", "stability"):
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
    cfg = verifier.load_config(args.config)
    if args.command == "verify-axioms":
        return verifier.run_axioms(cfg)
    if args.command == "connectivity":
        return verifier.run_connectivity(cfg)
    if args.command == "homology":
        return verifier.run_homology(cfg, jobs=args.jobs)
    if args.command == "degree":
        return verifier.run_degree(cfg)
    return verifier.run_stability(cfg, jobs=args.jobs)


def main(argv=None) -> int:
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
