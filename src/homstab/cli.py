"""Command-line verifier.

Subcommands: verify-axioms, connectivity, homology, degree, stability.
Exit codes: 0 all checks clean; 2 at least one violation or failed
check; 3 budget-starved (some cells skipped, no violations).
"""

from __future__ import annotations

import argparse
import sys

from . import verifier


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
            p.add_argument("--budget-cells", type=int, default=None,
                           help="override budgets.bar_cells from the "
                                "config")
        if name == "homology":
            p.add_argument("--cache-dir", default=None,
                           help="directory for the homology cache")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = verifier.load_config(args.config)
    if getattr(args, "budget_cells", None) is not None:
        cfg.budgets["bar_cells"] = args.budget_cells
        cfg.raw.setdefault("budgets", {})["bar_cells"] = args.budget_cells
    if args.command == "verify-axioms":
        report = verifier.run_axioms(cfg)
    elif args.command == "connectivity":
        report = verifier.run_connectivity(cfg)
    elif args.command == "homology":
        report = verifier.run_homology(cfg, cache_dir=args.cache_dir,
                                       jobs=args.jobs)
    elif args.command == "degree":
        report = verifier.run_degree(cfg)
    else:
        report = verifier.run_stability(cfg, jobs=args.jobs)
    verifier.report_emit(report, args.format)
    return verifier.exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
