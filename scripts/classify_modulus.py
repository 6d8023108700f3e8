#!/usr/bin/env python3
"""Classify solution classes for one modulus and print a summary table.

Example:
    python scripts/classify_modulus.py 8 --sizes 3..8 --irreducible-only
"""

import argparse
import json
import sys
from pathlib import Path

from quiddity.cli import _sizes_arg
from quiddity.enumeration import DEFAULT_WORK_LIMIT, SearchConfig, classify


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2, as in the quiddity CLI."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def main():
    ap = _Parser()
    ap.add_argument("modulus", type=int)
    ap.add_argument("--sizes", type=_sizes_arg, default="3..8", help="e.g. 3..8 or 3,4,5")
    ap.add_argument("--irreducible-only", action="store_true")
    ap.add_argument("--allow-large", dest="work_limit", action="store_const", const=None,
                    default=DEFAULT_WORK_LIMIT, help="run with no work budget")
    ap.add_argument("--json", type=Path, default=None, help="also dump the report here")
    args = ap.parse_args()

    try:
        config = SearchConfig(
            modulus=args.modulus, sizes=args.sizes,
            irreducible_only=args.irreducible_only, work_limit=args.work_limit)
    except ValueError as exc:
        ap.error(str(exc))
    report = classify(config)
    print(f"modulus {args.modulus}  ({report.elapsed_s:.2f}s)")
    print(f"{'n':>3}  {'classes':>8}  {'reducible':>9}  {'irreducible':>11}")
    for s in report.sizes:
        total = "-" if s.total_classes is None else s.total_classes
        red = "-" if s.reducible_count is None else s.reducible_count
        print(f"{s.size:>3}  {total:>8}  {red:>9}  {len(s.irreducible):>11}")
        for rep in s.irreducible:
            print(" " * 6 + ",".join(map(str, rep)))
    if args.json:
        args.json.write_text(report.to_json() + "\n")
        print(f"wrote {args.json}", file=sys.stderr)


if __name__ == "__main__":
    main()
