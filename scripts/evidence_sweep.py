#!/usr/bin/env python3
"""Sweep moduli and report the largest irreducible size seen up to a bound.

Evidence only: a sweep says nothing past its scanned bound, and the
output says so.

Example:
    python scripts/evidence_sweep.py --max-modulus 9 --extra 3
"""

import argparse

from quiddity.enumeration import DEFAULT_WORK_LIMIT, evidence_scan


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-modulus", type=int, default=2)
    ap.add_argument("--max-modulus", type=int, default=8)
    ap.add_argument("--extra", type=int, default=3,
                    help="scan sizes up to modulus + extra")
    ap.add_argument("--allow-large", dest="work_limit", action="store_const", const=None,
                    default=DEFAULT_WORK_LIMIT, help="run with no work budget")
    args = ap.parse_args()

    print(f"{'N':>3}  {'n_max':>5}  {'largest irreducible':>19}  counts per size")
    for n_mod in range(args.min_modulus, args.max_modulus + 1):
        rep = evidence_scan(n_mod, n_mod + args.extra, args.work_limit)
        counts = " ".join(f"{k}:{v}" for k, v in sorted(rep.per_size.items()) if v)
        print(f"{n_mod:>3}  {rep.n_max:>5}  {str(rep.max_irreducible_size):>19}  {counts}")
    print("note: evidence only; sizes beyond each scan bound are untested")


if __name__ == "__main__":
    main()
