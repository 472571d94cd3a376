#!/usr/bin/env python3
"""Scan the near-coincidence sets over Q_p and compare with the permutation
oracle, for a list of (p, n, s) configurations.

Usage:
    python scripts/syzygy_scan.py --configs 5,2,1 5,2,2 7,2,1 5,3,1 7,3,1
"""
import argparse
import json
import time

from momentsq import gn_division_loss, scan_strong_diagonal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", nargs="+", default=["5,2,1", "5,2,2", "7,2,1", "5,3,1"],
                    help="p,n,s triples")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for spec in args.configs:
        p, n, s = (int(t) for t in spec.split(","))
        t0 = time.perf_counter()
        scan = scan_strong_diagonal(p, n, s)
        rows.append({
            "p": p, "n": n, "s": s,
            "bases": scan.bases,
            "all_match_permutation_oracle": scan.all_match_permutations,
            "max_cardinality": scan.max_cardinality,
            "bound": scan.bound,
            "division_loss": str(gn_division_loss(p, n)),
            "seconds": round(time.perf_counter() - t0, 2),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    header = f"{'p':>3} {'n':>2} {'s':>2} {'bases':>7} {'match':>6} {'max|S|':>7} {'bound':>7} {'1/j loss':>9} {'sec':>7}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['p']:>3} {r['n']:>2} {r['s']:>2} {r['bases']:>7} "
              f"{str(r['all_match_permutation_oracle']):>6} {r['max_cardinality']:>7} "
              f"{r['bound']:>7} {r['division_loss']:>9} {r['seconds']:>7.2f}")


if __name__ == "__main__":
    main()
