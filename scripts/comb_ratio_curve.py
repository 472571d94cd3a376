#!/usr/bin/env python3
"""Tabulate the atomic-comb norm ratio (exact, by counting) against its
(n!)^(1/2n) limit as the atom count grows; emits plot-ready CSV.

Usage:
    python scripts/comb_ratio_curve.py --n 2 --N 5 10 20 40 80
    python scripts/comb_ratio_curve.py --n 8 --N 10 1000 1000000
"""
import argparse
import math

from momentsq import comb_ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--N", type=int, nargs="+", default=[5, 10, 20, 40])
    args = ap.parse_args()

    limit = math.factorial(args.n) ** (1 / (2 * args.n))
    print("N,ratio,limit,relative_gap")
    for N in args.N:
        r = comb_ratio(args.n, N)
        print(f"{N},{r:.10f},{limit:.10f},{(limit - r) / limit:.6f}")


if __name__ == "__main__":
    main()
