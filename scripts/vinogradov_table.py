#!/usr/bin/env python3
"""Tabulate the exact solution count J(N) against its leading term n! N^n.

Usage:
    python scripts/vinogradov_table.py --n 3 --N 10 20 50 100 200
"""
import argparse

from momentsq import asymptotic_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--N", type=int, nargs="+", default=[10, 20, 50, 100, 200])
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args()

    rows = asymptotic_report(args.n, args.N)
    if args.csv:
        print("N,count,leading,residual,residual_over_N_pow_n_minus_1,method")
        for r in rows:
            print(f"{r.N},{r.count},{r.leading},{r.residual},"
                  f"{float(r.residual_ratio):.6f},{r.method.value}")
        return
    print(f"{'N':>8} {'J(N)':>16} {'n!N^n':>16} {'residual':>12} {'res/N^(n-1)':>12}  method")
    for r in rows:
        print(f"{r.N:>8} {r.count:>16} {r.leading:>16} {r.residual:>12} "
              f"{float(r.residual_ratio):>12.4f}  {r.method.value}")


if __name__ == "__main__":
    main()
