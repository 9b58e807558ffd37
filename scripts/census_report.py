#!/usr/bin/env python3
"""Run the small-complex census and print a per-size breakdown.

Usage:
    python3 scripts/census_report.py [--max-vertices N] [--workers W]
"""

import argparse
import sys
import time

from treeres.census import _census_reports, _tally


def per_size_table(max_vertices: int, reports):
    print(f"{'n':>3} {'complexes':>10} {'quasi-forests':>14} "
          f"{'forests':>8} {'pd<=1':>6} {'violations':>11}")
    for n in range(1, max_vertices + 1):
        total = qf = sf = pd1 = bad = 0
        for rep in reports:
            if rep.n != n:
                continue
            total += 1
            qf += rep.quasi_forest
            sf += rep.simplicial_forest
            pd1 += rep.pd_ideal is not None and rep.pd_ideal <= 1
            bad += len(rep.violations)
        print(f"{n:>3} {total:>10} {qf:>14} {sf:>8} {pd1:>6} {bad:>11}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    t0 = time.perf_counter()
    try:
        reports = _census_reports(args.max_vertices, args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    per_size_table(args.max_vertices, reports)
    result = _tally(args.max_vertices, reports)
    print()
    print("\n".join(result.summary_lines()))
    print(f"\nelapsed: {time.perf_counter() - t0:.1f}s")
    if result.violations:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
