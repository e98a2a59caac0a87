#!/usr/bin/env python3
"""Print where the certified row sum starts to beat one ``math.fsum`` per row.

``risk_measures._fsum_rows`` sums a table of three or more columns by
``_fsum_each`` (one ``math.fsum`` per row) below ``CERTIFIED_MIN_CELLS``
entries and by its certified route from there on: ``_certified_sums``,
then fsum for the rows it leaves undecided. Both give the same bits.
This script times both routes per column count on stage-value-like
tables: an expectation's terms, uniform atoms in [-10, 10) times
Dirichlet probabilities, with a signed zero in every seventh row. Each
time is the best of ``--repeats`` runs of ``--number`` calls, in
microseconds per call, for a ladder of table sizes in entries (rows
times columns).

For each column count the ``break-even`` line names the least entry
count of the ladder from which the certified route was faster at every
larger size, against the gate in use. The library is imported from
``src/`` of this checkout, or from ``--src`` to time another one.

Example:
    python scripts/sum_gate.py --columns 3 4 8 10 16 20
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = (150, 200, 300, 400, 500, 600, 800, 1000, 1500, 2400)


def table(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    terms = rng.uniform(-10.0, 10.0, (n, m)) * rng.dirichlet(np.ones(m), n)
    terms[::7, 1] = -0.0
    return terms


def best_us(func, terms: np.ndarray, number: int, repeats: int) -> float:
    return min(timeit.repeat(lambda: func(terms), number=number, repeat=repeats)) / number * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--columns", type=int, nargs="+", default=[3, 4, 8, 10, 16, 20])
    ap.add_argument("--entries", type=int, nargs="+", default=list(ENTRIES), help="table sizes, rows times columns")
    ap.add_argument("--number", type=int, default=200, help="calls per timed run")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs; the best is printed")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory of the library to time")
    args = ap.parse_args()
    if min(args.columns) < 3 or min(args.entries) < 1 or args.number < 1 or args.repeats < 1:
        ap.error("--columns must be at least 3; --entries, --number and --repeats at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from riskmdp import risk_measures as rm

    gate = rm.CERTIFIED_MIN_CELLS
    print(f"CERTIFIED_MIN_CELLS {gate}")
    print(f"{'columns':>7} {'rows':>5} {'entries':>7} {'fsum_each':>10} {'certified':>10} {'ratio':>6}")
    rng = np.random.default_rng(1)
    for m in args.columns:
        faster = []
        for entries in sorted(args.entries):
            n = -(-entries // m)
            terms = table(rng, n, m)
            each = best_us(rm._fsum_each, terms, args.number, args.repeats)
            rm.CERTIFIED_MIN_CELLS = 0  # every table takes the certified route
            try:
                certified = best_us(rm._fsum_rows, terms, args.number, args.repeats)
            finally:
                rm.CERTIFIED_MIN_CELLS = gate
            faster.append((n * m, certified < each))
            print(f"{m:>7} {n:>5} {n * m:>7} {each:>10.1f} {certified:>10.1f} {certified / each:>6.2f}")
        losses = [size for size, won in faster if not won]
        wins = [size for size, won in faster if won and (not losses or size > max(losses))]
        even = f"from {wins[0]} entries" if wins else "not within the ladder"
        print(f"{m:>7} break-even {even} (gate {gate})")


if __name__ == "__main__":
    main()
