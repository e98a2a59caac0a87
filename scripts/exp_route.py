#!/usr/bin/env python3
"""Print how often numpy's exp and log differ from libm's, and what one batched call costs.

The entropic kind's batched rows must give the bits of the scalar route,
which takes ``math.exp`` and ``math.log`` (libm's). For each argument
range this script draws ``--count`` uniform arguments (seed 1) and counts
those where numpy's complex route (``np.exp(x + 0j).real``,
``np.log(x + 0j).real``) and numpy's real ``np.exp`` / ``np.log`` give
other bits than the math module (NaN matching NaN). The exp ranges are
the entropic shifts, [-745.2, 0], and a symmetric one; the log ranges
are sums of an entropic row's terms.

It then times one batch of 2,100 arguments in [-745.2, 0] through
the complex route and through ``risk_measures._libm(math.exp, ...)``, one
Python call per argument, as the best of ``--repeats`` runs of
``--number`` calls, in microseconds per call, and the one-time platform
check of ``risk_measures._complex_exp_is_libm``. The library is imported
from ``src/`` of this checkout, or from ``--src``.

Example:
    python scripts/exp_route.py --count 1000000
"""

import argparse
import math
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZE, SEED = 2100, 1  # the timed batch's arguments, and the seed of every draw
RANGES = (("exp", -745.2, 0.0), ("exp", -700.0, 700.0), ("log", 1e-6, 0.5), ("log", 0.5, 1.0), ("log", 1.0, 2.0))


def differ(got: np.ndarray, want: np.ndarray) -> int:
    """The entries whose bits differ, a NaN matching any NaN."""
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    return int(np.count_nonzero(~same))


def best_us(func, number: int, repeats: int) -> float:
    return min(timeit.repeat(func, number=number, repeat=repeats)) / number * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=10**6, help="arguments drawn per range")
    ap.add_argument("--number", type=int, default=200, help="calls per timed run")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs; the best is printed")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory of the library to time")
    args = ap.parse_args()
    if min(args.count, args.number, args.repeats) < 1:
        ap.error("--count, --number and --repeats must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from riskmdp import risk_measures as rm

    rng = np.random.default_rng(SEED)
    print(f"numpy {np.__version__}")
    print(f"{'fn':<3} {'range':>20} {'args':>9} {'complex':>9} {'real':>9}")
    with np.errstate(all="ignore"):
        for name, lo, hi in RANGES:
            x = rng.uniform(lo, hi, args.count)
            want = rm._libm(getattr(math, name), x)
            numpy_fn = getattr(np, name)
            complex_differs = differ(numpy_fn(x.astype(np.complex128)).real, want)
            span = f"[{lo:g}, {hi:g})"
            print(f"{name:<3} {span:>20} {args.count:>9} {complex_differs:>9} {differ(numpy_fn(x), want):>9}")
    x = rng.uniform(-745.2, 0.0, SIZE)
    with np.errstate(all="ignore"):
        batched = best_us(lambda: np.exp(x.astype(np.complex128)).real, args.number, args.repeats)
    per_element = best_us(lambda: rm._libm(math.exp, x), args.number, args.repeats)
    start = time.perf_counter()
    faithful = rm._complex_exp_is_libm.__wrapped__()
    probe_ms = (time.perf_counter() - start) * 1e3
    print(f"us per {SIZE}-argument exp call: complex {batched:.1f}, per element {per_element:.1f}")
    print(f"platform check: complex exp is libm's {faithful} ({probe_ms:.2f} ms)")


if __name__ == "__main__":
    main()
