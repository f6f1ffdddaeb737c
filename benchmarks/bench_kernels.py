#!/usr/bin/env python3
"""Benchmark the compiled scan kernel against the pure-Python fallback.

Runs the full worst-case matching scan on identical inputs through both
kernels and reports wall times and the speedup.  The default workload keeps
the pure kernel comfortable (t = 4 and t = 6); --t9 adds the t = 9
construction (F(37) = 24,157,817 matchings), which takes the pure kernel a
minute or two.

Usage: python benchmarks/bench_kernels.py [--t9] [--repeat N]
"""

import argparse
import time
from random import Random

from swapdisc._kernels import pure
from swapdisc.adversary import _arrays
from swapdisc.construct import base_case, construct_for_z
from swapdisc.optsearch import random_balanced

try:
    from swapdisc._kernels import _fast
except ImportError:
    _fast = None


def full_scan(kernel, ds, prune=False):
    n, pair_of, side_of, diff = _arrays(ds)
    return kernel.scan_chunk(n, pair_of, side_of, diff, (), 1, prune, -1, -1)


def bench(label, ds, repeat, prune=False):
    rows = []
    for name, kernel in (("pure", pure), ("compiled", _fast)):
        if kernel is None:
            rows.append((name, None, None))
            continue
        best = None
        result = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = full_scan(kernel, ds, prune=prune)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        rows.append((name, best, result))
    print(f"\n{label}  (matchings: {rows[0][2][4]:,}, worst case: {rows[0][2][0]})")
    base = None
    for name, dt, result in rows:
        if dt is None:
            print(f"  {name:>9}: not built")
            continue
        if base is None:
            base = dt
            print(f"  {name:>9}: {dt * 1000:10.1f} ms")
        else:
            print(f"  {name:>9}: {dt * 1000:10.1f} ms   ({base / dt:5.1f}x faster)")
    if rows[1][2] is not None and rows[0][2] != rows[1][2]:
        raise SystemExit("KERNEL MISMATCH: pure and compiled results differ")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t9", action="store_true", help="include the t=9 scan")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if _fast is None:
        print("note: compiled kernel not built; showing pure-kernel times only")

    bench("t=4 base case, exhaustive scan", base_case(), args.repeat)
    bench("t=6 random instance, exhaustive scan", random_balanced(6, Random(1)), args.repeat)
    bench(
        "t=6 random instance, branch-and-bound scan",
        random_balanced(6, Random(1)),
        args.repeat,
        prune=True,
    )
    if args.t9:
        bench("t=9 construction, exhaustive scan", construct_for_z(3), 1)


if __name__ == "__main__":
    main()
