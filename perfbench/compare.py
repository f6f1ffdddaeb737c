#!/usr/bin/env python3
"""Compare saved benchmark results of a base and a head commit.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --head B1.json [...]

The files are written by `run.py --save`.  Results whose workload, mode,
kernel backend or core count differ are not comparable: the script refuses
them with exit code 2.  Otherwise it prints, per metric, both medians and
the base's quartile spread as a share of its median.  For each end-to-end
metric it adds a verdict against the bound in BENCHMARK.json: "worse" when
the head's median is worse by more than the bound, "unresolved" when the
base's own spread is wider than the bound, else "ok".  Exit code 1 means
some metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("workload", "backend", "nproc")


def mismatch(results: list[dict[str, Any]]) -> str | None:
    """Why the results cannot be compared, or None."""
    for key in MUST_MATCH:
        seen = sorted({str(r["facts"][key]) for r in results})
        if len(seen) > 1:
            return f"{key} differs between results: {', '.join(seen)}"
    if len({r["trace"] for r in results}) > 1:
        return "traced and untraced results are mixed"
    return None


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    b, h = statistics.median(base), statistics.median(head)
    worse = h - b if better == "lower" else b - h
    if worse > bound * abs(b):
        return "worse"
    if spread(base) > bound:
        return "unresolved"
    return "ok"


def values(results: list[dict[str, Any]], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in results
            if name in r["result"]["metrics"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--head", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base = [json.loads(p.read_text()) for p in args.base]
    head = [json.loads(p.read_text()) for p in args.head]
    why = mismatch(base + head)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer"] if base[0]["trace"] else bench["end_to_end"]
    any_worse = False
    print(f"{'metric':<34} {'base':>14} {'head':>14} {'spread':>8}  verdict")
    for metric in listed:
        b, h = values(base, metric["name"]), values(head, metric["name"])
        if not b or not h:
            print(f"{metric['name']:<34} {'absent':>14}")
            continue
        call = verdict(b, h, metric["better"], metric["bound"]) if "bound" in metric else ""
        any_worse |= call == "worse"
        print(f"{metric['name']:<34} {statistics.median(b):>14.6g} {statistics.median(h):>14.6g} "
              f"{spread(b):>8.3f}  {call}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
