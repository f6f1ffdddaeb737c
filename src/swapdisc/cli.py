"""Command-line front end: construct, eval, search, verify, graphs.

Exit codes: 0 success / all checks hold, 1 verification failure, 2 invalid
input, 3 I/O failure, 4 size refusal.

Documents are strict JSON.  A defining set is {"t": T, "pairs": [{"odd":
[a, b], "even": [c, d]}, ...]}; a swap set is {"swaps": [[i, i+1], ...]};
unknown fields are rejected.  Certificates carry the input digest, the
worst case, the minimal maximizer, the bound comparisons and the requested
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from random import Random
from typing import Any

from . import __version__
from .adversary import (
    SCAN_DEFAULT_MAX_RANKS,
    STRATEGIES,
    AdversaryResult,
    minimal_maximizer_property,
    pool_size,
    worst_case,
)
from .construct import (
    check_lemma1,
    construct_for_z,
    lower_bound,
    upper_bound,
    z_for_t,
)
from .core import (
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    discrepancy,
    validate_defining_set,
)
from .graphs import (
    build_pot,
    build_swp,
    dot_texts,
    export_graphs,
    verify_lemma2,
    verify_prop1,
    verify_prop2,
)
from .optsearch import find_optimal, random_balanced

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_SIZE = 4

ALL_CHECKS = ("balance", "eq8", "lemma1", "lemma2", "eq10", "prop1", "prop2", "bounds")
DEFAULT_CHECKS = ("balance", "eq8", "lemma2", "eq10", "prop1", "prop2", "bounds")


# ---------------------------------------------------------------- documents

def defining_set_to_doc(ds: DefiningSet) -> dict[str, Any]:
    return {
        "t": ds.t,
        "pairs": [
            {"odd": sorted(p.odd), "even": sorted(p.even)} for p in ds.pairs
        ],
    }


def doc_to_defining_set(doc: Any) -> DefiningSet:
    """Strict parse: exact fields, integer ranks; shape errors raise
    InvalidInput but partition/balance are left to the validator."""
    if not isinstance(doc, dict) or set(doc) != {"t", "pairs"}:
        raise InvalidInput("defining-set document must have exactly the fields 't' and 'pairs'")
    t, pairs = doc["t"], doc["pairs"]
    if not isinstance(t, int) or isinstance(t, bool):
        raise InvalidInput("'t' must be an integer")
    if not isinstance(pairs, list):
        raise InvalidInput("'pairs' must be a list")
    parsed = []
    for k, entry in enumerate(pairs, start=1):
        if not isinstance(entry, dict) or set(entry) != {"odd", "even"}:
            raise InvalidInput(f"pair {k} must have exactly the fields 'odd' and 'even'")
        for side in ("odd", "even"):
            vals = entry[side]
            if (
                not isinstance(vals, list)
                or len(vals) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in vals)
            ):
                raise InvalidInput(f"pair {k} field '{side}' must be a list of two integers")
        parsed.append((entry["odd"], entry["even"]))
    return defining_set(t, parsed)


def swaps_to_doc(swaps: SwapSet) -> dict[str, Any]:
    return {"swaps": [[i, j] for i, j in swaps]}


def doc_to_swaps(doc: Any) -> SwapSet:
    if not isinstance(doc, dict) or set(doc) != {"swaps"}:
        raise InvalidInput("swap document must have exactly the field 'swaps'")
    swaps = doc["swaps"]
    if not isinstance(swaps, list):
        raise InvalidInput("'swaps' must be a list")
    pairs = []
    for entry in swaps:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise InvalidInput(f"swap entry {entry!r} must be a list of two integers")
        pairs.append((entry[0], entry[1]))
    return SwapSet(frozenset(pairs))


def _digest(doc: dict[str, Any]) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def certificate(
    ds: DefiningSet,
    res: AdversaryResult | None,
    checks: dict[str, dict[str, Any]],
) -> dict[str, Any]:
    doc = defining_set_to_doc(ds)
    z = z_for_t(ds.t)
    return {
        "input_digest": _digest(doc),
        "worst_case": res.worst_case if res else None,
        "minimal_maximizer": [[i, j] for i, j in res.minimal_maximizer] if res else None,
        "bounds": {
            "lower": _fraction_str(lower_bound(ds.t)),
            "upper": upper_bound(z) if z is not None else None,
        },
        "checks": checks,
        "adversary": {
            "engine": res.engine,
            "maximizer_count": res.maximizer_count,
            "enumerated": res.enumerated,
        }
        if res
        else None,
        "tool_version": __version__,
    }


# ------------------------------------------------------------------- helpers

def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_sets(path: str) -> DefiningSet:
    return doc_to_defining_set(_load_json(path))


# ---------------------------------------------------------------- commands

def cmd_construct(args: argparse.Namespace) -> int:
    ds = construct_for_z(args.z)
    text = json.dumps(defining_set_to_doc(ds), indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if (args.swaps is None) == (not args.worst_case):
        raise InvalidInput("eval needs exactly one of --swaps or --worst-case")
    ds = _load_sets(args.sets)
    report = validate_defining_set(ds)
    if args.swaps is not None:
        if not report.ok:
            raise InvalidInput("invalid defining set: " + "; ".join(report.violations))
        swaps = doc_to_swaps(_load_json(args.swaps))
        print(discrepancy(ds, swaps))
        return EXIT_OK
    res = worst_case(
        ds,
        strategy=args.strategy,
        workers=args.workers,
        force_exhaustive=args.force_exhaustive,
    )
    text = json.dumps(certificate(ds, res, checks={}), indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    if args.t < 1:
        raise InvalidInput(f"--t must be >= 1, got {args.t}")
    result = find_optimal(args.t, time_budget=args.time_budget, workers=args.workers)
    doc = {
        "t": result.t,
        "d_star": result.d_star,
        "optima": [defining_set_to_doc(ds) for ds in result.optima],
        "candidates_examined": result.candidates_examined,
        "wall_time": result.wall_time,
        "certified": result.certified,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _run_checks(ds: DefiningSet, args: argparse.Namespace) -> tuple[dict[str, dict[str, Any]], AdversaryResult | None]:
    requested = list(DEFAULT_CHECKS) if not args.checks else args.checks.split(",")
    for name in requested:
        if name not in ALL_CHECKS:
            raise InvalidInput(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
    if "lemma1" in requested and args.z is None:
        raise InvalidInput("the lemma1 check needs --z (it compares construction levels)")

    checks: dict[str, dict[str, Any]] = {}
    report = validate_defining_set(ds)
    if "balance" in requested:
        checks["balance"] = {"holds": report.ok, "details": {"violations": list(report.violations)}}
    res: AdversaryResult | None = None
    needs_adversary = [c for c in requested if c in ("eq8", "lemma2", "eq10", "prop1", "prop2", "bounds")]
    if needs_adversary:
        if not report.ok:
            for name in needs_adversary:
                checks[name] = {"holds": None, "details": "skipped: defining set invalid"}
        else:
            res = worst_case(ds, strategy=args.strategy, workers=args.workers,
                             force_exhaustive=args.force_exhaustive)
            i_star = res.minimal_maximizer
            if "eq8" in requested:
                ok = minimal_maximizer_property(ds, res)
                checks["eq8"] = {
                    "holds": ok,
                    "details": {"worst_case": res.worst_case, "maximizer_size": len(i_star)},
                }
            if "lemma2" in requested or "eq10" in requested:
                rep = verify_lemma2(ds, i_star)
                if "lemma2" in requested:
                    checks["lemma2"] = {
                        "holds": all(c.holds for c in rep.components) and rep.slack_holds,
                        "details": {
                            "components": [
                                {
                                    "nodes": sorted(c.nodes),
                                    "in": c.in_arcs,
                                    "out": c.out_arcs,
                                    "bound": c.bound,
                                    "holds": c.holds,
                                }
                                for c in rep.components
                            ],
                            "global_slack": rep.global_slack,
                        },
                    }
                if "eq10" in requested:
                    checks["eq10"] = {
                        "holds": rep.eq10_holds,
                        "details": {"lhs": rep.eq10_lhs, "rhs": _fraction_str(rep.eq10_rhs)},
                    }
            if "prop1" in requested:
                comp = verify_prop1(ds, i_star, subsets="components")
                single = verify_prop1(ds, i_star, subsets="singletons")
                checks["prop1"] = {
                    "holds": comp.all_hold and single.all_hold,
                    "details": {
                        "components": [
                            {"nodes": sorted(e.nodes), "in": e.in_arcs, "d": e.d_edges}
                            for e in comp.entries
                        ],
                        "singletons": [
                            {"nodes": sorted(e.nodes), "in": e.in_arcs, "d": e.d_edges}
                            for e in single.entries
                        ],
                    },
                }
            if "prop2" in requested:
                rep2 = verify_prop2(ds, i_star)
                checks["prop2"] = {
                    "holds": rep2.all_hold,
                    "details": {
                        "entries": [
                            {
                                "node": e.node,
                                "kind": e.kind,
                                "d": e.d_swp,
                                "d_out": e.d_out,
                                "expected": e.expected,
                                "holds": e.holds,
                            }
                            for e in rep2.entries
                        ],
                        "out_of_regime": list(rep2.out_of_regime),
                    },
                }
            if "bounds" in requested:
                lb = lower_bound(ds.t)
                z = z_for_t(ds.t)
                ub = upper_bound(z) if z is not None and args.z is not None else None
                ok = res.worst_case >= lb and (ub is None or res.worst_case <= ub)
                checks["bounds"] = {
                    "holds": bool(ok),
                    "details": {
                        "worst_case": res.worst_case,
                        "lower": _fraction_str(lb),
                        "upper": ub,
                    },
                }
    if "lemma1" in requested:
        rep1 = check_lemma1(args.z, workers=args.workers)
        checks["lemma1"] = {
            "holds": rep1.holds,
            "details": {"d_z": rep1.d_z, "d_z_plus_1": rep1.d_z_plus_1, "bound": rep1.bound},
        }
    if args.sample:
        rng = Random(args.seed)
        failures = 0
        for _ in range(args.sample):
            sample_ds = random_balanced(ds.t, rng)
            sample_res = worst_case(sample_ds, strategy="branch_and_bound",
                                    force_exhaustive=args.force_exhaustive)
            ok = minimal_maximizer_property(sample_ds, sample_res)
            rep = verify_lemma2(sample_ds, sample_res.minimal_maximizer)
            p1 = verify_prop1(sample_ds, sample_res.minimal_maximizer, subsets="components")
            p1s = verify_prop1(sample_ds, sample_res.minimal_maximizer, subsets="singletons")
            if not (ok and rep.all_hold and p1.all_hold and p1s.all_hold):
                failures += 1
        checks["sampled_population"] = {
            "holds": failures == 0,
            "details": {"sampled": args.sample, "seed": args.seed, "failures": failures},
        }
    return checks, res


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.sets is None) == (args.z is None):
        raise InvalidInput("verify needs exactly one of --sets or --z")
    ds = _load_sets(args.sets) if args.sets else construct_for_z(args.z)
    checks, res = _run_checks(ds, args)
    text = json.dumps(certificate(ds, res, checks), indent=2) + "\n"
    _emit(text, args.out)
    all_hold = all(entry["holds"] is True for entry in checks.values())
    return EXIT_OK if all_hold else EXIT_CHECK_FAILED


def cmd_graphs(args: argparse.Namespace) -> int:
    if (args.swaps is None) == (not args.minimal_maximizer):
        raise InvalidInput("graphs needs exactly one of --swaps or --minimal-maximizer")
    ds = _load_sets(args.sets)
    report = validate_defining_set(ds)
    if not report.ok:
        raise InvalidInput("invalid defining set: " + "; ".join(report.violations))
    if args.swaps is not None:
        swaps = doc_to_swaps(_load_json(args.swaps))
    else:
        swaps = worst_case(
            ds, strategy=args.strategy, workers=args.workers,
            force_exhaustive=args.force_exhaustive,
        ).minimal_maximizer
    swp = build_swp(ds, swaps)
    pot = build_pot(ds, swaps, membership=args.membership)
    if args.format == "dot":
        swp_text, pot_text = dot_texts(swp, pot)
        _write_text(args.out + ".swp.dot", swp_text)
        _write_text(args.out + ".pot.dot", pot_text)
        print(f"wrote {args.out}.swp.dot and {args.out}.pot.dot")
    else:
        _write_text(args.out + ".graphs.json", export_graphs(swp, pot, args.format))
        print(f"wrote {args.out}.graphs.json")
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapdisc",
        description="Balanced defining sets under adjacent swaps: construction, "
        "exact worst-case evaluation, search, and certification.",
    )
    parser.add_argument("--version", action="version", version=f"swapdisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker count for the scan strategies (>= 1)")
        p.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="worst-case engine (default: frontier, or exhaustive "
                       f"for 4t <= {SCAN_DEFAULT_MAX_RANKS})")
        p.add_argument("--force-exhaustive", action="store_true",
                       help="override the scan strategies' size refusal")

    p = sub.add_parser("construct", help="emit the level-z recursive defining set")
    p.add_argument("--z", type=int, required=True, help="construction level, z >= 2")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("eval", help="discrepancy under given swaps, or the exact worst case")
    p.add_argument("--sets", required=True, help="defining-set JSON document")
    p.add_argument("--swaps", help="swap-set JSON document")
    p.add_argument("--worst-case", action="store_true", dest="worst_case",
                   help="scan all swap sets and emit a certificate")
    p.add_argument("--out", help="output path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="exhaustive search for optimal defining sets")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before returning a partial, uncertified result")
    p.add_argument("--out", help="output path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run lemma/proposition checks, emit a certificate")
    p.add_argument("--sets", help="defining-set JSON document")
    p.add_argument("--z", type=int, help="verify the level-z construction instead")
    p.add_argument("--checks", help=f"comma list from: {','.join(ALL_CHECKS)}")
    p.add_argument("--sample", type=int, default=0,
                   help="additionally verify N random balanced sets of the same t")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample only")
    p.add_argument("--out", help="certificate path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graphs", help="export the swap/potential graphs (DOT or JSON)")
    p.add_argument("--sets", required=True)
    p.add_argument("--swaps", help="swap-set JSON document")
    p.add_argument("--minimal-maximizer", action="store_true",
                   help="use the adversary's minimal worst-case maximizer")
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--membership", choices=("original", "primed"), default="original")
    common(p)
    p.set_defaults(func=cmd_graphs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "workers"):
            pool_size(args.workers)  # rejects --workers below 1 for every command
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SizeRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
