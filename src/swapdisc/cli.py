"""Command-line front end: construct, eval, search, verify, graphs.

Exit codes: 0 success / all checks hold, 1 verification failure, 2 invalid
input, 3 I/O failure (or a forked search or verify --sample worker that
died), 4 size refusal.

Documents are strict JSON.  A defining set is {"t": T, "pairs": [{"odd":
[a, b], "even": [c, d]}, ...]}; a swap set is {"swaps": [[i, i+1], ...]};
unknown fields are rejected.  This module alone reads outside documents
(_load_json, doc_to_defining_set, doc_to_swaps).  Certificates carry the
input digest, the worst case, the minimal maximizer, the bound comparisons
and the requested checks.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from typing import TYPE_CHECKING, Any, Callable, Collection

from . import __version__
# adversary, graphs and optsearch are imported by the commands that run
# them: each process compiles what it imports, construct and --version need
# none of them, and eval needs the engine only for --worst-case
from .construct import (
    construct_for_z,
    lower_bound,
    lower_bound_str,
    recursive_step,
    require_level,
    upper_bound,
    z_for_t,
)
from .core import (
    EXHAUSTIVE_MAX_RANKS,
    SCAN_DEFAULT_MAX_RANKS,
    STRATEGIES,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    discrepancy,
    is_int,
    require_int,
    require_valid,
    validate_defining_set,
)

if TYPE_CHECKING:
    from .adversary import AdversaryResult

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_SIZE = 4

ALL_CHECKS = ("balance", "eq8", "lemma1", "lemma2", "eq10", "prop1", "prop2", "bounds")
DEFAULT_CHECKS = ("balance", "eq8", "lemma2", "eq10", "prop1", "prop2", "bounds")
# distinct --sample sets whose verdict is kept; past it a new set is checked
# once in each block that draws it (t = 4 has only 1,990 canonical balanced sets)
SAMPLE_MEMO_MAX = 1 << 14
# --sample draws per block: the parent holds at most this many sets at once
SAMPLE_BLOCK = 1 << 11
# fewest checks per --sample share: a fork, the child's first writes to
# shared pages and the reap cost about as much as this many checks of t = 4
# sets (on 2 cores, medians of 15: 16 checks take 1.7 ms in one process and
# in two, 32 checks 3.3 ms in one and 2.5 ms in two)
SAMPLE_MIN_SHARE = 16


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
    t, pairs = require_fields(doc, "defining-set document", "t", "pairs")
    if not is_int(t):
        raise InvalidInput("'t' must be an integer")
    if not isinstance(pairs, list):
        raise InvalidInput("'pairs' must be a list")
    parsed = []
    for k, entry in enumerate(pairs, start=1):
        sides = require_fields(entry, f"pair {k}", "odd", "even")
        for side, vals in zip(("odd", "even"), sides):
            if not isinstance(vals, list) or len(vals) != 2 or not all(map(is_int, vals)):
                raise InvalidInput(f"pair {k} field '{side}' must be a list of two integers")
        parsed.append(sides)
    return defining_set(t, parsed)


def swaps_to_doc(swaps: SwapSet) -> dict[str, Any]:
    """The one writer of the swap form [[i, i+1], ...]."""
    return {"swaps": [[i, i + 1] for i in swaps.positions]}


def doc_to_swaps(doc: Any) -> SwapSet:
    (swaps,) = require_fields(doc, "swap document", "swaps")
    if not isinstance(swaps, list):
        raise InvalidInput("'swaps' must be a list")
    positions: set[int] = set()
    for entry in swaps:
        if not isinstance(entry, list) or len(entry) != 2 or not all(map(is_int, entry)):
            raise InvalidInput(f"swap entry {entry!r} must be a list of two integers")
        i = entry[0]
        if entry[1] != i + 1:
            raise InvalidInput(f"swap entry {entry!r} is not an adjacent pair [i, i+1]")
        if i in positions:
            raise InvalidInput(f"swap entry {entry!r} appears more than once")
        positions.add(i)
    return SwapSet(positions)


def _digest(doc: dict[str, Any]) -> str:
    import hashlib

    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


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
        "minimal_maximizer": swaps_to_doc(res.minimal_maximizer)["swaps"] if res else None,
        "bounds": {
            "lower": lower_bound_str(ds.t),
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


def _certificate_text(
    ds: DefiningSet,
    res: AdversaryResult | None,
    checks: dict[str, dict[str, Any]],
) -> str:
    """certificate(ds, res, checks) as the commands write it: indented JSON
    and a newline.  A maximizer count with more decimal digits than this
    interpreter writes out (sys.get_int_max_str_digits, 4,300 by default;
    0 is no limit) is refused with SizeRefused, naming its bit length."""
    # Python before 3.10.7 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if res and limit and res.maximizer_count >= 10**limit:
        raise SizeRefused(
            f"certificate refused: its maximizer count has "
            f"{res.maximizer_count.bit_length():,} bits, more than the {limit:,} "
            "decimal digits this Python writes out; PYTHONINTMAXSTRDIGITS=0 "
            "lifts the limit"
        )
    return json.dumps(certificate(ds, res, checks), indent=2) + "\n"


# ------------------------------------------------------------------- helpers

def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json's object_pairs_hook for _load_json: a repeated key is a ValueError."""
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def require_fields(doc: object, what: str, *names: str) -> list[Any]:
    """The values of `names` in doc if it is a JSON object with exactly those
    fields; else InvalidInput: "<what> must have exactly the fields 'a' and 'b'"."""
    if not isinstance(doc, dict) or doc.keys() != set(names):
        *rest, last = map(repr, names)
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise InvalidInput(f"{what} must have exactly the field{'s' * bool(rest)} {listed}")
    return [doc[name] for name in names]


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a syntax error, bytes that are no UTF-8, a duplicate key, or nesting
        # deeper than the parser's recursion limit
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8: the one writer of every output file.

    An existing file is rewritten in place (same inode, mode and symlink
    target, as with open(path, "w")), then cut to the new length; only a
    regular file is cut, so /dev/null and pipes still work.  It is never
    truncated to zero first: on ext4 (auto_da_alloc) truncating to zero a
    file that was itself just rewritten that way stalls 40-70 ms on
    writeback, which each re-run into the same output would pay."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
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
    if args.swaps is not None:
        require_valid(ds)
        swaps = doc_to_swaps(_load_json(args.swaps))
        _emit(f"{discrepancy(ds, swaps)}\n", args.out)
        return EXIT_OK
    from .adversary import worst_case

    res = worst_case(ds, strategy=args.strategy)
    _emit(_certificate_text(ds, res, checks={}), args.out)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    from .optsearch import find_optimal  # it validates --t and --time-budget

    result = find_optimal(args.t, time_budget=args.time_budget)
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


def _adversary_checks(
    ds: DefiningSet, res: AdversaryResult, wanted: Collection[str], z: int | None
) -> dict[str, dict[str, Any]]:
    """The entries of the `wanted` ones of eq8, lemma2, eq10, prop1, prop2 and
    bounds for a valid ds and its worst case res (upper bound only with z)."""
    from .adversary import minimal_maximizer_property
    from .graphs import prop1_entry, verify_lemma2, verify_prop2

    entries: dict[str, dict[str, Any]] = {}
    i_star = res.minimal_maximizer
    if "eq8" in wanted:
        entries["eq8"] = {
            "holds": minimal_maximizer_property(ds, res),
            "details": {"worst_case": res.worst_case, "maximizer_size": len(i_star)},
        }
    if "lemma2" in wanted or "eq10" in wanted:
        entries.update((name, entry) for name, entry in verify_lemma2(ds, i_star).items()
                       if name in wanted)
    if "prop1" in wanted:
        entries["prop1"] = prop1_entry(ds, i_star)
    if "prop2" in wanted:
        entries["prop2"] = verify_prop2(ds, i_star)
    if "bounds" in wanted:
        ub = upper_bound(z) if z is not None else None
        entries["bounds"] = {
            "holds": res.worst_case >= lower_bound(ds.t) and (ub is None or res.worst_case <= ub),
            "details": {"worst_case": res.worst_case, "lower": lower_bound_str(ds.t), "upper": ub},
        }
    return entries


def cmd_verify(args: argparse.Namespace) -> int:
    from .adversary import worst_case

    if (args.sets is None) == (args.z is None):
        raise InvalidInput("verify needs exactly one of --sets or --z")
    require_int(args.sample, "--sample", 0)
    # an empty --checks names the check '' and is refused like --checks ,
    requested = list(DEFAULT_CHECKS) if args.checks is None else args.checks.split(",")
    for name in requested:
        if name not in ALL_CHECKS:
            raise InvalidInput(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
    if "lemma1" in requested:  # refuse an oversize z + 1 before level z is built
        if args.z is None:
            raise InvalidInput("the lemma1 check needs --z (it compares construction levels)")
        require_level(args.z)  # first, so that an error names z
        require_level(args.z + 1)
    ds = _load_sets(args.sets) if args.sets else construct_for_z(args.z)
    if args.sample and ds.n_ranks > EXHAUSTIVE_MAX_RANKS:  # samples have ds's t: refuse now
        raise SizeRefused(f"branch_and_bound scan refused for 4t = {ds.n_ranks} > "
                          f"{EXHAUSTIVE_MAX_RANKS}: --sample scans every set with branch_and_bound")

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
            res = worst_case(ds, strategy=args.strategy)
            checks.update(_adversary_checks(ds, res, requested, args.z))
    if "lemma1" in requested:  # d_{z+1} <= 2 d_z + 2; every engine gives the same d_z
        d_z = (res or worst_case(ds)).worst_case
        d_z1 = worst_case(recursive_step(ds, args.z)).worst_case
        checks["lemma1"] = {
            "holds": d_z1 <= 2 * d_z + 2,
            "details": {"d_z": d_z, "d_z_plus_1": d_z1, "bound": 2 * d_z + 2},
        }
    if args.sample:
        def holds(sample_ds: DefiningSet) -> bool:
            sample_res = worst_case(sample_ds, strategy="branch_and_bound")
            entries = _adversary_checks(
                sample_ds, sample_res, ("eq8", "lemma2", "eq10", "prop1"), None
            )
            return all(entry["holds"] for entry in entries.values())

        failures = _sample_failures(ds.t, args.sample, args.seed, holds)
        checks["sampled_population"] = {
            "holds": failures == 0,
            "details": {"sampled": args.sample, "seed": args.seed, "failures": failures},
        }
    _emit(_certificate_text(ds, res, checks), args.out)
    all_hold = all(entry["holds"] is True for entry in checks.values())
    return EXIT_OK if all_hold else EXIT_CHECK_FAILED


# ------------------------------------------------------------ --sample shares

def _sample_failures(t: int, sample: int, seed: int, holds: Callable[[DefiningSet], bool]) -> int:
    """Failing draws among `sample` random balanced sets of t pairs.

    The sets are drawn in order from one Random(seed), SAMPLE_BLOCK at a
    time.  A draw whose set has a kept verdict counts on it; every other set
    of the block is checked once, and its verdict counts for each of its
    draws in the block.  The verdicts of the first SAMPLE_MEMO_MAX distinct
    sets are kept.  A block's checks run in one share per usable core
    (_fork), each of at least SAMPLE_MIN_SHARE."""
    from random import Random

    from . import _fork
    from .optsearch import random_balanced

    rng = Random(seed)
    # random_balanced returns canonical pairs, so their rank bitmasks in
    # order identify the set
    kept: dict[tuple[int, ...], bool] = {}
    failures = drawn = 0
    while drawn < sample:
        block = min(SAMPLE_BLOCK, sample - drawn)
        drawn += block
        jobs: dict[tuple[int, ...], list[Any]] = {}  # unkept key -> [set, its draws]
        for _ in range(block):
            sample_ds = random_balanced(t, rng)
            key = tuple(pair.partition_bits for pair in sample_ds.pairs)
            if key in kept:
                failures += not kept[key]
            else:
                jobs.setdefault(key, [sample_ds, 0])[1] += 1
        verdicts = b"".join(_fork.fork_map(lambda share: bytes(holds(ds) for ds, _ in share),
                                           _fork.split(list(jobs.values()), SAMPLE_MIN_SHARE),
                                           "--sample worker"))
        for (key, (_, draws)), ok in zip(jobs.items(), verdicts):
            failures += draws * (not ok)
            if len(kept) < SAMPLE_MEMO_MAX:
                kept[key] = bool(ok)
    return failures


def cmd_graphs(args: argparse.Namespace) -> int:
    if (args.swaps is None) == (not args.minimal_maximizer):
        raise InvalidInput("graphs needs exactly one of --swaps or --minimal-maximizer")
    ds = _load_sets(args.sets)
    require_valid(ds)
    if args.swaps is not None:
        swaps = doc_to_swaps(_load_json(args.swaps))
    else:
        from .adversary import worst_case

        swaps = worst_case(ds, strategy=args.strategy).minimal_maximizer
    from .graphs import build_pot, build_swp, dot_texts, export_graphs

    swp = build_swp(ds, swaps)
    pot = build_pot(ds, swaps, membership=args.membership)
    if args.format == "dot":
        swp_text, pot_text = dot_texts(swp, pot)
        _write_text(args.out + ".swp.dot", swp_text)
        _write_text(args.out + ".pot.dot", pot_text)
        print(f"wrote {args.out}.swp.dot and {args.out}.pot.dot")
    else:
        _write_text(args.out + ".graphs.json", export_graphs(swp, pot))
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

    def common(p: argparse.ArgumentParser, engine: bool = True) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="must be >= 1; no effect, so the output is the same "
                       "for every value: search (from t = 5) and verify --sample "
                       "split their work among forked processes, one per usable "
                       "core, and every other computation runs in one process")
        if not engine:
            return
        p.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="worst-case engine of the given or constructed set "
                       "(default: frontier, or exhaustive for 4t <= "
                       f"{SCAN_DEFAULT_MAX_RANKS}); exhaustive and branch_and_bound "
                       f"are refused (exit 4) above 4t = {EXHAUSTIVE_MAX_RANKS}, and "
                       "the sets of verify --sample are always scanned with "
                       "branch_and_bound")

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

    p = sub.add_parser(
        "search", help="exhaustive search for optimal defining sets",
        description="Scan every canonical balanced defining set of t pairs and "
        "list every one of least worst case.  The sets of the first top-level "
        "branch (one choice of the pair holding rank 1) are scanned first, and "
        "the other branches are then split into contiguous runs among forked "
        "processes, one per usable core, from t = 5 on more than one; the "
        "output, apart from wall_time, is the same on every core count.")
    p.add_argument("--t", type=int, required=True,
                   help=f"pair count, 1 to {EXHAUSTIVE_MAX_RANKS // 4}; a larger t, "
                   "and t >= 8 without --time-budget, is refused (exit 4) before "
                   "any work")
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds (finite, >= 0; else exit 2) before returning a partial, "
                   "uncertified result; checked before each candidate and before each "
                   "proof of a kept tie, and the ties not yet proven when it runs out "
                   "are left out of optima")
    p.add_argument("--out", help="output path (default: stdout)")
    common(p, engine=False)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run lemma/proposition checks, emit a certificate")
    p.add_argument("--sets", help="defining-set JSON document")
    p.add_argument("--z", type=int, help="verify the level-z construction instead")
    p.add_argument("--checks", help=f"comma list from: {','.join(ALL_CHECKS)}")
    p.add_argument("--sample", type=int, default=0,
                   help="additionally run eq8, lemma2, eq10 and prop1 on N random "
                   "balanced sets of the same t, each scanned with branch_and_bound "
                   f"whatever --strategy says, drawn in blocks of {SAMPLE_BLOCK}; "
                   "a set is checked once, and a repeated draw reuses its verdict "
                   f"and counts again (the verdicts of the first {SAMPLE_MEMO_MAX} "
                   "distinct sets are kept for later blocks, the others for their "
                   "block only); a block's checks are split among forked processes, "
                   f"one per usable core, each given at least {SAMPLE_MIN_SHARE}; "
                   f"refused (exit 4) before any work when 4t > {EXHAUSTIVE_MAX_RANKS} "
                   "(--z 4 and above)")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample only")
    p.add_argument("--out", help="certificate path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graphs", help="export the swap/potential graphs (DOT or JSON)")
    p.add_argument("--sets", required=True, help="defining-set JSON document")
    p.add_argument("--swaps", help="swap-set JSON document")
    p.add_argument("--minimal-maximizer", action="store_true",
                   help="use the adversary's minimal worst-case maximizer")
    p.add_argument("--format", choices=("dot", "json"), required=True,
                   help="dot: OUT.swp.dot and OUT.pot.dot; json: OUT.graphs.json")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--membership", choices=("original", "primed"), default="original",
                   help="original (the default, what every checker uses) reads "
                   "membership from the original sets, primed from the post-swap sets")
    common(p)
    p.set_defaults(func=cmd_graphs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise InvalidInput(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except (InvalidInput, SizeRefused, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_IO
        return EXIT_INVALID if isinstance(exc, InvalidInput) else EXIT_SIZE
