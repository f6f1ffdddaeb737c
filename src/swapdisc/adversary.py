"""Exact worst-case discrepancy over all allowed swap sets.

The allowed swap sets for parameter t are the matchings of the path graph
on [1, 4t]; there are Fibonacci(4t+1) of them.  Three engines give the same
exact maximum, maximizer count and minimum-size maximizer:

- frontier: a left-to-right dynamic program over the cut positions whose
  state is whether the next rank is already matched plus the signed
  imbalances of the pairs still open (frontier-based search, Kawahara et
  al., IEICE Trans. Fundamentals 2017).  The default above
  SCAN_DEFAULT_MAX_RANKS ranks; `enumerated` counts its DP states.
- exhaustive: the scan kernel walks every matching; `enumerated` is
  F(4t+1).  Kept as the brute-force reference.
- branch_and_bound: the same scan with sound pruning; `enumerated` counts
  the matchings it visited.

Scan work is split into chunks keyed by the first one or two swap
positions; the chunk list and the per-chunk pruning floors depend only on
the instance, so results (including the `enumerated` counter) are identical
for any worker count and scheduling order.  The frontier engine runs in one
process whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from .core import (
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    discrepancy,
    rank_table,
    validate_defining_set,
)

STRATEGIES = ("frontier", "exhaustive", "branch_and_bound")
EXHAUSTIVE_MAX_RANKS = 40
MAXIMIZER_LIST_MAX_RANKS = 28
# up to this many ranks (t <= 4, at most F(17) = 1,597 swap sets) the default
# engine stays the exhaustive scan: it costs about a millisecond there, and
# perfbench's per-layer test expects the z = 2 base case to be scanned
SCAN_DEFAULT_MAX_RANKS = 16
# cap on the states of one position; past it the frontier DP is refused
FRONTIER_MAX_STATES = 300_000


def fibonacci(k: int) -> int:
    """F(k) with F(1) = F(2) = 1."""
    if k < 1:
        raise InvalidInput(f"fibonacci index must be >= 1, got {k}")
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return b


def count_swap_sets(t: int) -> int:
    """Number of matchings of the path on [1, 4t]: F(4t+1)."""
    return fibonacci(4 * t + 1)


def _positions_stream(n: int, start: int, cur: list[int]) -> Iterator[tuple[int, ...]]:
    yield tuple(cur)
    for j in range(start, n):
        cur.append(j)
        yield from _positions_stream(n, j + 2, cur)
        cur.pop()


def enumerate_swap_sets(t: int) -> Iterator[SwapSet]:
    """All allowed swap sets, lexicographic by ascending left endpoints,
    shorter prefixes first (so the empty set comes first)."""
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")
    for positions in _positions_stream(4 * t, 1, []):
        yield SwapSet.from_positions(positions)


@dataclass(frozen=True)
class AdversaryResult:
    worst_case: int
    minimal_maximizer: SwapSet
    maximizer_count: int
    enumerated: int
    # the engine that computed the result; it says what `enumerated` counts
    engine: str = "exhaustive"


def _chunks(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Deterministic chunk list covering all matchings exactly once, in
    global lexicographic order: the empty matching, then for each first
    position j1 the singleton {(j1, j1+1)}, then the subtrees keyed by the
    first two positions."""
    out: list[tuple[tuple[int, ...], int]] = [((), n)]
    for j1 in range(1, n):
        out.append(((j1,), n))
        for j2 in range(j1 + 2, n):
            out.append(((j1, j2), j2 + 2))
    return out


def _fold(acc, nxt):
    best_d, best_m, best, count, nodes, abandoned = acc
    d2, m2, b2, c2, n2, a2 = nxt
    if d2 > best_d:
        best_d, best_m, best, count = d2, m2, b2, c2
    elif d2 == best_d:
        count += c2
        if m2 < best_m:
            best_m, best = m2, b2
    return best_d, best_m, best, count, nodes + n2, abandoned or a2


def _scan_star(args):
    return _kernels.scan_chunk(*args)


def _arrays(ds: DefiningSet) -> tuple[int, list[int], list[int], list[int]]:
    pair_of, side_of = rank_table(ds)
    pair_of.append(0)
    side_of.append(0)
    diff = [p.imbalance for p in ds.pairs]
    return ds.n_ranks, pair_of, side_of, diff


def pool_size(workers: int, tasks: int | None = None) -> int:
    """Worker processes to start: `workers` clamped to the CPU count and, when
    given, to the number of tasks.  Raises InvalidInput below 1."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InvalidInput(f"workers must be an integer >= 1, got {workers!r}")
    size = min(workers, os.cpu_count() or 1)
    if tasks is not None:
        size = min(size, max(tasks, 1))
    return size


def _run(
    ds: DefiningSet,
    prune: bool,
    abandon_above: int,
    workers: int,
) -> tuple[int, int, tuple[int, ...], int, int, bool]:
    n, pair_of, side_of, diff = _arrays(ds)
    chunk_list = _chunks(n)
    if abandon_above < 0 and workers > 1:
        workers = pool_size(workers, len(chunk_list))
    acc = (-1, -1, (), 0, 0, False)

    if workers == 1 or abandon_above >= 0:
        # abandon mode stays sequential so the early exit is deterministic
        for prefix, start in chunk_list:
            res = _kernels.scan_chunk(
                n, pair_of, side_of, diff, prefix, start, prune, -1, abandon_above
            )
            acc = _fold(acc, res)
            if acc[5]:
                break
        return acc

    args = [
        (n, pair_of, side_of, diff, prefix, start, prune, -1, -1)
        for prefix, start in chunk_list
    ]
    # processes, not threads: even the nogil compiled scan suffers badly from
    # cross-thread cache contention, while forked workers scale cleanly
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for res in pool.map(_scan_star, args, chunksize=max(1, len(args) // (8 * workers))):
            acc = _fold(acc, res)
    return acc


def _merge(table: dict, key: tuple, value: int, size: int, count: int, witness: tuple) -> None:
    """Record `count` partial swap sets reaching state `key` with `value`.

    A state keeps the best value, the number of partial sets attaining it,
    and among those the smallest size and then the lexicographically first
    positions.  Lower values are dropped: every completion adds the same to
    all partial sets reaching one state.
    """
    entry = table.get(key)
    if entry is None or value > entry[0]:
        table[key] = [value, size, count, witness]
    elif value == entry[0]:
        entry[2] += count
        if size < entry[1] or (size == entry[1] and witness < entry[3]):
            entry[1] = size
            entry[3] = witness


def _frontier(
    n: int, pair_of: list[int], side_of: list[int], diff: list[int]
) -> tuple[int, int, tuple[int, ...], int, int]:
    """Frontier dynamic program over the swap positions 1..n-1.

    Same tables as scan_chunk; diff holds each pair's signed imbalance before
    any swap.  After position i the state is (whether rank i+1 is matched,
    the signed imbalances of the open pairs: first rank <= i+1, last rank
    > i), the open pairs ordered by last rank so that the pairs closing at
    a position are a prefix.  A pair's |imbalance| joins the value once its
    last rank is decided.

    Partial sets meeting in one state with equal value and size share every
    completion, and the first of them in enumeration order stays first
    whatever completion follows; so keeping the lexicographically first
    witness per state yields the first minimum-size maximizer overall.

    Returns (best_d, best_size, best_positions, count, states), states being
    the number of DP states created.  Raises SizeRefused as soon as one
    position has more than FRONTIER_MAX_STATES states.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for r in range(1, n + 1):
        first.setdefault(pair_of[r], r)
        last[pair_of[r]] = r

    open_pairs = [pair_of[1]]
    free: dict = {(diff[pair_of[1]],): [0, 0, 1, ()]}  # rank i+1 unmatched
    taken: dict = {}  # rank i+1 matched by the swap at i
    states = 1
    for i in range(1, n):
        p = pair_of[i + 1]
        if first[p] == i + 1:
            slot = sum(1 for q in open_pairs if last[q] < last[p])
            open_pairs.insert(slot, p)
            fresh = (diff[p],)
            free = {k[:slot] + fresh + k[slot:]: e for k, e in free.items()}
            taken = {k[:slot] + fresh + k[slot:]: e for k, e in taken.items()}
        a, b = open_pairs.index(pair_of[i]), open_pairs.index(p)
        da, db = side_of[i], -side_of[i + 1]
        closing = n if i == n - 1 else i
        shut = sum(1 for q in open_pairs if last[q] <= closing)
        del open_pairs[:shut]

        nxt_free: dict = {}
        nxt_taken: dict = {}
        for table, can_swap in ((free, True), (taken, False)):
            for key, (value, size, count, witness) in table.items():
                stay = value
                for x in key[:shut]:
                    stay += abs(x)
                _merge(nxt_free, key[shut:], stay, size, count, witness)
                if can_swap:
                    moved = list(key)
                    moved[a] += da
                    moved[b] += db
                    for x in moved[:shut]:
                        value += abs(x)
                    _merge(nxt_taken, tuple(moved[shut:]), value, size + 1, count,
                           witness + (i,))
                if len(nxt_free) + len(nxt_taken) > FRONTIER_MAX_STATES:
                    raise SizeRefused(
                        f"frontier DP refused: more than {FRONTIER_MAX_STATES} live "
                        f"states at position {i} of 4t = {n}"
                    )
        free, taken = nxt_free, nxt_taken
        states += len(free) + len(taken)

    final: dict = {}
    for table in (free, taken):
        for value, size, count, witness in table.values():
            _merge(final, (), value, size, count, witness)
    best_d, best_m, count, best = final[()]
    return best_d, best_m, best, count, states


def _check_input(ds: DefiningSet) -> None:
    report = validate_defining_set(ds)
    if not report.ok:
        raise InvalidInput("invalid defining set: " + "; ".join(report.violations))


def _pick_strategy(ds: DefiningSet, strategy: str | None, force_exhaustive: bool) -> str:
    if strategy is None:
        return "exhaustive" if ds.n_ranks <= SCAN_DEFAULT_MAX_RANKS else "frontier"
    if strategy not in STRATEGIES:
        raise InvalidInput(f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}")
    if strategy != "frontier" and ds.n_ranks > EXHAUSTIVE_MAX_RANKS and not force_exhaustive:
        raise SizeRefused(
            f"{strategy} scan refused for 4t = {ds.n_ranks} > {EXHAUSTIVE_MAX_RANKS} "
            f"(F({4 * ds.t + 1}) matchings); use the frontier strategy, or pass "
            f"--force-exhaustive (force_exhaustive=True) to override"
        )
    return strategy


def worst_case(
    ds: DefiningSet,
    strategy: str | None = None,
    workers: int = 1,
    force_exhaustive: bool = False,
) -> AdversaryResult:
    """Exact max of discrepancy(ds, I) over all allowed swap sets I.

    The minimal maximizer is the first minimum-size maximizer in enumeration
    order; every strategy and any worker count return identical results
    except for the engine-specific `enumerated` counter.  The scan
    strategies are refused above EXHAUSTIVE_MAX_RANKS ranks unless forced.
    """
    _check_input(ds)
    workers = pool_size(workers)
    strategy = _pick_strategy(ds, strategy, force_exhaustive)
    if strategy == "frontier":
        best_d, _m, best, count, nodes = _frontier(*_arrays(ds))
    else:
        best_d, _m, best, count, nodes, _ab = _run(
            ds, prune=(strategy == "branch_and_bound"), abandon_above=-1, workers=workers
        )
    return AdversaryResult(
        worst_case=best_d,
        minimal_maximizer=SwapSet.from_positions(best),
        maximizer_count=count,
        enumerated=nodes,
        engine=strategy,
    )


def worst_case_bounded(
    ds: DefiningSet, cutoff: int, workers: int = 1
) -> tuple[AdversaryResult | None, bool]:
    """(result, exceeded): stop as soon as any swap set beats `cutoff`.

    If exceeded is True the defining set's worst case is > cutoff and the
    result is None; otherwise the result is exact (branch-and-bound scan).
    """
    _check_input(ds)
    best_d, _m, best, count, nodes, abandoned = _run(
        ds, prune=True, abandon_above=cutoff, workers=1
    )
    if abandoned:
        return None, True
    return (
        AdversaryResult(
            worst_case=best_d,
            minimal_maximizer=SwapSet.from_positions(best),
            maximizer_count=count,
            enumerated=nodes,
            engine="branch_and_bound",
        ),
        False,
    )


def all_maximizers(ds: DefiningSet, force: bool = False) -> tuple[SwapSet, ...]:
    """Every swap set attaining the worst case, in enumeration order.

    Materializes the maximizers, so it is reserved for small instances
    (4t <= 28 unless forced).
    """
    _check_input(ds)
    if ds.n_ranks > MAXIMIZER_LIST_MAX_RANKS and not force:
        raise SizeRefused(
            f"maximizer listing refused for 4t = {ds.n_ranks} > {MAXIMIZER_LIST_MAX_RANKS}"
        )
    target = worst_case(ds).worst_case
    n, pair_of, side_of, diff = _arrays(ds)
    out: list[SwapSet] = []
    for positions in _positions_stream(n, 1, []):
        d = list(diff)
        for i in positions:
            d[pair_of[i]] += side_of[i]
            d[pair_of[i + 1]] -= side_of[i + 1]
        if sum(abs(v) for v in d) == target:
            out.append(SwapSet.from_positions(positions))
    return tuple(out)


def minimal_maximizer_property(ds: DefiningSet, res: AdversaryResult) -> bool:
    """Check that worst_case equals 2|I*| and that removing any single swap
    from I* lowers the discrepancy by exactly 2."""
    if res.worst_case != 2 * len(res.minimal_maximizer):
        return False
    positions = res.minimal_maximizer.positions()
    for i in positions:
        rest = SwapSet.from_positions(p for p in positions if p != i)
        if discrepancy(ds, rest) != res.worst_case - 2:
            return False
    return True
