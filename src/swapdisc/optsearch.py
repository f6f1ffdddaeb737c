"""Exhaustive search for optimal defining sets at small t.

Enumerates every balanced defining set once, in canonical form (odd set
holds each quadruple's minimum, pairs ordered by minimum element), and
certifies the minimum worst-case discrepancy over the whole space.  The
symmetry quotient is role-swap and pair-order only; reflection is NOT
quotiented out, so reflection-related optima are listed separately.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .adversary import (
    Attained,
    Witnesses,
    pool_size,
    worst_case,
    worst_case_bounded,
    worst_case_is,
)
from .core import CompanionPair, DefiningSet, InvalidInput

# batches queued per worker process in a parallel search
IN_FLIGHT_PER_WORKER = 2

_BatchResult = tuple[int, list[tuple[DefiningSet, bool]], int, Witnesses]


def _balanced_completions(remaining: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """(l2, l3, l4) choices pairing remaining[0] into a balanced quadruple.

    Balance forces l4 = l2 + l3 - min, so candidates are scanned over l2 < l3
    with an early break once l4 overshoots the largest remaining rank.
    """
    m = remaining[0]
    rest = remaining[1:]
    pool = set(rest)
    hi = remaining[-1]
    for i2, l2 in enumerate(rest):
        if i2 + 1 >= len(rest):
            break
        if l2 + rest[i2 + 1] - m > hi:
            # even the smallest l3 overshoots, and l2 only grows from here
            break
        for l3 in rest[i2 + 1 :]:
            l4 = l2 + l3 - m  # > l3 since l2 > m
            if l4 > hi:
                break
            if l4 in pool:
                yield l2, l3, l4


def _enum(
    remaining: tuple[int, ...], made: dict[tuple[int, int, int, int], CompanionPair]
) -> Iterator[tuple[CompanionPair, ...]]:
    if not remaining:
        yield ()
        return
    m = remaining[0]
    for l2, l3, l4 in _balanced_completions(remaining):
        quad = (m, l2, l3, l4)
        pair = made.get(quad)
        if pair is None:
            pair = made[quad] = CompanionPair(frozenset({m, l4}), frozenset({l2, l3}))
        rest = tuple(x for x in remaining if x not in quad)
        for tail in _enum(rest, made):
            yield (pair,) + tail


def enumerate_balanced(t: int) -> Iterator[DefiningSet]:
    """Every balanced defining set over [1, 4t], once, in canonical form.

    Deterministic order: recursion always pairs the smallest unassigned rank
    and tries its partners in ascending (l2, l3) order.  Each distinct
    companion pair is built once per call and shared by the sets holding it.
    """
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")
    for pairs in _enum(tuple(range(1, 4 * t + 1)), {}):
        yield DefiningSet(t, pairs)


def count_balanced(t: int) -> int:
    return sum(1 for _ in enumerate_balanced(t))


def random_balanced(t: int, rng: Random) -> DefiningSet:
    """One balanced defining set drawn by randomized backtracking (canonical
    form; not uniform, but seeded and reproducible)."""
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")

    def rec(remaining: tuple[int, ...]) -> tuple[CompanionPair, ...] | None:
        if not remaining:
            return ()
        m = remaining[0]
        options = list(_balanced_completions(remaining))
        rng.shuffle(options)
        for l2, l3, l4 in options:
            rest = tuple(x for x in remaining if x not in (m, l2, l3, l4))
            tail = rec(rest)
            if tail is not None:
                return (CompanionPair(frozenset({m, l4}), frozenset({l2, l3})),) + tail
        return None

    pairs = rec(tuple(range(1, 4 * t + 1)))
    assert pairs is not None  # a balanced partition always exists
    return DefiningSet(t, pairs)


@dataclass(frozen=True)
class SearchResult:
    t: int
    d_star: int
    optima: tuple[DefiningSet, ...]
    candidates_examined: int
    wall_time: float
    certified: bool


def _eval_batch(args) -> _BatchResult:
    """Evaluate a batch of candidates against a cutoff, sharing one witness
    table: consecutive candidates share most pairs, so a swap set that beat
    one of them usually beats the next.  Returns (batch minimum worst case,
    the candidates that may attain it in order, each with whether it is
    proven, number examined, the witness table for the next batch).  A tie
    is never proven here: the cutoff may still fall."""
    batch, cutoff, witnesses = args
    keep: list[tuple[DefiningSet, bool]] = []
    for ds in batch:
        res, exceeded = worst_case_bounded(ds, cutoff=cutoff, witnesses=witnesses)
        if exceeded:
            continue
        if isinstance(res, Attained):
            keep.append((ds, False))
        else:
            cutoff = res.worst_case
            keep = [(ds, True)]
    return cutoff, keep, len(batch), witnesses


def find_optimal(
    t: int,
    time_budget: float | None = None,
    workers: int = 1,
    batch_size: int = 512,
) -> SearchResult:
    """Full search for D*(t) and every canonical optimum.

    Candidates are abandoned as soon as some swap set pushes them above the
    best worst case seen so far, and kept unproven when one only ties it;
    after the last batch each kept tie is proven at the final D*, in
    enumeration order.  Results are independent of worker count.  One
    witness table is carried from batch to batch.  With several workers at
    most IN_FLIGHT_PER_WORKER batches per worker are queued, each with the
    running incumbent and the latest witness table (pickled as its
    positions only), and results are folded in enumeration order.  A blown
    time budget (seconds, >= 0) stops further batches and returns the
    partial incumbent with certified=False.
    """
    started = time.perf_counter()
    if time_budget is not None and not time_budget >= 0:
        raise InvalidInput(f"time_budget must be a number of seconds >= 0, got {time_budget!r}")
    workers = pool_size(workers)
    stream = enumerate_balanced(t)

    first = next(stream)
    seed_res = worst_case(first, strategy="branch_and_bound")
    d_star = seed_res.worst_case
    # candidates that may attain d_star, in enumeration order, and whether proven
    kept: list[tuple[DefiningSet, bool]] = [(first, True)]
    examined = 1
    certified = True
    # swap sets that reached recent cutoffs; they only ever speed up the verdicts
    witnesses = Witnesses()

    def batches() -> Iterator[list[DefiningSet]]:
        batch: list[DefiningSet] = []
        for ds in stream:
            batch.append(ds)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def out_of_time() -> bool:
        return time_budget is not None and time.perf_counter() - started > time_budget

    def fold(result: _BatchResult) -> None:
        nonlocal d_star, kept, examined, witnesses
        batch_min, keep, n_exam, witnesses = result
        examined += n_exam
        if batch_min < d_star:
            d_star = batch_min
            kept = list(keep)
        elif batch_min == d_star:
            kept.extend(keep)

    if workers == 1:
        for batch in batches():
            if out_of_time():
                certified = False
                break
            fold(_eval_batch((batch, d_star, witnesses)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            in_flight: deque[concurrent.futures.Future] = deque()
            for batch in batches():
                while len(in_flight) >= IN_FLIGHT_PER_WORKER * workers:
                    fold(in_flight.popleft().result())
                if out_of_time():
                    certified = False
                    break
                in_flight.append(pool.submit(_eval_batch, (batch, d_star, witnesses)))
            for future in in_flight:
                # past the budget, batches that have not started are dropped
                if certified or not future.cancel():
                    fold(future.result())

    optima = [ds for ds, proven in kept if proven or worst_case_is(ds, d_star)]
    return SearchResult(
        t=t,
        d_star=d_star,
        optima=tuple(optima),
        candidates_examined=examined,
        wall_time=time.perf_counter() - started,
        certified=certified,
    )
