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
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .adversary import pool_size, worst_case, worst_case_bounded
from .core import CompanionPair, DefiningSet, InvalidInput


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


def _enum(remaining: tuple[int, ...]) -> Iterator[tuple[CompanionPair, ...]]:
    if not remaining:
        yield ()
        return
    m = remaining[0]
    for l2, l3, l4 in _balanced_completions(remaining):
        pair = CompanionPair(frozenset({m, l4}), frozenset({l2, l3}))
        rest = tuple(x for x in remaining if x not in (m, l2, l3, l4))
        for tail in _enum(rest):
            yield (pair,) + tail


def enumerate_balanced(t: int) -> Iterator[DefiningSet]:
    """Every balanced defining set over [1, 4t], once, in canonical form.

    Deterministic order: recursion always pairs the smallest unassigned rank
    and tries its partners in ascending (l2, l3) order.
    """
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")
    for pairs in _enum(tuple(range(1, 4 * t + 1))):
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


def _eval_batch(args) -> tuple[int, list[DefiningSet], int]:
    """Evaluate a batch of candidates; returns (batch minimum worst case,
    the candidates attaining it in order, number examined)."""
    batch, seed_cutoff = args
    local_min = seed_cutoff
    keep: list[DefiningSet] = []
    for ds in batch:
        res, exceeded = worst_case_bounded(ds, cutoff=local_min)
        if exceeded:
            continue
        wc = res.worst_case
        if wc < local_min:
            local_min = wc
            keep = [ds]
        elif wc == local_min:
            keep.append(ds)
    return local_min, keep, len(batch)


def find_optimal(
    t: int,
    time_budget: float | None = None,
    workers: int = 1,
    batch_size: int = 512,
) -> SearchResult:
    """Full search for D*(t) and every canonical optimum.

    Candidates are abandoned as soon as some swap set pushes them above the
    best worst case seen so far; results are independent of worker count.
    A blown time budget returns the partial incumbent with certified=False.
    """
    started = time.perf_counter()
    workers = pool_size(workers)
    stream = enumerate_balanced(t)

    first = next(stream)
    seed_res = worst_case(first, strategy="branch_and_bound")
    d_star = seed_res.worst_case
    optima: list[DefiningSet] = [first]
    examined = 1
    certified = True

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

    def fold(result: tuple[int, list[DefiningSet], int]) -> None:
        nonlocal d_star, optima, examined
        batch_min, keep, n_exam = result
        examined += n_exam
        if batch_min < d_star:
            d_star = batch_min
            optima = list(keep)
        elif batch_min == d_star:
            optima.extend(keep)

    if workers == 1:
        for batch in batches():
            if out_of_time():
                certified = False
                break
            fold(_eval_batch((batch, d_star)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            pending = pool.map(_eval_batch, ((b, d_star) for b in batches()))
            for result in pending:
                fold(result)
                if out_of_time():
                    certified = False
                    pool.shutdown(wait=False, cancel_futures=True)
                    break

    return SearchResult(
        t=t,
        d_star=d_star,
        optima=tuple(optima),
        candidates_examined=examined,
        wall_time=time.perf_counter() - started,
        certified=certified,
    )
