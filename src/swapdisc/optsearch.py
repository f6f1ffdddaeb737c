"""Exhaustive search for optimal defining sets at small t.

Enumerates every balanced defining set once, in canonical form (odd set
holds each quadruple's minimum, pairs ordered by minimum element), and
certifies the minimum worst-case discrepancy over the whole space.  The
symmetry quotient is role-swap and pair-order only; reflection is NOT
quotiented out, so reflection-related optima are listed separately.
The search is one loop in the calling process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .adversary import (
    Attained,
    Witnesses,
    check_workers,
    worst_case,
    worst_case_bounded,
    worst_case_is,
)
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


def find_optimal(
    t: int,
    time_budget: float | None = None,
    workers: int = 1,
) -> SearchResult:
    """Full search for D*(t) and every canonical optimum.

    One loop over enumerate_balanced in this process, sharing one witness
    table: consecutive candidates share most pairs, so a swap set that beat
    one of them usually beats the next.  A candidate is abandoned as soon as
    some swap set pushes it above the best worst case seen so far, and kept
    unproven when one only ties it; after the loop each kept tie is proven
    at the final D*, in enumeration order.  `workers` is checked (>= 1) and
    otherwise ignored.  A blown time budget (seconds, >= 0, checked before
    each candidate) stops the loop and returns the partial incumbent with
    certified=False.  Its kept ties are still proven afterwards, and the
    budget does not bound that proof.
    """
    started = time.perf_counter()
    if time_budget is not None and not time_budget >= 0:
        raise InvalidInput(f"time_budget must be a number of seconds >= 0, got {time_budget!r}")
    check_workers(workers)
    deadline = None if time_budget is None else started + time_budget
    stream = enumerate_balanced(t)

    first = next(stream)
    d_star = worst_case(first, strategy="branch_and_bound").worst_case
    # candidates that may attain d_star, in enumeration order, and whether proven
    kept: list[tuple[DefiningSet, bool]] = [(first, True)]
    examined = 1
    certified = True
    # swap sets that reached recent cutoffs; they only ever speed up the verdicts
    witnesses = Witnesses(4 * t)
    for ds in stream:
        if deadline is not None and time.perf_counter() > deadline:
            certified = False
            break
        examined += 1
        res, exceeded = worst_case_bounded(ds, cutoff=d_star, witnesses=witnesses)
        if exceeded:
            continue
        if isinstance(res, Attained):
            kept.append((ds, False))
        else:
            d_star = res.worst_case
            kept = [(ds, True)]

    optima = [ds for ds, proven in kept if proven or worst_case_is(ds, d_star)]
    return SearchResult(
        t=t,
        d_star=d_star,
        optima=tuple(optima),
        candidates_examined=examined,
        wall_time=time.perf_counter() - started,
        certified=certified,
    )
