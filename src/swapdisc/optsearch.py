"""Exhaustive search for optimal defining sets at small t.

Enumerates every balanced defining set once, in canonical form (odd set
holds each quadruple's minimum, pairs ordered by minimum element), and
certifies the minimum worst-case discrepancy over the whole space.  The
symmetry quotient is role-swap and pair-order only; reflection is NOT
quotiented out, so reflection-related optima are listed separately.
The search is one loop in the calling process; it scans with branch and
bound, so it is refused for 4t above EXHAUSTIVE_MAX_RANKS before any work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator

# the search's scans are read from adversary at call time, so a wrapper set
# there after this import (perfbench/tracer.py) is the one called
from . import adversary
from .adversary import EXHAUSTIVE_MAX_RANKS, Attained, Witnesses
from .core import CompanionPair, DefiningSet, InvalidInput, SizeRefused, all_ranks


@lru_cache(maxsize=1)
def _quadruples(n: int) -> tuple[tuple[int, ...], ...]:
    """Every balanced quadruple over [1, n] as a rank bitmask, by smallest
    rank: entry m lists (m, l2, l3, l4) with l2 + l3 = m + l4 and
    m < l2 < l3 < l4 <= n, in ascending (l2, l3) order.

    Built at the first call for an n; only the last n is kept.
    """
    table = [()]
    for m in range(1, n + 1):
        table.append(
            tuple(
                (1 << m) | (1 << l2) | (1 << l3) | (1 << (l2 + l3 - m))
                for l2 in range(m + 1, n + 1)
                for l3 in range(l2 + 1, n + m - l2 + 1)
            )
        )
    return tuple(table)


def _pair(q: int) -> CompanionPair:
    """The canonical pair of the balanced quadruple with bitmask q: the odd
    set holds its smallest and largest ranks."""
    m, l2, l3, l4 = (r for r in range(q.bit_length()) if q >> r & 1)
    return CompanionPair(frozenset({m, l4}), frozenset({l2, l3}))


@lru_cache(maxsize=1)
def _pairs(n: int) -> dict[int, CompanionPair]:
    """The canonical pair of every balanced quadruple over [1, n], by
    bitmask: one CompanionPair per quadruple, shared by every set drawn or
    enumerated over [1, n], so its cached imbalance and partition_bits are
    computed once.  Read only: every caller gets the same dict.  Only the
    last n is kept."""
    return {q: _pair(q) for options in _quadruples(n) for q in options}


def _last_two(rem: int, table: tuple[tuple[int, ...], ...],
              pair_of: dict[int, CompanionPair]) -> tuple[CompanionPair, ...]:
    """Every split of the eight ranks in `rem` into two balanced quadruples,
    flat: (first, second, first, second, ...), the first holding the
    smallest rank, in enumerate_balanced's ascending (l2, l3) order."""
    splits: list[CompanionPair] = []
    for q in table[(rem & -rem).bit_length() - 1]:
        if q & rem == q:
            tail = pair_of.get(rem ^ q)
            if tail is not None:
                splits += (pair_of[q], tail)
    return tuple(splits)


def enumerate_balanced(t: int) -> Iterator[DefiningSet]:
    """Every balanced defining set over [1, 4t], once, in canonical form.

    Deterministic order: the walk always pairs the smallest unassigned rank
    and tries its partners in ascending (l2, l3) order.  The unassigned
    ranks are one bitmask.  The last eight ranks are answered by a memo,
    local to this call, that maps their bitmask to its splits into two
    balanced quadruples (at t = 5 the walk reaches 52,199 eight-rank
    remainders, 7,903 of them distinct); it is dropped when the generator
    ends.  Each distinct companion pair is built once per 4t (see _pairs)
    and shared by the sets holding it.
    """
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")
    table = _quadruples(4 * t)
    pair_of = _pairs(4 * t)
    full = all_ranks(4 * t)
    if t == 1:
        yield DefiningSet(t, (pair_of[full],))
        return
    top = t - 2  # the depth whose remainder holds the last eight ranks
    if top == 0:
        splits = _last_two(full, table, pair_of)
        for k in range(0, len(splits), 2):
            yield DefiningSet(t, splits[k:k + 2])
        return
    chosen: list[CompanionPair | None] = [None] * t
    memo: dict[int, tuple[CompanionPair, ...]] = {}
    rems = [full] * top
    # options[d] iterates the quadruples of the smallest rank left at depth d
    options = [iter(table[1])] + [iter(())] * (top - 1)
    depth = 0
    while depth >= 0:
        rem = rems[depth]
        for q in options[depth]:
            if q & rem != q:
                continue
            chosen[depth] = pair_of[q]
            child = rem ^ q
            if depth + 1 == top:
                splits = memo.get(child)
                if splits is None:
                    splits = memo[child] = _last_two(child, table, pair_of)
                for k in range(0, len(splits), 2):
                    chosen[top] = splits[k]
                    chosen[top + 1] = splits[k + 1]
                    yield DefiningSet(t, tuple(chosen))
                continue
            depth += 1
            rems[depth] = child
            options[depth] = iter(table[(child & -child).bit_length() - 1])
            break
        else:
            depth -= 1


def count_balanced(t: int) -> int:
    return sum(1 for _ in enumerate_balanced(t))


def _draw(rem: int, table: tuple[tuple[int, ...], ...],
          pair_of: dict[int, CompanionPair], rng: Random) -> tuple[CompanionPair, ...] | None:
    """random_balanced's backtracking over the ranks left in `rem`: the pairs
    of one balanced partition of them, or None when there is none."""
    if not rem:
        return ()
    options = [q for q in table[(rem & -rem).bit_length() - 1] if q & rem == q]
    rng.shuffle(options)
    for q in options:
        tail = _draw(rem ^ q, table, pair_of, rng)
        if tail is not None:
            return (pair_of[q],) + tail
    return None


def random_balanced(t: int, rng: Random) -> DefiningSet:
    """One balanced defining set drawn by randomized backtracking (canonical
    form; not uniform, but seeded and reproducible).  Each step shuffles
    the quadruples of the smallest unassigned rank that fit, taken in
    enumerate_balanced's order."""
    if t < 1:
        raise InvalidInput(f"t must be >= 1, got {t}")
    pairs = _draw(all_ranks(4 * t), _quadruples(4 * t), _pairs(4 * t), rng)
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


def find_optimal(t: int, time_budget: float | None = None) -> SearchResult:
    """Full search for D*(t) and every canonical optimum.

    One loop over enumerate_balanced in this process, sharing one witness
    table: consecutive candidates share most pairs, so a swap set that beat
    one of them usually beats the next.  A candidate is abandoned as soon as
    some swap set pushes it above the best worst case seen so far, and kept
    unproven when one only ties it.  The incumbent, whose worst case a scan
    proved, is kept apart; an unproven tie is kept as its tuple of pairs
    only, and its DefiningSet is rebuilt when it is proven.  After the loop
    each tie is proven at the final D*, in enumeration order, so `optima`
    lists the incumbent and then the proven ties, in enumeration order.
    Every candidate is scanned with branch and bound, so t with 4t above
    EXHAUSTIVE_MAX_RANKS is refused (SizeRefused) before any enumeration.
    The time budget (seconds, >= 0) is checked before each candidate and
    before each proof.  Once it is blown, no further candidate is examined
    and no further tie is proven: the incumbent is returned with
    certified=False, and `optima` leaves out the ties not yet proven.
    """
    started = time.perf_counter()
    if time_budget is not None and not time_budget >= 0:
        raise InvalidInput(f"time_budget must be a number of seconds >= 0, got {time_budget!r}")
    if 4 * t > EXHAUSTIVE_MAX_RANKS:
        raise SizeRefused(
            f"search refused for t = {t}: its branch-and-bound scans are refused "
            f"above 4t = {EXHAUSTIVE_MAX_RANKS}"
        )
    deadline = None if time_budget is None else started + time_budget
    stream = enumerate_balanced(t)

    incumbent = next(stream)
    d_star = adversary.worst_case(incumbent, strategy="branch_and_bound").worst_case
    # the pairs of the later candidates that may attain d_star, in order
    ties: list[tuple[CompanionPair, ...]] = []
    examined = 1
    certified = True
    # swap sets that reached recent cutoffs; they only ever speed up the verdicts
    witnesses = Witnesses(4 * t)
    worst_case_bounded = adversary.worst_case_bounded
    for ds in stream:
        if deadline is not None and time.perf_counter() > deadline:
            certified = False
            break
        examined += 1
        res, exceeded = worst_case_bounded(ds, cutoff=d_star, witnesses=witnesses)
        if exceeded:
            continue
        if isinstance(res, Attained):
            ties.append(ds.pairs)
        else:
            d_star = res.worst_case
            incumbent = ds
            ties = []
    stream.close()  # a blown budget leaves it open; this drops its memo

    optima = [incumbent]
    for pairs in ties:
        if deadline is not None and time.perf_counter() > deadline:
            certified = False  # the ties not yet proven stay out of optima
            break
        ds = DefiningSet(t, pairs)
        if adversary.worst_case_is(ds, d_star):
            optima.append(ds)
    return SearchResult(
        t=t,
        d_star=d_star,
        optima=tuple(optima),
        candidates_examined=examined,
        wall_time=time.perf_counter() - started,
        certified=certified,
    )
