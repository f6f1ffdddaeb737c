"""Exhaustive search for optimal defining sets at small t.

Enumerates every balanced defining set once, in canonical form (odd set
holds each quadruple's minimum, pairs ordered by minimum element), and
certifies the minimum worst-case discrepancy over the whole space.  The
symmetry quotient is role-swap and pair-order only; reflection is NOT
quotiented out, so reflection-related optima are listed separately.
The search walks the first top-level branch in this process and splits
the others among forked processes, one per usable core, which from t = 5
on is more than one (find_optimal).  It scans with branch and bound, so
it is refused for 4t above EXHAUSTIVE_MAX_RANKS before any work.  Its
enumeration and the random draws share one table per 4t (_Table).
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, NamedTuple

# the search's scans and rank tables are read from adversary, _kernels and
# core at call time, so a wrapper set there after this import
# (perfbench/tracer.py) is the one called
from . import _fork, _kernels, adversary, core
from .adversary import EXHAUSTIVE_MAX_RANKS, Attained, Witnesses
from .core import (
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    _unchecked_set,
    all_ranks,
    require_int,
)

if TYPE_CHECKING:
    from random import Random

# rank-1 branches walked in this process before the rest are split among
# forked shares (see find_optimal)
SEARCH_WARM_UP = 1
# fewest rank-1 branches per share: t = 4 (49 branches) runs in one process,
# where on 2 cores two shares saved 0.4 ms of its 8.1 ms for 50 % more CPU;
# t = 5 (81 branches) is split in up to 3 shares
SEARCH_MIN_SHARE = 25
# largest t searched without a time budget: t = 7 took 939 s on 2 cores over
# 332,352,318 candidates, and t = 8 has 35,368,663,013 canonical balanced
# sets, 106 times as many (about 48 CPU-hours at t = 7's rate)
UNBUDGETED_MAX_T = 7
# most ranks whose table (_Table) is built: it holds O((4t)^3) quadruples.
# For 4t = 316 (the z = 6 construction's t) they are 2,592,227 and took 43 s
# and 2.0 GiB, with a pair each, before verify's first --sample draw; for
# 4t = 156 (z = 5), 307,307, listed in 0.04 s
QUADRUPLE_MAX_RANKS = 160
# most quadruples, plus one per entry, that the draws' memo of fitting options
# (_Table.fits) holds: about 1 MiB of references into the table's quadruples.
# Unbounded it held 11.8 MiB after 2,000 t = 9 draws and 35 MiB after 200
# t = 19 draws; 2,000 t = 4 draws fill 930 entries, 0.5 MiB
DRAW_MEMO_MAX = 1 << 17


class _Table:
    """What enumeration and draws over [1, n] share.  `quadruples[m]` lists
    each balanced quadruple (m, l2, l3, l4), l2 + l3 = m + l4 and
    m < l2 < l3 < l4 <= n, as a rank bitmask in ascending (l2, l3) order.
    `pair_of` maps a quadruple to its canonical pair once built (pair).
    The draws' memo `fits` maps a remainder to the quadruples of its
    smallest rank that fit in it; `held` counts them plus one per entry,
    and never passes DRAW_MEMO_MAX.  `bits[i]` is (i + 1).bit_length(), up
    to the longest list of options, that of rank 1.  Refused (SizeRefused)
    for n above QUADRUPLE_MAX_RANKS before anything is built."""

    __slots__ = ("bits", "fits", "held", "pair_of", "quadruples")

    def __init__(self, n: int) -> None:
        if n > QUADRUPLE_MAX_RANKS:
            raise SizeRefused(
                f"balanced sets over 4t = {n} ranks refused: their quadruple table "
                f"is built only up to 4t = {QUADRUPLE_MAX_RANKS}"
            )
        self.quadruples: tuple[tuple[int, ...], ...] = ((),) + tuple(
            tuple(
                (1 << m) | (1 << l2) | (1 << l3) | (1 << (l2 + l3 - m))
                for l2 in range(m + 1, n + 1)
                for l3 in range(l2 + 1, n + m - l2 + 1)
            )
            for m in range(1, n + 1)
        )
        self.pair_of: dict[int, CompanionPair] = {}
        self.fits: dict[int, tuple[int, ...]] = {}
        self.held = 0
        self.bits = [i.bit_length() for i in range(1, len(self.quadruples[1]) + 1)]

    def pair(self, q: int) -> CompanionPair:
        """The canonical pair of quadruple q, kept in pair_of: the odd set
        holds its smallest and largest ranks."""
        pair = self.pair_of.get(q)
        if pair is None:
            m, l2, l3, l4 = (r for r in range(q.bit_length()) if q >> r & 1)
            pair = self.pair_of[q] = CompanionPair(frozenset({m, l4}), frozenset({l2, l3}))
        return pair


@lru_cache(maxsize=1)
def _table(n: int) -> _Table:
    """The table over [1, n]; only the last n is kept, and a refused n
    leaves it in place."""
    return _Table(n)


def _tails(rem: int, table: _Table) -> tuple[tuple[CompanionPair, ...], ...]:
    """Every split of the ranks in `rem` into balanced quadruples, each a
    tuple of pairs: eight ranks give (first, second) tuples, the first
    holding the smallest rank, in enumerate_balanced's ascending (l2, l3)
    order; when t <= 2 fewer are left, and no rank gives ((),), four that
    balance ((pair,),) and four that do not ().  The table's pair_of is
    complete, so its keys are the balance test."""
    pair_of = table.pair_of
    if not rem:
        return ((),)
    if rem.bit_count() == 4:
        return ((pair_of[rem],),) if rem in pair_of else ()
    return tuple([
        (pair_of[q], pair_of[rem ^ q])
        for q in table.quadruples[(rem & -rem).bit_length() - 1]
        if q & rem == q and (rem ^ q) in pair_of
    ])


def enumerate_balanced(t: int, branches: Iterable[int] | None = None) -> Iterator[DefiningSet]:
    """Every balanced defining set over [1, 4t], once, in canonical form.

    Deterministic order: the walk always pairs the smallest unassigned rank
    and tries its partners in ascending (l2, l3) order.  `branches`, if
    given, names the top-level branches to walk, as strictly ascending int
    indices into the quadruples holding rank 1 (_Table.quadruples[1]),
    InvalidInput otherwise: the sets whose pair of rank 1 is one of them,
    in the same order.  The unassigned ranks are one bitmask.  One walk
    serves every t.  The last eight ranks, or fewer when t <= 2 (four at
    t = 2, none at t = 1), are answered by a memo, local to this call, that
    maps their bitmask to its splits into balanced quadruples, each a tuple
    of pairs (_tails; at t = 5 the walk reaches 52,199 eight-rank
    remainders, 7,903 of them distinct); it is dropped when the generator
    ends.  The pairs chosen above those last ranks are one prefix tuple,
    built once per remainder, and each set is that prefix plus one split.
    Each call first builds the pairs the table lacks, so each companion
    pair is built once per 4t and shared with the draws and by the sets
    holding it.  Each set is built without DefiningSet's checks
    (core._unchecked_set): it is a t-tuple of pairs by construction.
    """
    require_int(t, "t", 1)
    table = _table(4 * t)
    quadruples = table.quadruples
    first = quadruples[1]
    if branches is not None:
        picked, last = [], -1
        for b in branches:
            what = "branch index" if last < 0 else f"branch index after {last}"
            last = require_int(b, what, last + 1, len(first) - 1)
            picked.append(first[b])
        first = picked
    for options in quadruples:
        for q in options:
            table.pair(q)
    pair_of = table.pair_of
    full = all_ranks(4 * t)
    # the depth whose remainder holds the last eight ranks, or fewer when t <= 2
    top = max(t - 2, 1)
    chosen: list[CompanionPair | None] = [None] * top
    memo: dict[int, tuple[tuple[CompanionPair, ...], ...]] = {}
    rems = [full] * top
    # options[d] iterates the quadruples of the smallest rank left at depth d
    options = [iter(first)] + [iter(())] * (top - 1)
    depth = 0
    while depth >= 0:
        rem = rems[depth]
        for q in options[depth]:
            if q & rem != q:
                continue
            chosen[depth] = pair_of[q]
            child = rem ^ q
            if depth + 1 == top:
                tails = memo.get(child)
                if tails is None:
                    tails = memo[child] = _tails(child, table)
                prefix = tuple(chosen)
                for tail in tails:
                    yield _unchecked_set(t, prefix + tail)
                continue
            depth += 1
            rems[depth] = child
            options[depth] = iter(quadruples[(child & -child).bit_length() - 1])
            break
        else:
            depth -= 1


def _draw(rem: int, table: _Table, getrandbits: Callable[[int], int]) -> tuple[int, ...] | None:
    """random_balanced's backtracking over the ranks left in `rem`: the
    quadruples of one balanced partition of them, or None when there is
    none.  The quadruples of the smallest rank that fit are read from
    table.fits, or listed and kept there: a memo that would pass
    DRAW_MEMO_MAX is emptied first, and a list that alone would pass it
    is not kept.  A copy of them is shuffled as Random.shuffle shuffles a
    list, with the same getrandbits calls (Durstenfeld's Fisher-Yates from
    the last index i down, swapping it with an index j <= i that is drawn
    and redrawn as Random._randbelow_with_getrandbits draws it), and tried
    in that order."""
    if not rem:
        return ()
    options = table.fits.get(rem)
    if options is None:
        options = tuple([q for q in table.quadruples[(rem & -rem).bit_length() - 1]
                         if q & rem == q])
        cost = len(options) + 1
        if cost <= DRAW_MEMO_MAX:
            if table.held + cost > DRAW_MEMO_MAX:
                table.fits.clear()
                table.held = 0
            table.fits[rem] = options
            table.held += cost
    order = list(options)
    bits = table.bits
    for i in range(len(order) - 1, 0, -1):
        k = bits[i]
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    for q in order:
        tail = _draw(rem ^ q, table, getrandbits)
        if tail is not None:
            return (q,) + tail
    return None


def random_balanced(t: int, rng: Random) -> DefiningSet:
    """One balanced defining set drawn by randomized backtracking (canonical
    form; not uniform, but seeded and reproducible).  Each step shuffles
    the quadruples of the smallest unassigned rank that fit, taken in
    enumerate_balanced's order, and tries them in turn (_draw).  The
    shuffle reads rng.getrandbits as rng.shuffle does on a Random, so the
    sets drawn and rng's state after them are those of a draw that calls
    rng.shuffle.  Pairs are built only for the quadruples drawn, each once
    per 4t in the table that enumerate_balanced shares (_Table.pair)."""
    require_int(t, "t", 1)
    table = _table(4 * t)
    quads = _draw(all_ranks(4 * t), table, rng.getrandbits)
    assert quads is not None  # a balanced partition always exists
    return _unchecked_set(t, tuple([table.pair(q) for q in quads]))


class SearchResult(NamedTuple):
    t: int
    d_star: int
    optima: tuple[DefiningSet, ...]
    candidates_examined: int
    wall_time: float
    certified: bool


class _Walk(NamedTuple):
    """What one walk over candidates found: its last cutoff d_star, the
    pairs of the set whose exact scan set it (None if no scan in the walk
    did), the pairs of the sets that tied it afterwards, in enumeration
    order, the candidates examined, and whether the walk ended before the
    deadline."""

    d_star: int
    best: tuple[CompanionPair, ...] | None
    ties: list[tuple[CompanionPair, ...]]
    examined: int
    certified: bool


def _walk(candidates: Generator[DefiningSet, None, None], d_star: int,
          best: tuple[CompanionPair, ...] | None, witnesses: Witnesses,
          deadline: float | None) -> _Walk:
    """The search's loop over `candidates`, from cutoff d_star set by the
    pairs `best`: a candidate is abandoned as soon as some swap set pushes
    it above the cutoff, kept as a tie, not yet proven, when one only ties
    it, and kept as the new best, with its worst case the new cutoff, when
    a scan proves it below.  A new cutoff drops every tie of the old one.
    The deadline is checked before each candidate."""
    ties: list[tuple[CompanionPair, ...]] = []
    examined = 0
    certified = True
    worst_case_bounded = adversary.worst_case_bounded
    for ds in candidates:
        if deadline is not None and time.perf_counter() > deadline:
            certified = False
            break
        examined += 1
        res, exceeded = worst_case_bounded(ds, d_star, witnesses)
        if exceeded:
            continue
        if isinstance(res, Attained):
            ties.append(ds.pairs)
        else:
            d_star = res.worst_case
            best = ds.pairs
            ties = []
    candidates.close()  # a blown budget leaves it open; this drops its memo
    return _Walk(d_star, best, ties, examined, certified)


def _prove(t: int, walk: _Walk, deadline: float | None) -> _Walk:
    """`walk` with each of its ties proven at its cutoff D*: a swap set
    reaches D* on it, so it is kept only if none passes D*.  The proof is
    one kernel scan from the pruning floor D* + 1, which need not be
    attained: it skips every subtree that cannot pass D*, and the scan
    stops at the first swap set that does.  The deadline is checked before
    each proof; once it is blown, the ties not yet proven are dropped and
    the walk is no longer certified.  Its best is kept as it is."""
    ties = []
    certified = walk.certified
    d_star = walk.d_star
    for pairs in walk.ties:
        if deadline is not None and time.perf_counter() > deadline:
            certified = False
            continue
        # the pairs come from the enumeration: a valid set by construction
        tables = core.rank_table(_unchecked_set(t, pairs))
        # below an unattained floor the scan returns only the best value it
        # visited, so a set without a swap set past D* may read below D*
        if _kernels.scan_chunk(4 * t, *tables, True, d_star + 1, d_star)[0] <= d_star:
            ties.append(pairs)
    return walk._replace(ties=ties, certified=certified)


def find_optimal(t: int, time_budget: float | None = None) -> SearchResult:
    """Full search for D*(t) and every canonical optimum.

    The candidates of enumerate_balanced are walked (_walk) against the
    best worst case seen so far, sharing one witness table: consecutive
    candidates share most pairs, so a swap set that beat one of them
    usually beats the next.  The first candidate is scanned exactly and
    is the first cutoff.  This walk covers the first SEARCH_WARM_UP
    top-level branches (the quadruples of rank 1), and _fork.split cuts
    the branches into runs of at least SEARCH_MIN_SHARE, one per usable
    core.  _fork.fork_map walks the runs (the first, less the warm-up,
    here, the others in forked children), each from the warm-up's cutoff
    and witness table; a share that lowers the cutoff proves its ties
    itself (_prove).  D* is the lowest cutoff a walk ended at.  So the
    ties of the walks that ended at D* are all proven when D* is below
    the warm-up's cutoff, and none of them is when it is not: then they
    are proven here.  `optima` is each such walk's best, if it has one,
    then its proven ties, walk by walk: every canonical optimum in
    enumeration order, the same on every core count.

    Every candidate is scanned with branch and bound, so t with 4t above
    EXHAUSTIVE_MAX_RANKS is refused (SizeRefused) before any enumeration,
    and so is t above UNBUDGETED_MAX_T without a time budget.
    The time budget (seconds, >= 0) is checked before each candidate and
    before each proof.  Once it is blown, no further candidate is examined
    and no further tie is proven (a budget blown in the warm-up ends the
    search there): the result has certified=False, and `optima` leaves
    out the ties not yet proven.
    """
    started = time.perf_counter()
    if time_budget is not None and (type(time_budget) not in (int, float)
                                    or not 0 <= time_budget <= sys.float_info.max):
        # a bool or a string is no number of seconds; NaN compares false with
        # every elapsed time and would switch the budget off, infinity would
        # let t >= 8 past its refusal for about 48 CPU-hours, and an int past
        # the float range would fail to convert when added to the start time
        raise InvalidInput(
            "time_budget (--time-budget) must be a finite number of seconds >= 0, "
            f"got {time_budget!r}"
        )
    require_int(t, "t", 1)
    if 4 * t > EXHAUSTIVE_MAX_RANKS:
        raise SizeRefused(
            f"search refused for t = {t}: its branch-and-bound scans are refused "
            f"above 4t = {EXHAUSTIVE_MAX_RANKS}"
        )
    if time_budget is None and t > UNBUDGETED_MAX_T:
        raise SizeRefused(
            f"search refused for t = {t} without a time budget (--time-budget): "
            "t = 8 alone has 35,368,663,013 canonical balanced sets, about 48 "
            "CPU-hours of scans"
        )
    deadline = None if time_budget is None else started + time_budget
    stream = enumerate_balanced(t, range(SEARCH_WARM_UP))
    seed = next(stream)
    d_star = adversary.worst_case(seed, strategy="branch_and_bound").worst_case
    # swap sets that reached recent cutoffs; they only ever speed up the verdicts
    witnesses = Witnesses(4 * t)
    walk = _walk(stream, d_star, seed.pairs, witnesses, deadline)
    walks = [walk._replace(examined=walk.examined + 1)]
    if walk.certified:
        def share(branches: range) -> _Walk:
            found = _walk(enumerate_balanced(t, branches), walk.d_star, None, witnesses, deadline)
            # a share that lowered the cutoff likely holds D*: it proves its
            # ties while the other shares still run
            return _prove(t, found, deadline) if found.d_star < walk.d_star else found

        runs = _fork.split(range(len(_table(4 * t).quadruples[1])), SEARCH_MIN_SHARE)
        runs[0] = runs[0][SEARCH_WARM_UP:]
        walks += _fork.fork_map(share, runs, "search worker")

    d_star = min(w.d_star for w in walks)
    # a walk that ended above D* kept sets above it.  Each walk walks the
    # branches after the previous walk's, so the sets are in enumeration
    # order, led by the warm-up's best or a lowering share's
    optimal = [w for w in walks if w.d_star == d_star]
    if d_star == walk.d_star:
        optimal = [_prove(t, w, deadline) for w in optimal]
    return SearchResult(
        t=t,
        d_star=d_star,
        optima=tuple(DefiningSet(t, pairs) for w in optimal
                     for pairs in (w.best, *w.ties) if pairs is not None),
        candidates_examined=sum(w.examined for w in walks),
        wall_time=time.perf_counter() - started,
        certified=all(w.certified for w in walks + optimal),
    )
