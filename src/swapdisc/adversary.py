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
  F(4t+1).  The brute-force strategy; the tests check every engine
  against the reference enumeration in tests/naive_oracles.py.
- branch_and_bound: the same scan with sound pruning, its floor seeded
  with the total of a left-to-right greedy swap set; `enumerated` counts
  the matchings it visited.

Every engine runs in the calling process: a scan is one call of the pure
Python kernel over all matchings.

The bounded scan (`worst_case_bounded`, used by the optimal-set search)
first tries the swap sets that reached earlier cutoffs (a caller-owned
Witnesses table for one 4t, the killer heuristic of game-tree search,
which scores them all with t integer additions), then runs one
branch-and-bound scan that stops at the first swap set reaching the cutoff.
It gives one of three verdicts: the cutoff is beaten, attained (a swap set
reaches it exactly; the worst case is not proven), or the exact worst case
lies below it.  The search proves an attained value afterwards with one
kernel scan from floor D* + 1 that stops at the first swap set above D*
(optsearch._prove), so the kernel answers two questions in the search: an
exact worst case, and whether any swap set passes a value.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from . import _kernels
from .core import (
    EXHAUSTIVE_MAX_RANKS,
    SCAN_DEFAULT_MAX_RANKS,
    STRATEGIES,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    all_ranks,
    rank_table,
    reject_invalid,
    require_inside,
    require_int,
    require_matching,
    require_valid,
)

# cap on the states of one position; past it the frontier DP is refused
FRONTIER_MAX_STATES = 300_000
# most swap sets a Witnesses table keeps for worst_case_bounded
WITNESS_CAP = 128


class AdversaryResult(NamedTuple):
    worst_case: int
    minimal_maximizer: SwapSet
    maximizer_count: int
    enumerated: int
    # the engine that computed the result; it says what `enumerated` counts
    engine: str


class Attained(NamedTuple):
    """The "attains" verdict of worst_case_bounded: a swap set reaches
    exactly the cutoff and no swap set tried beats it, so the worst case
    is at least the cutoff; whether it is exactly the cutoff is not
    proven.  `enumerated` counts the swap sets the scan visited (0 without
    a scan)."""

    enumerated: int


def _merge(table: dict, key: tuple, value: int, size: int, count: int, witness: int) -> None:
    """Record `count` partial swap sets reaching state `key` with `value`.

    A state keeps the best value, the number of partial sets attaining it,
    and among those the smallest size and then the lexicographically first
    positions.  Lower values are dropped: every completion adds the same to
    all partial sets reaching one state.  `witness` holds swap position i
    as bit n - i, so of two position sets of one size the lexicographically
    first is the larger integer (it holds the smallest position in which
    they differ).
    """
    entry = table.get(key)
    if entry is None or value > entry[0]:
        table[key] = [value, size, count, witness]
    elif value == entry[0]:
        entry[2] += count
        if size < entry[1] or (size == entry[1] and witness > entry[3]):
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
    witness per state yields the first minimum-size maximizer overall.  A
    witness is an integer bitmask (see _merge), so a swap transition adds
    one bit instead of copying a tuple of positions.

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
    free: dict = {(diff[pair_of[1]],): [0, 0, 1, 0]}  # rank i+1 unmatched
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

        bit = 1 << (n - i)
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
                           witness | bit)
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
    best_d, best_m, count, mask = final[()]
    best = tuple(i for i in range(1, n) if mask >> (n - i) & 1)
    return best_d, best_m, best, count, states


def _greedy(n: int, pair_of, side_of, diff) -> tuple[int, tuple[int, ...]]:
    """(total, positions) of the left-to-right greedy swap set on scan_chunk's
    tables: it takes each free position whose swap raises the total.  A real
    swap set attains the total, so it is a sound pruning floor."""
    taken: list[int] = []
    for j in range(1, n):
        if taken and taken[-1] == j - 1:
            continue
        pi, pj = pair_of[j], pair_of[j + 1]
        moved = list(diff)
        moved[pi] += side_of[j]
        moved[pj] -= side_of[j + 1]
        # when pi == pj both sides count that pair twice: the test still holds
        if abs(moved[pi]) + abs(moved[pj]) > abs(diff[pi]) + abs(diff[pj]):
            diff = moved
            taken.append(j)
    return sum(map(abs, diff)), tuple(taken)


def _pick_strategy(ds: DefiningSet, strategy: str | None) -> str:
    if strategy is None:
        return "exhaustive" if ds.n_ranks <= SCAN_DEFAULT_MAX_RANKS else "frontier"
    if strategy not in STRATEGIES:
        raise InvalidInput(f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}")
    if strategy != "frontier" and ds.n_ranks > EXHAUSTIVE_MAX_RANKS:
        raise SizeRefused(
            f"{strategy} scan refused for 4t = {ds.n_ranks} > {EXHAUSTIVE_MAX_RANKS} "
            f"(F({4 * ds.t + 1}) matchings); use the frontier strategy"
        )
    return strategy


def worst_case(ds: DefiningSet, strategy: str | None = None) -> AdversaryResult:
    """Exact max of discrepancy(ds, I) over all allowed swap sets I.

    The minimal maximizer is the first minimum-size maximizer in enumeration
    order; every strategy returns identical results except for the
    engine-specific `enumerated` counter.  The scan strategies are refused
    above EXHAUSTIVE_MAX_RANKS ranks.
    """
    require_valid(ds)
    tables = rank_table(ds)
    strategy = _pick_strategy(ds, strategy)
    if strategy == "frontier":
        best_d, _m, best, count, nodes = _frontier(ds.n_ranks, *tables)
    else:
        prune = strategy == "branch_and_bound"
        floor = _greedy(ds.n_ranks, *tables)[0] if prune else -1
        best_d, _m, best, count, nodes = _kernels.scan_chunk(
            ds.n_ranks, *tables, prune, floor, -1
        )
    return AdversaryResult(
        worst_case=best_d,
        minimal_maximizer=SwapSet(best),
        maximizer_count=count,
        enumerated=nodes,
        engine=strategy,
    )


class Witnesses:
    """The witness table of worst_case_bounded for the defining sets over
    [1, n]: up to WITNESS_CAP matchings of the path on [1, n] that reached
    earlier cutoffs, each in a fixed slot, all scored on a candidate at
    once.  At the cap a new matching overwrites the oldest slot.

    A set's total after a witness's swaps is a sum over its pairs, and the
    search's candidates share few distinct pairs (525 among the 74,323 at
    t = 5).  So for every balanced pair it has met the table caches one
    packed integer whose field s holds |the pair's imbalance change| under
    the witness in slot s, keyed by the pair's partition_bits alone: four
    ranks a < b < c < d balance only as {a, d} against {b, c}, and
    swapping the roles negates the change, so the rank bitmask fixes every
    field (_fields).  The sum of a candidate's t packed integers holds
    every witness's total, one per field; adding one constant and masking
    the high bits of the filled slots compares them all with the cutoff.
    Fields are wide enough for totals up to n, so no sum carries into the
    next one.

    `push` rejects a tuple that is no matching of the path on [1, n], and
    scoring rejects a set whose 4t is not n (InvalidInput).
    """

    def __init__(self, n: int):
        self._n = require_int(n, "n", 1)
        self._full = all_ranks(n)
        self._cap = WITNESS_CAP
        width = (n + 1).bit_length() + 1
        self._width = width
        self._half = 1 << (width - 1)  # a field's high bit
        self._ones = ((1 << width * self._cap) - 1) // ((1 << width) - 1)
        self._left: list[int] = []  # per slot: bit i for each swap (i, i+1)
        self._next = 0  # the slot the next push fills: the oldest at the cap
        self._filled = 0  # high bits of the filled slots
        # the packed fields of each balanced pair met, by partition_bits
        self._packed: dict[int, int] = {}
        # check's two comparison constants, for the last valid cutoff seen
        self._cutoff: object = object()  # none yet: a value no caller holds
        self._above = self._reach = 0

    def _fields(self, bits: int, slots: Iterable[int]) -> int:
        """The fields in `slots` of the balanced pair with rank bitmask
        `bits`, packed: its odd side holds its lowest and highest rank."""
        odd = (bits & -bits) | (1 << bits.bit_length() - 1)
        even = bits ^ odd
        packed = 0
        for s in slots:
            left = self._left[s]
            right = left << 1
            packed |= abs(
                (odd & left).bit_count() - (odd & right).bit_count()
                - (even & left).bit_count() + (even & right).bit_count()
            ) << s * self._width
        return packed

    def push(self, positions: tuple[int, ...]) -> None:
        """Put `positions` in the next free slot; at the cap it overwrites
        the oldest.  Raises InvalidInput unless they are a matching in
        ascending order (require_matching) inside [1, n] (require_inside)."""
        positions = tuple(positions)
        require_matching(positions)
        require_inside(positions, self._n)
        left = sum(1 << i for i in positions)
        s = self._next
        if s == len(self._left):
            self._left.append(left)
            self._filled |= self._half << s * self._width
        else:
            self._left[s] = left
        self._next = (s + 1) % self._cap
        keep = ~(((1 << self._width) - 1) << s * self._width)
        for bits, packed in self._packed.items():
            self._packed[bits] = (packed & keep) | self._fields(bits, (s,))

    def _scores(self, ds: DefiningSet) -> int:
        """The packed totals on ds, in one pass over ds's pairs that also
        validates ds (InvalidInput, worded by validate_defining_set)."""
        n, full = self._n, self._full
        if 4 * ds.t != n:
            raise InvalidInput(f"a witness table for 4t = {n} cannot score 4t = {4 * ds.t}")
        packed = self._packed
        covered = total = 0
        for pair in ds.pairs:
            bits = pair._bits
            # every cached key is a balanced pair's bitmask of four ranks
            # within [1, n]: only a pair missing from the cache is checked
            fields = packed.get(bits)
            if fields is None:
                # -1: not built yet, and not built for a rank above n
                if bits < 0 and max(pair.elements) <= n:
                    bits = pair.partition_bits
                # an unbalanced pair, a rank above n, or a rank on both sides
                # (odd {a, b} against even {a, b} balances on two ranks)
                if not 0 < bits <= full or bits.bit_count() != 4:
                    reject_invalid(ds)
                fields = packed.get(bits)  # a twin with the same ranks may be cached
                if fields is None:
                    fields = packed[bits] = self._fields(bits, range(len(self._left)))
            covered |= bits
            total += fields
        if covered != full:
            reject_invalid(ds)
        return total

    def values(self, ds: DefiningSet) -> list[int]:
        """Each witness's total discrepancy on ds, in slot order."""
        total = self._scores(ds)
        width, mask = self._width, self._half * 2 - 1
        return [(total >> s * width) & mask for s in range(len(self._left))]

    def check(self, ds: DefiningSet, cutoff: int) -> tuple[bool, bool]:
        """Score every witness on ds against `cutoff`, validating ds first.

        Returns (beats, attains): whether some witness is above the cutoff,
        and, when none is, whether some witness is exactly at it.
        """
        total = self._scores(ds)
        # only the last valid cutoff itself reuses the constants: True == 1
        # and 1.0 == 1, but neither is 1
        if cutoff is not self._cutoff:
            require_int(cutoff, "cutoff", 0)
            # a field f gets its high bit from f + half - 1 - c exactly when
            # f > c, and from f + half - c when f >= c; no total exceeds n
            c = min(cutoff, self._n + 1)
            self._above = (self._half - 1 - c) * self._ones
            self._reach = (self._half - c) * self._ones
            self._cutoff = cutoff
        if (total + self._above) & self._filled:
            return True, False
        return False, bool((total + self._reach) & self._filled)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """The witnesses' positions, in slot order."""
        return (tuple(i for i in range(1, self._n) if left >> i & 1) for left in self._left)

    def __len__(self) -> int:
        return len(self._left)


def worst_case_bounded(
    ds: DefiningSet, cutoff: int, witnesses: Witnesses
) -> tuple[AdversaryResult | Attained | None, bool]:
    """(result, exceeded): one of three verdicts on the worst case against
    `cutoff`, without proving a tie.

    - beats: some swap set is above the cutoff; returns (None, True).
    - attains: a swap set reaches exactly the cutoff and none tried beats
      it; returns (Attained, False).  The worst case is >= cutoff, but it
      may be above: the search proves it later with one scan that stops
      at the first swap set above the cutoff.
    - below: the exact worst case is below the cutoff; returns the
      branch-and-bound scan's AdversaryResult and False.

    `witnesses` is the caller-owned Witnesses table for 4t = ds.n_ranks,
    kept across calls; the search passes one table for all its candidates.
    Every witness is scored at once before any scan, with t integer
    additions on cached per-pair fields (see Witnesses); one beating the
    cutoff wins over one only attaining it, which otherwise gives the
    verdict.  Only when neither exists are the scan tables built, and one
    branch-and-bound scan runs without a floor (-1); it stops at the first
    swap set reaching the cutoff, which is pushed into the table (one swap
    moves the total by at most 2, so that set mostly just attains the
    cutoff; on the next candidates, which share most pairs, it often beats
    it), overwriting the oldest witness at the cap.  A witness only ever
    decides a verdict as a real swap set reaching or beating the cutoff, so
    "below" and its exact result never depend on the table; which of
    "beats" and "attains" a candidate above the cutoff gets, and
    `enumerated`, the number of swap sets the scan visited, do.
    """
    beats, attains = witnesses.check(ds, cutoff)
    if beats:
        return None, True
    if attains:
        return Attained(0), False
    # the scan stops at the first value >= cutoff (at cutoff 0 it runs to the end)
    best_d, _m, best, count, nodes = _kernels.scan_chunk(
        ds.n_ranks, *rank_table(ds), True, -1, cutoff - 1
    )
    if best_d >= cutoff:
        witnesses.push(best)
    if best_d > cutoff:
        return None, True
    if best_d == cutoff:
        return Attained(nodes), False
    return (
        AdversaryResult(
            worst_case=best_d,
            minimal_maximizer=SwapSet(best),
            maximizer_count=count,
            enumerated=nodes,
            engine="branch_and_bound",
        ),
        False,
    )


def minimal_maximizer_property(ds: DefiningSet, res: AdversaryResult) -> bool:
    """Check that worst_case equals 2|I*| and that removing any single swap
    from I* lowers the discrepancy by exactly 2.

    One rank table after I*; removing the swap (i, i+1) from I* is applying
    it once more, since the swaps of I* share no rank."""
    if res.worst_case != 2 * len(res.minimal_maximizer):
        return False
    pair_of, side_of, imbalance = rank_table(ds, res.minimal_maximizer)
    for i in res.minimal_maximizer.positions:
        rest = list(imbalance)
        rest[pair_of[i]] += side_of[i]
        rest[pair_of[i + 1]] -= side_of[i + 1]
        if sum(map(abs, rest)) != res.worst_case - 2:
            return False
    return True
