"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written from the definitions with itertools
and literal set manipulation, sharing no code with the package internals.
The one exception is `reference_scan`, the scan kernel in its plain
recursive form, kept as the reference for the optimized kernel; and
`mirror` builds its image with the package's public `defining_set`, so
that the tests can hand it to the engines.  `in_of`, `out_of` and `d_of`
count straight from the arcs and edges of the package's graph records, one
node set at a time: the reference for `graphs.tally`.  Only usable at
small t.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

from swapdisc.core import defining_set


def fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return b if k >= 2 else 1


def naive_swap_sets(n: int) -> list[tuple[int, ...]]:
    """All matchings of the path on [1, n] as sorted left-endpoint tuples,
    in lexicographic order (shorter prefixes first)."""
    out = []
    for size in range(n // 2 + 1):
        for combo in combinations(range(1, n), size):
            if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                out.append(combo)
    out.sort()
    return out


def naive_apply(pairs, swaps):
    """pairs: [(odd_set, even_set), ...] with plain sets; swaps: iterable of
    left endpoints.  Moves elements by literal membership tests."""
    pairs = [(set(o), set(e)) for o, e in pairs]
    for i in swaps:
        j = i + 1
        loc_i = loc_j = None
        for k, (o, e) in enumerate(pairs):
            if i in o:
                loc_i = (k, 0)
            if i in e:
                loc_i = (k, 1) if loc_i is None else loc_i
            if j in o:
                loc_j = (k, 0)
            if j in e:
                loc_j = (k, 1) if loc_j is None else loc_j
        (ki, si), (kj, sj) = loc_i, loc_j
        pairs[ki][si].remove(i)
        pairs[kj][sj].remove(j)
        pairs[ki][si].add(j)
        pairs[kj][sj].add(i)
    return pairs


def naive_discrepancy(pairs, swaps) -> int:
    moved = naive_apply(pairs, swaps)
    return sum(abs(sum(o) - sum(e)) for o, e in moved)


def naive_worst_case(pairs, t: int):
    """(max discrepancy, first minimum-size maximizer in lex order, number of
    maximizers, total swap sets) by full enumeration."""
    best = -1
    best_set = None
    count = 0
    sets = naive_swap_sets(4 * t)
    for swaps in sets:
        d = naive_discrepancy(pairs, swaps)
        if d > best:
            best, best_set, count = d, swaps, 1
        elif d == best:
            count += 1
            if len(swaps) < len(best_set):
                best_set = swaps
    return best, best_set, count, len(sets)


def naive_balanced_sets(t: int) -> set[tuple]:
    """All balanced defining sets in canonical form, found by partitioning
    [1, 4t] into quadruples via itertools and keeping the balanced ones.

    Canonical representation: tuple of (frozenset(odd), frozenset(even))
    sorted by quadruple minimum, odd set holding the minimum.
    """
    out: set[tuple] = set()

    def rec(remaining: tuple[int, ...], acc: list):
        if not remaining:
            out.add(tuple(sorted(acc, key=lambda oe: min(oe[0]))))
            return
        m = remaining[0]
        for rest3 in combinations(remaining[1:], 3):
            l2, l3, l4 = sorted(rest3)
            if m + l4 == l2 + l3:
                left = tuple(x for x in remaining if x not in (m, l2, l3, l4))
                rec(left, acc + [(frozenset({m, l4}), frozenset({l2, l3}))])

    rec(tuple(range(1, 4 * t + 1)), [])
    return out


def mirror(ds):
    """ds under the reflection x -> 4t + 1 - x of its ranks, each pair's
    roles and the pairs' order kept.  The image of a swap (i, i + 1) is
    (4t - i, 4t + 1 - i)."""
    m = 4 * ds.t + 1
    return defining_set(
        ds.t, [({m - x for x in p.odd}, {m - x for x in p.even}) for p in ds.pairs]
    )


def side_by_side(ds, k: int):
    """k copies of ds on consecutive blocks of 4t ranks, copy j shifted by
    4t * j."""
    n = 4 * ds.t
    return defining_set(k * ds.t, [
        ({x + n * j for x in p.odd}, {x + n * j for x in p.even})
        for j in range(k) for p in ds.pairs
    ])


def naive_pot_arcs(pairs, swaps, t: int, membership: str = "original"):
    """Potential-graph arcs by literally scanning every ordered node pair
    for each potential swap: membership on the original sets (or on the
    primed sets with membership="primed"), sums on the primed sets.
    pairs: [(odd set, even set), ...]; swaps: left endpoints.

    Returns a sorted list of (tail, head, (i, i+1), cond) with nodes 1..t,
    head 0 for the virtual node, cond in 1..6 or 'b1'/'b2'.
    """
    n = 4 * t
    primed = naive_apply(pairs, swaps)
    member = {"original": pairs, "primed": primed}[membership]
    pdiff = [sum(o) - sum(e) for o, e in primed]
    arcs = []
    taken = set(swaps)
    for i in range(1, n):
        if i in taken:
            continue
        j = i + 1
        for i1 in range(t):
            odd1, even1 = member[i1]
            d1 = pdiff[i1]
            for i2 in range(t):
                union2 = member[i2][0] | member[i2][1]
                if i in even1 and j in union2 - even1 and d1 < 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 1))
                if j in even1 and i in union2 - even1 and d1 > 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 2))
                if i in odd1 and j in union2 - odd1 and d1 > 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 3))
                if j in odd1 and i in union2 - odd1 and d1 < 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 4))
                if i in odd1 and j in union2 - odd1 and d1 == 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 5))
                if j in even1 and i in union2 - even1 and d1 == 0:
                    arcs.append((i1 + 1, i2 + 1, (i, j), 6))

    def simulate(rank, bump):
        for k, (o, e) in enumerate(primed):
            if rank in o:
                return k, pdiff[k] + bump
            if rank in e:
                return k, pdiff[k] - bump

    for i1 in range(t):
        odd1, even1 = member[i1]
        if 1 in odd1 | even1:
            if pdiff[i1] != 0:
                loc, new = simulate(1, -1)
                old = pdiff[i1]
                if (abs(new) if loc == i1 else abs(old)) > abs(old):
                    arcs.append((i1 + 1, 0, (0, 1), "b1"))
            elif 1 in even1:
                arcs.append((i1 + 1, 0, (0, 1), "b2"))
        if n in odd1 | even1:
            if pdiff[i1] != 0:
                loc, new = simulate(n, +1)
                old = pdiff[i1]
                if (abs(new) if loc == i1 else abs(old)) > abs(old):
                    arcs.append((i1 + 1, 0, (n, n + 1), "b1"))
            elif n in odd1:
                arcs.append((i1 + 1, 0, (n, n + 1), "b2"))
    return sorted(arcs, key=lambda a: (a[2], str(a[3])))


def in_of(pot, nodes) -> int:
    """Arcs entering the node set from outside it (v0 is node 0)."""
    s = set(nodes)
    return sum(1 for a in pot.arcs if a.head in s and a.tail not in s)


def out_of(pot, nodes) -> int:
    """Arcs leaving the node set."""
    s = set(nodes)
    return sum(1 for a in pot.arcs if a.tail in s and a.head not in s)


def d_of(swp, nodes) -> int:
    """Swap edges with an endpoint in the node set; a self-loop counts once."""
    s = set(nodes)
    return sum(1 for e in swp.edges if e.u in s or e.v in s)


def random_swap_positions(t: int, rng: Random, density: float = 0.45) -> tuple[int, ...]:
    """A random matching of the path on [1, 4t]."""
    taken = set()
    picks = []
    for i in range(1, 4 * t):
        if i in taken or i + 1 in taken:
            continue
        if rng.random() < density:
            picks.append(i)
            taken.update((i, i + 1))
    return tuple(picks)


def naive_is_matching(positions, n: int) -> bool:
    """Whether `positions` are the left endpoints, ascending, of a matching
    of the path on [1, n]."""
    return all(1 <= i < n for i in positions) and all(
        b - a >= 2 for a, b in zip(positions, positions[1:])
    )


def list_bounded_verdict(pairs, t: int, cutoff: int, witnesses: list, cap: int):
    """The bounded worst case with a plain list of fixed witness slots: the
    reference for the search's witness table.

    `witnesses` holds (push stamp, positions) entries in slot order.  Tries
    them in slot order (a tuple that is no matching of [1, 4t] counts as -1):
    one above the cutoff beats it, and nothing moves; otherwise the first at
    the cutoff attains it.  Failing both, the scan is modelled on the full
    enumeration: at cutoff 0 it runs to the end and returns the first
    minimum-size maximizer, above 0 it stops at the first swap set in
    enumeration order reaching the cutoff.  A scan reaching the cutoff pushes
    its swap set: appended below `cap`, at the cap it overwrites the entry
    with the smallest stamp.  Mutates `witnesses`; returns ("beats", None),
    ("attains", positions) or ("below", (worst case, first minimum-size
    maximizer, maximizer count)).
    """
    n = 4 * t
    attained = None
    for _stamp, positions in witnesses:
        value = naive_discrepancy(pairs, positions) if naive_is_matching(positions, n) else -1
        if value > cutoff:
            return "beats", None
        if value == cutoff and attained is None:
            attained = positions
    if attained is not None:
        return "attains", attained
    best, best_set, count, _total = naive_worst_case(pairs, t)
    if best < cutoff:
        return "below", (best, best_set, count)
    if cutoff > 0:
        best_set, best = next(
            (s, d) for s in naive_swap_sets(n) if (d := naive_discrepancy(pairs, s)) >= cutoff
        )
    entry = (1 + max((stamp for stamp, _ in witnesses), default=-1), best_set)
    if len(witnesses) < cap:
        witnesses.append(entry)
    else:
        witnesses[min(range(cap), key=lambda k: witnesses[k][0])] = entry
    return ("beats", None) if best > cutoff else ("attains", best_set)


def _ordered_completions(remaining: tuple[int, ...]):
    """(l2, l3, l4) choices pairing remaining[0] into a balanced quadruple,
    in ascending (l2, l3) order: balance forces l4 = l2 + l3 - min."""
    m = remaining[0]
    rest = remaining[1:]
    pool = set(rest)
    for i2, l2 in enumerate(rest):
        for l3 in rest[i2 + 1 :]:
            if l2 + l3 - m in pool:
                yield l2, l3, l2 + l3 - m


def ordered_balanced_sets(t: int):
    """The balanced defining sets over [1, 4t] as lists of (odd, even)
    frozenset pairs, in the search's order: a tuple recursion that always
    pairs the smallest remaining rank and tries its partners in ascending
    (l2, l3) order."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield []
            return
        m = remaining[0]
        for l2, l3, l4 in _ordered_completions(remaining):
            rest = tuple(x for x in remaining if x not in (m, l2, l3, l4))
            for tail in rec(rest):
                yield [(frozenset({m, l4}), frozenset({l2, l3}))] + tail

    yield from rec(tuple(range(1, 4 * t + 1)))


def ordered_random_balanced(t: int, rng: Random):
    """One balanced set drawn by randomized backtracking, as (odd, even)
    frozenset pairs: at each step the completions of the smallest remaining
    rank, in ascending (l2, l3) order, are shuffled with rng and tried in
    turn."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            return []
        m = remaining[0]
        options = list(_ordered_completions(remaining))
        rng.shuffle(options)
        for l2, l3, l4 in options:
            tail = rec(tuple(x for x in remaining if x not in (m, l2, l3, l4)))
            if tail is not None:
                return [(frozenset({m, l4}), frozenset({l2, l3}))] + tail
        return None

    return rec(tuple(range(1, 4 * t + 1)))


def reference_scan(n, pair_of, side_of, diff, prune, best_floor, abandon_above):
    """The scan kernel as a recursive walk that tests every position of a
    node against the pruning bound: the reference for _kernels.scan_chunk,
    which ends a node's loop early and walks with an explicit stack.  Same
    arguments and the same (best_d, best_size, best_positions, count,
    nodes) result."""
    diff = list(diff)
    d = sum(abs(v) for v in diff)
    cur: list[int] = []

    best_d = -1
    best_m = -1
    best: tuple[int, ...] = ()
    count = 0
    nodes = 0
    abandoned = False

    def visit(i: int) -> None:
        nonlocal d, best_d, best_m, best, count, nodes, abandoned
        nodes += 1
        m = len(cur)
        if d > best_d:
            best_d, best_m, best, count = d, m, tuple(cur), 1
        elif d == best_d:
            count += 1
            if m < best_m:
                best_m, best = m, tuple(cur)
        if 0 <= abandon_above < d:
            abandoned = True
            return
        j = i
        while j < n:
            pi, si = pair_of[j], side_of[j]
            d -= abs(diff[pi])
            diff[pi] += si
            d += abs(diff[pi])
            pj, sj = pair_of[j + 1], side_of[j + 1]
            d -= abs(diff[pj])
            diff[pj] -= sj
            d += abs(diff[pj])
            cur.append(j)

            floor_eff = best_floor if best_floor > best_d else best_d
            if not prune or d + 2 * ((n - j - 1) // 2) >= floor_eff:
                visit(j + 2)

            cur.pop()
            d -= abs(diff[pj])
            diff[pj] += sj
            d += abs(diff[pj])
            d -= abs(diff[pi])
            diff[pi] -= si
            d += abs(diff[pi])
            if abandoned:
                return
            j += 1

    visit(1)
    return best_d, best_m, best, count, nodes
