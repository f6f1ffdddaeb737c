"""The scan kernel: walks the matchings of the path graph on [1, n].

Enumerates matchings in lexicographic order (by ascending left endpoints,
shorter prefixes first) while maintaining the total discrepancy
incrementally, and tracks the maximum, the first minimum-size maximizer in
enumeration order, the number of maximizers, and the number of matchings
evaluated.  The walk is one loop over an explicit stack of swap positions.
With pruning it skips a child whose optimistic bound falls below the floor,
and ends a node's loop over positions at the first position from which no
child can pass that test.  It is pure Python and runs in the calling
process.
"""

from __future__ import annotations


def backend_name() -> str:
    """The scan kernel's name: "pure", the only kernel there is."""
    return "pure"


def scan_chunk(
    n: int,
    pair_of,
    side_of,
    diff,
    prune: bool,
    best_floor: int,
    abandon_above: int,
):
    """Scan every matching of the path on [1, n].

    pair_of, side_of, diff: the tables of core.rank_table.  pair_of[r] and
        side_of[r] (+1 odd, -1 even) locate rank r for r in 1..n; index 0
        is unused and no index above n is read.  diff holds the pairs'
        signed imbalances before any swap of the scan; it is copied, not
        changed.
    prune: skip subtrees whose optimistic bound (+2 per placeable swap) falls
        strictly below max(best_floor, best found so far); sound because no
        swap changes the total by more than +2.  A node with total d stops
        trying positions at the first j with d + 2 * ((n - j + 1) // 2)
        below that floor: the swap at j raises d by at most 2, so its child
        fails the test, and so does every later one, since the bound only
        shrinks as j grows and the floor only rises.  So the scan visits
        exactly the matchings that the subtree test alone lets through.
    best_floor: an already-attained discrepancy (e.g. a known swap set's), or -1.
    abandon_above: if >= 0, stop as soon as any matching exceeds it.

    Returns (best_d, best_size, best_positions, count, nodes, abandoned):
    the maximum discrepancy seen, the size and left endpoints of the first
    minimum-size maximizer, how many evaluated matchings attained best_d,
    the number of matchings evaluated, and whether the scan abandoned early.
    """
    diff = list(diff)
    d = 0
    for v in diff:
        d += abs(v)
    cur: list[int] = []  # the current matching's positions, the walk's stack

    best_d = -1
    best_m = -1
    best: tuple[int, ...] = ()
    count = 0
    nodes = 0

    j = 1  # the next position to try at the current node
    while True:
        nodes += 1
        if d > best_d:
            best_d, best_m, best, count = d, len(cur), tuple(cur), 1
        elif d == best_d:
            count += 1
            if len(cur) < best_m:
                best_m, best = len(cur), tuple(cur)
        if 0 <= abandon_above < d:
            return best_d, best_m, best, count, nodes, True
        while True:
            floor_eff = best_floor if best_floor > best_d else best_d
            if j < n and not (prune and d + 2 * ((n - j + 1) // 2) < floor_eff):
                # the swap at j moves rank j's pair by si and rank j+1's by
                # sj; for s = +-1, |x + s| - |x| is 1 when x * s >= 0, else -1
                pi, si = pair_of[j], side_of[j]
                pj, sj = pair_of[j + 1], -side_of[j + 1]
                x = diff[pi]
                d += 1 if x * si >= 0 else -1
                diff[pi] = x + si
                x = diff[pj]
                d += 1 if x * sj >= 0 else -1
                diff[pj] = x + sj
                if not prune or d + 2 * ((n - j - 1) // 2) >= floor_eff:
                    cur.append(j)
                    j += 2
                    break  # visit the child
            elif cur:
                j = cur.pop()  # the node is done: back to its parent
                pi, si = pair_of[j], side_of[j]
                pj, sj = pair_of[j + 1], -side_of[j + 1]
            else:
                return best_d, best_m, best, count, nodes, False
            # undo the swap at j: |x - s| - |x| is 1 when x * s <= 0, else -1
            x = diff[pj]
            d += 1 if x * sj <= 0 else -1
            diff[pj] = x - sj
            x = diff[pi]
            d += 1 if x * si <= 0 else -1
            diff[pi] = x - si
            j += 1
