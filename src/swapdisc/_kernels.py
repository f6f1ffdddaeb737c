"""The scan kernel, scan_chunk: one pure-Python loop over an explicit
stack that walks the matchings of the path graph on [1, n] in the calling
process, keeping the total discrepancy up to date swap by swap.
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
    """Scan every matching of the path on [1, n] in lexicographic order
    (ascending left endpoints, shorter prefixes first).

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
        Both slacks and each swap's moves come from per-position lists
        built once per call.  A child's total is known before its second
        pair's imbalance is written, so a child failing the test costs one
        write to undo, and leaving a child restores the values saved when
        it was entered.
    best_floor: an already-attained discrepancy (e.g. a known swap set's), or -1.
    abandon_above: if >= 0, stop as soon as any matching exceeds it.

    Returns (best_d, best_size, best_positions, count, nodes): the maximum
    discrepancy seen, the size and left endpoints of the first minimum-size
    maximizer, how many evaluated matchings attained best_d, and the number
    of matchings evaluated.  The scan abandoned early exactly when
    abandon_above >= 0 and best_d > abandon_above.
    """
    diff = list(diff)
    d = sum(map(abs, diff))
    top = d + n  # no total exceeds it: a swap adds at most 2, and at most n/2 fit
    # 2 per swap fitting in [j, n] for the node trying j (a sentinel past n - 1
    # ends its loop), and in [j + 2, n] for that node's child
    here = [2 * ((n - j + 1) // 2) for j in range(n)] + [-top - 2] * 2
    after = [2 * ((n - j - 1) // 2) for j in range(n)]
    # max(best_floor, best_d), raised as best_d rises; -1, passed by every
    # bound, without pruning
    floor = best_floor if prune and best_floor > -1 else -1
    stop = abandon_above if abandon_above >= 0 else top
    # per position j: the pairs of ranks j and j + 1, and how the swap at j
    # moves each pair's imbalance
    moves = [None] + [
        (pair_of[j], side_of[j], pair_of[j + 1], -side_of[j + 1]) for j in range(1, n)
    ]
    cur: list[int] = []  # the current matching's positions, the walk's stack
    undo: list[tuple[int, ...]] = []  # per swap on it: d, pi, x, pj, y before it
    best_d, best_m, best, count, nodes = -1, -1, (), 0, 0

    j = 1  # the next position to try at the current node
    while True:
        nodes += 1
        if d > best_d:
            best_d, best_m, best, count = d, len(cur), tuple(cur), 1
            if d > stop:
                return best_d, best_m, best, count, nodes
            if prune and d > floor:
                floor = d
        elif d == best_d:
            count += 1
            if len(cur) < best_m:
                best_m, best = len(cur), tuple(cur)
        while True:
            if d + here[j] >= floor:
                # the swap at j moves rank j's pair by si and rank j+1's by
                # sj; for s = +-1, |x + s| - |x| is 1 when x * s >= 0, else -1
                pi, si, pj, sj = moves[j]
                x = diff[pi]
                e = d + 1 if x * si >= 0 else d - 1
                diff[pi] = x + si
                y = diff[pj]  # after the first write: pj may be pi
                e += 1 if y * sj >= 0 else -1
                if e + after[j] >= floor:
                    diff[pj] = y + sj
                    undo.append((d, pi, x, pj, y))
                    d = e
                    cur.append(j)
                    j += 2
                    break  # visit the child
                diff[pi] = x  # the child fails the test: only one write to undo
                j += 1
            elif cur:
                j = cur.pop()  # the node is done: back to its parent
                # undo the swap at j, its second write first: pj may be pi
                d, pi, x, pj, y = undo.pop()
                diff[pj] = y
                diff[pi] = x
                j += 1
            else:
                return best_d, best_m, best, count, nodes
