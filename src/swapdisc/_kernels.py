"""The scan kernel: walks the matchings of the path graph on [1, n].

Enumerates matchings in lexicographic order (by ascending left endpoints,
shorter prefixes first) while maintaining the total discrepancy
incrementally, and tracks the maximum, the first minimum-size maximizer in
enumeration order, the number of maximizers, and the number of matchings
evaluated.  It is pure Python and runs in the calling process.
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
        swap changes the total by more than +2.
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
    return best_d, best_m, best, count, nodes, abandoned
