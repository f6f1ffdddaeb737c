"""The scan kernel module.

The scan is checked directly against `reference_scan` in
tests/naive_oracles.py, the recursive kernel that tests every position of
a node against the pruning bound: all five return values must agree, with
pruning on and off, for pruning floors and abandon thresholds, and on
unbalanced starts.  A scan abandons exactly when the threshold is set and
its best total passes it: otherwise the threshold changes nothing.  It is also checked through the engines that call it:
against the naive oracle and the frontier DP (tests/test_frontier.py) and
in abandon mode by the worst_case_bounded tests (tests/test_adversary.py).
A floor that no swap set attains, as the search's tie proofs pass, must
still let through every swap set above it.
"""

from random import Random

import pytest

from naive_oracles import reference_scan
from swapdisc import _kernels
from swapdisc.adversary import worst_case
from swapdisc.core import rank_table
from swapdisc.optsearch import enumerate_balanced, random_balanced

# (best_floor, abandon_above): no floor, floors below, at and above the
# abandon threshold, and a zero threshold that abandons at the first swap
BOUNDS = [(-1, -1), (4, 5), (6, 6), (8, 7), (0, 0), (12, -1), (2, 10)]


def test_backend_selected():
    assert _kernels.backend_name() == "pure"


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_scan_matches_the_reference_kernel(t):
    rng = Random(100 + t)
    n = 4 * t
    for _ in range(6 if t < 5 else 2):
        pair_of, side_of, diff = rank_table(random_balanced(t, rng))
        unbalanced = [rng.randint(-6, 6) for _ in diff]
        for start in (diff, unbalanced):
            for prune in (False, True):
                for floor, abandon in BOUNDS:
                    args = (n, pair_of, side_of, start, prune, floor, abandon)
                    got = _kernels.scan_chunk(*args)
                    assert got == reference_scan(*args), args
                    unbounded = _kernels.scan_chunk(*args[:-1], -1)
                    if 0 <= abandon < got[0]:
                        # stopped at the first matching above the threshold,
                        # on the walk of the scan without one
                        assert got[3] == 1 and got[4] <= unbounded[4], args
                        assert got[0] <= unbounded[0], args
                    else:
                        assert got == unbounded, args


def test_scan_leaves_its_tables_unchanged():
    pair_of, side_of, diff = rank_table(random_balanced(3, Random(5)))
    tables = (list(pair_of), list(side_of), list(diff))
    _kernels.scan_chunk(12, pair_of, side_of, diff, True, -1, 3)
    assert (pair_of, side_of, diff) == tables


def test_unattained_floor_prunes_soundly():
    # floor c + 1 is attained by no swap set when the worst case is c or
    # less; the scan must still find a swap set above c whenever one exists
    rng = Random(36)
    sets = list(enumerate_balanced(3))
    sets += [random_balanced(4, rng) for _ in range(40)]
    sets += [random_balanced(5, rng) for _ in range(10)]
    for ds in sets:
        exact = worst_case(ds).worst_case
        tables = rank_table(ds)
        for c in range(exact + 3):
            passed = _kernels.scan_chunk(ds.n_ranks, *tables, True, c + 1, c)[0] > c
            assert passed == (exact > c), (ds, c)
