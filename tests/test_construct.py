"""Recursive construction, bounds, and the recursion inequality."""

from fractions import Fraction

import pytest

from swapdisc.adversary import worst_case
from swapdisc.construct import (
    base_case,
    check_lemma1,
    construct_for_z,
    lower_bound,
    recursive_step,
    t_for_z,
    upper_bound,
    upper_bound_for_t,
    z_for_t,
)
from swapdisc.core import (
    CompanionPair,
    InvalidInput,
    SizeRefused,
    validate_defining_set,
)

EQ5_PAIRS = (
    ({1, 16}, {8, 9}),
    ({2, 7}, {4, 5}),
    ({10, 15}, {12, 13}),
    ({3, 14}, {6, 11}),
)


def test_base_case_exact_sets():
    ds = base_case()
    assert ds.t == 4
    for pair, (odd, even) in zip(ds.pairs, EQ5_PAIRS):
        assert pair.odd == frozenset(odd)
        assert pair.even == frozenset(even)
    assert validate_defining_set(ds).ok


def test_base_case_worst_case_6():
    assert worst_case(base_case()).worst_case == 6


def test_family_parameters():
    assert [t_for_z(z) for z in (2, 3, 4, 5)] == [4, 9, 19, 39]
    assert z_for_t(19) == 4
    assert z_for_t(10) is None
    with pytest.raises(InvalidInput):
        t_for_z(1)


def test_recursive_step_t9_layout():
    ds = recursive_step(base_case(), 2)
    assert ds.t == 9
    closing = ds.pairs[-1]
    assert closing.odd == frozenset({1, 36})
    assert closing.even == frozenset({18, 19})
    # the two copies occupy disjoint symmetric intervals
    copy1 = set().union(*(p.elements for p in ds.pairs[:4]))
    copy2 = set().union(*(p.elements for p in ds.pairs[4:8]))
    assert copy1 == set(range(2, 18))
    assert copy2 == set(range(20, 36))
    assert validate_defining_set(ds).ok


def test_recursive_step_rejects_wrong_level():
    ds9 = recursive_step(base_case(), 2)
    with pytest.raises(InvalidInput):
        recursive_step(ds9, 2)


@pytest.mark.parametrize("z,t,top", [(2, 4, 16), (3, 9, 36), (4, 19, 76), (5, 39, 156)])
def test_construct_levels_valid(z, t, top):
    ds = construct_for_z(z)
    assert ds.t == t
    assert ds.n_ranks == top
    assert validate_defining_set(ds).ok


def test_construct_z2_is_base_case():
    assert construct_for_z(2) == base_case()


def test_construct_rejects_small_z_and_huge_z():
    with pytest.raises(InvalidInput):
        construct_for_z(1)
    with pytest.raises(SizeRefused):
        construct_for_z(6, max_ranks=100)


def test_shifted_copies_reproduce_previous_level():
    for z in (2, 3, 4):
        prev = construct_for_z(z)
        nxt = construct_for_z(z + 1)
        t2 = prev.t
        shift2 = 5 * 2**z - 1
        assert nxt.pairs[:t2] == tuple(p.translate(1) for p in prev.pairs)
        assert nxt.pairs[t2 : 2 * t2] == tuple(p.translate(shift2) for p in prev.pairs)


def test_closing_pair_sums():
    # level z closes with both sums equal to 5*2^z - 3 (incl. the base case)
    for z in (2, 3, 4, 5, 6):
        ds = construct_for_z(z)
        last = ds.pairs[-1]
        assert last.sum_odd == last.sum_even == 5 * 2**z - 3


def test_lower_bound_values():
    assert lower_bound(2) == Fraction(2)
    assert lower_bound(1) == Fraction(1, 2)
    assert lower_bound(9) == Fraction(25, 2)


def test_upper_bound_values():
    assert upper_bound(2) == 6
    assert upper_bound(3) == 14
    assert upper_bound(4) == 30
    assert upper_bound_for_t(19) == 30
    with pytest.raises(InvalidInput):
        upper_bound_for_t(10)


@pytest.mark.parametrize("z", [3, 4])
def test_lemma1_beyond_the_scan_envelope(z):
    rep = check_lemma1(z)
    assert rep.d_z == 2 ** (z + 1) - 2
    assert rep.d_z_plus_1 == 2 ** (z + 2) - 2 == rep.bound
    assert rep.holds


def test_worst_case_within_upper_bound_at_base_level():
    assert worst_case(construct_for_z(2)).worst_case <= upper_bound(2)


def test_closing_pair_balanced_generic():
    # the recursive step's closing pair balances for any level
    for z in (2, 3, 4, 5):
        odd = {1, 5 * 2 ** (z + 1) - 4}
        even = {5 * 2**z - 2, 5 * 2**z - 1}
        assert sum(odd) == sum(even) == 5 * 2 ** (z + 1) - 3
        CompanionPair(frozenset(odd), frozenset(even))
