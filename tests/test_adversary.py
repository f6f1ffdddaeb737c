"""Adversary: enumeration order/counts and exact worst-case results,
cross-checked against the brute-force oracle."""

from random import Random

import pytest

from naive_oracles import fib, naive_swap_sets, naive_worst_case
from swapdisc.adversary import (
    AdversaryResult,
    all_maximizers,
    count_swap_sets,
    enumerate_swap_sets,
    minimal_maximizer_property,
    worst_case,
    worst_case_bounded,
)
from swapdisc.construct import base_case, construct_for_z
from swapdisc.core import (
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    reflect,
)
from swapdisc.optsearch import enumerate_balanced, random_balanced


# -------------------------------------------------------------- enumeration

def test_enumerate_t1_exact_listing():
    got = [s.positions() for s in enumerate_swap_sets(1)]
    assert got == [(), (1,), (1, 3), (2,), (3,)]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_enumeration_count_is_fibonacci(t):
    n = sum(1 for _ in enumerate_swap_sets(t))
    assert n == count_swap_sets(t) == fib(4 * t + 1)


def test_t4_count_value():
    assert count_swap_sets(4) == 1597


def test_enumeration_matches_oracle_order():
    got = [s.positions() for s in enumerate_swap_sets(2)]
    assert got == naive_swap_sets(8)
    assert len(got) == len(set(got)) == 34


# --------------------------------------------------------------- worst case

def test_worst_case_optimal_t2(opt2):
    res = worst_case(opt2)
    assert res.worst_case == 4
    assert res.minimal_maximizer.positions() == (1, 5)
    assert worst_case(opt2, strategy="exhaustive").enumerated == fib(9)


def test_worst_case_suboptimal_t2(sub2):
    assert worst_case(sub2).worst_case == 6


def test_worst_case_base_case_is_6():
    res = worst_case(base_case())
    assert res.worst_case == 6
    assert worst_case(base_case(), strategy="exhaustive").enumerated == 1597
    assert len(res.minimal_maximizer) == 3


def test_worst_case_t1(t1):
    res = worst_case(t1)
    assert res.worst_case == 2
    assert res.minimal_maximizer.positions() == (1,)
    assert res.maximizer_count == 2


def test_rejects_invalid_and_unbalanced():
    with pytest.raises(InvalidInput):
        worst_case(defining_set(1, (({1, 3}, {2, 4}),)))


def test_exhaustive_size_refusal():
    ds = construct_for_z(4)  # t=19, 4t=76
    with pytest.raises(SizeRefused):
        worst_case(ds, strategy="exhaustive")


def test_strategies_and_workers_agree_everywhere():
    rng = Random(5)
    pool = (
        list(enumerate_balanced(2))
        + [random_balanced(3, rng) for _ in range(12)]
        + [random_balanced(4, rng) for _ in range(6)]
    )
    for ds in pool:
        rx = worst_case(ds, strategy="exhaustive")
        rb = worst_case(ds, strategy="branch_and_bound")
        assert rx.worst_case == rb.worst_case
        assert rx.minimal_maximizer == rb.minimal_maximizer
        assert rx.maximizer_count == rb.maximizer_count
    big = random_balanced(4, Random(6))
    seq = worst_case(big, workers=1)
    par = worst_case(big, workers=2)
    assert seq == par


def test_enumerated_counter_deterministic_across_workers():
    # branch-and-bound prunes with chunk-local floors only, so even the
    # node counter is reproducible for any worker count
    ds = random_balanced(4, Random(14))
    results = [worst_case(ds, strategy="branch_and_bound", workers=w) for w in (1, 2, 3)]
    assert results[0] == results[1] == results[2]


def test_worst_case_matches_oracle_on_all_t2_and_random_t3_t4():
    rng = Random(17)
    pool = (
        list(enumerate_balanced(2))
        + [random_balanced(3, rng) for _ in range(8)]
        + [random_balanced(4, rng) for _ in range(2)]
    )
    for ds in pool:
        res = worst_case(ds)
        naive_pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
        best, best_set, count, total = naive_worst_case(naive_pairs, ds.t)
        assert res.worst_case == best
        assert res.minimal_maximizer.positions() == best_set
        assert res.maximizer_count == count
        assert worst_case(ds, strategy="exhaustive").enumerated == total


def test_worst_case_reflection_invariant_t2():
    for ds in enumerate_balanced(2):
        assert worst_case(ds).worst_case == worst_case(reflect(ds)).worst_case


def test_worst_case_at_least_two():
    for t in (1, 2):
        for ds in enumerate_balanced(t):
            assert worst_case(ds).worst_case >= 2


# --------------------------------------------------- minimal maximizer, Eq 8

def test_minimal_maximizer_property_examples(opt2):
    res = worst_case(opt2)
    assert res.worst_case == 2 * len(res.minimal_maximizer) == 4
    assert minimal_maximizer_property(opt2, res)

    res4 = worst_case(base_case())
    assert res4.worst_case == 2 * len(res4.minimal_maximizer) == 6
    assert minimal_maximizer_property(base_case(), res4)


def test_minimal_maximizer_property_rejects_padded_maximizer(t1):
    fake = AdversaryResult(
        worst_case=2,
        minimal_maximizer=SwapSet.from_positions((1, 3)),
        maximizer_count=2,
        enumerated=5,
    )
    # {(1,2),(3,4)} has discrepancy 0, not 2; and 2 != 2*2
    assert not minimal_maximizer_property(t1, fake)


def test_all_maximizers_t1(t1):
    maxima = all_maximizers(t1)
    assert [m.positions() for m in maxima] == [(1,), (3,)]


def test_all_maximizers_refusal():
    with pytest.raises(SizeRefused):
        all_maximizers(construct_for_z(3))


# ------------------------------------------------------------- bounded scan

def test_bounded_scan_exceeded_and_exact(sub2):
    res, exceeded = worst_case_bounded(sub2, cutoff=4)
    assert exceeded and res is None
    res, exceeded = worst_case_bounded(sub2, cutoff=6)
    assert not exceeded
    assert res.worst_case == 6
    full = worst_case(sub2)
    assert res.minimal_maximizer == full.minimal_maximizer
    assert res.maximizer_count == full.maximizer_count
