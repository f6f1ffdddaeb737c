"""Frontier DP engine: field-by-field agreement with the exhaustive scan and
the brute-force oracle, reflection invariance, the state cap, construction
levels beyond the scan's reach, and the worker-count helper."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import naive_worst_case
from swapdisc import _kernels, adversary
from swapdisc.adversary import _arrays, _frontier, pool_size, worst_case
from swapdisc.construct import base_case, construct_for_z
from swapdisc.core import (
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    discrepancy,
    reflect,
    reflect_swaps,
)
from swapdisc.optsearch import enumerate_balanced, find_optimal, random_balanced


def fields(res):
    return res.worst_case, res.minimal_maximizer, res.maximizer_count


def naive_fields(ds):
    pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
    best, best_set, count, _total = naive_worst_case(pairs, ds.t)
    return best, best_set, count


def assert_matches_oracles(ds, naive=True):
    fr = worst_case(ds, strategy="frontier")
    assert fr.engine == "frontier"
    assert fields(fr) == fields(worst_case(ds, strategy="exhaustive"))
    if naive:
        assert (fr.worst_case, fr.minimal_maximizer.positions(), fr.maximizer_count) == (
            naive_fields(ds)
        )


@pytest.mark.parametrize("t", [1, 2, 3])
def test_frontier_matches_oracles_on_every_balanced_set(t):
    pool = list(enumerate_balanced(t))
    assert len(pool) == {1: 1, 2: 6, 3: 86}[t]
    for ds in pool:
        assert_matches_oracles(ds)


@pytest.mark.parametrize(
    "t, seed, n_sets, naive",
    [(4, 104, 8, True), (5, 3, 1, True), (5, 105, 4, False), (6, 106, 2, False)],
)
def test_frontier_matches_oracles_on_random_sets(t, seed, n_sets, naive):
    rng = Random(seed)
    for _ in range(n_sets):
        assert_matches_oracles(random_balanced(t, rng), naive)


def random_partition(t, rng):
    """A defining set over [1, 4t] whose pairs are generally unbalanced."""
    ranks = list(range(1, 4 * t + 1))
    rng.shuffle(ranks)
    return DefiningSet(
        t,
        tuple(
            CompanionPair(frozenset(ranks[k : k + 2]), frozenset(ranks[k + 2 : k + 4]))
            for k in range(0, 4 * t, 4)
        ),
    )


def full_scan(n, pair_of, side_of, diff):
    best_d, best_m, best, count, _nodes, _ab = _kernels.scan_chunk(
        n, pair_of, side_of, diff, (), 1, False, -1, -1
    )
    return best_d, best_m, best, count


def test_frontier_on_unbalanced_partitions_matches_naive_and_scan():
    rng = Random(23)
    for t in (1, 2, 3, 4):
        for _ in range(6):
            ds = random_partition(t, rng)
            arrays = _arrays(ds)
            best_d, best_m, best, count, _states = _frontier(*arrays)
            assert (best_d, best, count) == naive_fields(ds)
            assert (best_d, best_m, best, count) == full_scan(*arrays)


def test_frontier_on_arbitrary_starting_imbalances_matches_scan():
    rng = Random(31)
    for t in (1, 2, 3, 4, 5):
        for _ in range(6):
            n, pair_of, side_of, diff = _arrays(random_balanced(t, rng))
            diff = [rng.randint(-4, 4) for _ in diff]
            got = _frontier(n, pair_of, side_of, diff)
            assert got[:4] == full_scan(n, pair_of, side_of, diff)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 6), seed=st.integers(0, 10**9))
def test_frontier_invariant_under_reflection(t, seed):
    ds = random_balanced(t, Random(seed))
    res = worst_case(ds, strategy="frontier")
    mirrored = worst_case(reflect(ds), strategy="frontier")
    assert mirrored.worst_case == res.worst_case
    assert mirrored.maximizer_count == res.maximizer_count
    assert len(mirrored.minimal_maximizer) == len(res.minimal_maximizer)
    image = reflect_swaps(t, res.minimal_maximizer)
    assert discrepancy(reflect(ds), image) == res.worst_case


def test_state_cap_refuses(monkeypatch):
    monkeypatch.setattr(adversary, "FRONTIER_MAX_STATES", 10)
    with pytest.raises(SizeRefused):
        worst_case(base_case(), strategy="frontier")


def test_level3_pins():
    res = worst_case(construct_for_z(3))
    assert res.engine == "frontier"
    assert res.worst_case == 14
    assert res.minimal_maximizer.positions() == (1, 3, 10, 14, 20, 24, 29)
    assert res.maximizer_count == 196_340


@pytest.mark.parametrize("z, d_z", [(4, 30), (5, 62)])
def test_construction_levels_beyond_the_scan(z, d_z):
    ds = construct_for_z(z)
    res = worst_case(ds)
    assert res.engine == "frontier"
    assert res.worst_case == d_z == 2 ** (z + 1) - 2
    assert len(res.minimal_maximizer) == d_z // 2
    assert discrepancy(ds, res.minimal_maximizer) == d_z


def test_default_engine_by_size():
    assert worst_case(base_case()).engine == "exhaustive"
    assert worst_case(construct_for_z(3)).engine == "frontier"


def test_frontier_ignores_workers():
    ds = random_balanced(5, Random(8))
    assert worst_case(ds, strategy="frontier", workers=2) == worst_case(
        ds, strategy="frontier", workers=1
    )


def test_scan_strategies_refused_above_envelope():
    ds = construct_for_z(4)
    for strategy in ("exhaustive", "branch_and_bound"):
        with pytest.raises(SizeRefused):
            worst_case(ds, strategy=strategy)


def test_unknown_strategy_rejected():
    with pytest.raises(InvalidInput):
        worst_case(base_case(), strategy="greedy")


# ------------------------------------------------------------- worker count

def test_pool_size_rejects_below_one():
    for bad in (0, -3, True, 1.5):
        with pytest.raises(InvalidInput):
            pool_size(bad)


def test_pool_size_clamps_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(adversary.os, "cpu_count", lambda: 4)
    assert pool_size(1) == 1
    assert pool_size(3) == 3
    assert pool_size(10**6) == 4
    assert pool_size(10**6, tasks=2) == 2
    assert pool_size(3, tasks=0) == 1
    monkeypatch.setattr(adversary.os, "cpu_count", lambda: None)
    assert pool_size(8) == 1


def test_workers_below_one_rejected_before_any_work():
    with pytest.raises(InvalidInput):
        worst_case(base_case(), workers=0)
    with pytest.raises(InvalidInput):
        worst_case(construct_for_z(3), strategy="frontier", workers=-1)
    with pytest.raises(InvalidInput):
        find_optimal(1, workers=0)
