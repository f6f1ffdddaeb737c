"""Adversary: enumeration counts, exact worst-case results, input
validation, and the bounded scan's three verdicts with its witness table,
cross-checked against the brute-force oracle and a plain witness list."""

import json
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import (
    fib,
    list_bounded_verdict,
    naive_discrepancy,
    naive_is_matching,
    naive_swap_sets,
    naive_worst_case,
    random_swap_positions,
)
from swapdisc import _kernels, adversary
from swapdisc.adversary import (
    WITNESS_CAP,
    AdversaryResult,
    Attained,
    Witnesses,
    minimal_maximizer_property,
    worst_case,
    worst_case_bounded,
)
from swapdisc.cli import EXIT_OK, defining_set_to_doc, main
from swapdisc.construct import base_case, construct_for_z
from swapdisc.core import (
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    discrepancy,
    rank_table,
    reflect,
    require_valid,
    validate_defining_set,
)
from swapdisc.optsearch import enumerate_balanced, random_balanced


# -------------------------------------------------------------- enumeration

@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_enumeration_count_is_fibonacci(t):
    scan = worst_case(random_balanced(t, Random(t)), strategy="exhaustive")
    assert scan.enumerated == fib(4 * t + 1) == len(naive_swap_sets(4 * t))


def test_t4_count_value():
    assert fib(4 * 4 + 1) == 1597


# --------------------------------------------------------------- worst case

def test_worst_case_optimal_t2(opt2):
    res = worst_case(opt2)
    assert res.worst_case == 4
    assert res.minimal_maximizer.positions == (1, 5)
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
    assert res.minimal_maximizer.positions == (1,)
    assert res.maximizer_count == 2


def test_rejects_invalid_and_unbalanced():
    with pytest.raises(InvalidInput):
        worst_case(defining_set(1, (({1, 3}, {2, 4}),)))


BROKEN_SETS = {
    # rank 5 > 4t (and rank 3 missing)
    "rank above 4t": defining_set(1, (({1, 5}, {2, 4}),)),
    # ranks 1 and 4 twice (and ranks 6, 7 missing); both pairs balanced
    "repeated rank": defining_set(2, (({1, 4}, {2, 3}), ({1, 8}, {4, 5}))),
    # one rank on both sides of a pair (rank 4 missing)
    "rank on both sides": defining_set(1, (({1, 2}, {2, 3}),)),
    # a partition whose first pair is unbalanced
    "unbalanced pair": defining_set(2, (({1, 4}, {2, 3}), ({5, 7}, {6, 8}))),
}


@pytest.mark.parametrize("kind", list(BROKEN_SETS))
def test_every_violation_raises_with_the_validator_text(kind):
    ds = BROKEN_SETS[kind]
    report = validate_defining_set(ds)
    assert not report.ok
    if kind != "unbalanced pair":
        # four ranks per pair: a bad rank always leaves another one missing
        assert any(v.endswith("missing") for v in report.violations)
    text = "invalid defining set: " + "; ".join(report.violations)
    # twice each: validity is cached only on success
    for call in 2 * (
        lambda: require_valid(ds),
        lambda: worst_case(ds),
        lambda: worst_case(ds, strategy="frontier"),
        lambda: worst_case_bounded(ds, cutoff=4, witnesses=witness_table(ds.n_ranks, [(1,)])),
    ):
        with pytest.raises(InvalidInput) as err:
            call()
        assert str(err.value) == text
    assert "_valid" not in vars(ds)


def assert_refused_in_little_memory(ds, call):
    """call(ds) raises InvalidInput with validate_defining_set's text, and
    tracemalloc's peak stays under 1 MiB meanwhile."""
    text = "invalid defining set: " + "; ".join(validate_defining_set(ds).violations)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput) as err:
            call(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == text
    assert peak < 1 << 20


def test_far_out_of_range_rank_refused_without_its_bitmask():
    # a balanced pair's rank bitmask would take 10^8 bits here
    r = 10**8
    assert_refused_in_little_memory(defining_set(1, (({1, r}, {2, r - 1}),)), worst_case)


def test_witness_table_refuses_a_far_rank_without_its_bitmask():
    r = 10**8
    ds = defining_set(2, (({1, 4}, {2, 3}), ({5, r}, {6, r - 1})))
    table = witness_table(8, [(1, 5)])
    assert_refused_in_little_memory(ds, lambda ds: worst_case_bounded(ds, 4, table))
    assert "_bits" not in vars(ds.pairs[1])  # no bitmask built
    # a pair whose bitmask is already built is refused by the same pass
    near = defining_set(2, (({1, 4}, {2, 3}), ({5, 10}, {6, 9})))
    assert near.pairs[1].partition_bits
    assert_refused_in_little_memory(near, lambda ds: worst_case_bounded(ds, 4, table))


def test_exhaustive_size_refusal():
    ds = construct_for_z(4)  # t=19, 4t=76
    with pytest.raises(SizeRefused):
        worst_case(ds, strategy="exhaustive")


def test_strategies_agree_everywhere():
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
        assert 0 < rb.enumerated <= rx.enumerated == fib(4 * ds.t + 1)


def test_greedy_floor_keeps_every_maximizer():
    # branch and bound starts from the greedy's total: a real swap set's, so
    # every maximizer is still visited and only `enumerated` may fall
    rng = Random(23)
    pool = [ds for t in (1, 2, 3) for ds in enumerate_balanced(t)]
    pool += [random_balanced(4, rng) for _ in range(8)]
    pool += [random_balanced(5, rng) for _ in range(3)]
    for ds in pool:
        n = ds.n_ranks
        tables = rank_table(ds)
        floor, positions = adversary._greedy(n, *tables)
        assert naive_is_matching(positions, n)
        assert discrepancy(ds, SwapSet(positions)) == floor
        rx = worst_case(ds, strategy="exhaustive")
        rb = worst_case(ds, strategy="branch_and_bound")
        assert (rb.worst_case, rb.minimal_maximizer, rb.maximizer_count) == (
            rx.worst_case, rx.minimal_maximizer, rx.maximizer_count
        )
        assert floor <= rb.worst_case
        assert rb.enumerated <= _kernels.scan_chunk(n, *tables, True, -1, -1)[4]


def test_enumerated_counter_deterministic():
    # every scan is one kernel call in this process, so even the
    # branch-and-bound node counter is the same on every run
    for ds, strategy in ((random_balanced(4, Random(14)), "branch_and_bound"),
                         (random_balanced(4, Random(6)), None)):
        results = [worst_case(ds, strategy=strategy) for _ in range(3)]
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("strategy", ["exhaustive", "branch_and_bound"])
@pytest.mark.parametrize("workers", [1, 2])
def test_one_kernel_call_per_scan(monkeypatch, tmp_path, strategy, workers):
    calls = []
    scan = adversary._kernels.scan_chunk

    def counting(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(adversary._kernels, "scan_chunk", counting)
    ds = random_balanced(4, Random(21))
    worst_case(ds, strategy=strategy)
    assert len(calls) == 1
    # the CLI accepts --workers and still runs the scan as one kernel call
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps(defining_set_to_doc(ds)))
    argv = ["eval", "--sets", str(sets), "--worst-case", "--strategy", strategy,
            "--workers", str(workers), "--out", str(tmp_path / "cert.json")]
    assert main(argv) == EXIT_OK
    assert len(calls) == 2


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
        assert res.minimal_maximizer.positions == best_set
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
        minimal_maximizer=SwapSet((1, 3)),
        maximizer_count=2,
        enumerated=5,
        engine="exhaustive",
    )
    # {(1,2),(3,4)} has discrepancy 0, not 2; and 2 != 2*2
    assert not minimal_maximizer_property(t1, fake)


def naive_minimal_maximizer_property(ds, res) -> bool:
    """Eq. (8) from the definition: the worst case is 2|I*| and each single
    removal from I* gives the worst case minus 2, by the naive oracle."""
    pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
    positions = res.minimal_maximizer.positions
    return res.worst_case == 2 * len(positions) and all(
        naive_discrepancy(pairs, [p for p in positions if p != i]) == res.worst_case - 2
        for i in positions
    )


def test_minimal_maximizer_property_matches_the_definition():
    rng = Random(8)
    for t in (1, 2, 3, 4, 5):
        for _ in range(12):
            ds = random_balanced(t, rng)
            res = worst_case(ds, strategy="branch_and_bound")
            assert minimal_maximizer_property(ds, res)
            assert naive_minimal_maximizer_property(ds, res)
            # tampered results: another value, and the swap set of I*
            # shifted, cut short or padded by one swap
            positions = res.minimal_maximizer.positions
            tampered = [res._replace(worst_case=res.worst_case + 2)]
            for other in (tuple(p + 1 for p in positions), positions[1:],
                          positions + (4 * t - 1,)):
                if naive_is_matching(other, 4 * t) and other != positions:
                    swap_set = SwapSet(other)
                    tampered.append(res._replace(minimal_maximizer=swap_set))
                    tampered.append(res._replace(minimal_maximizer=swap_set,
                                                 worst_case=2 * len(other)))
            for fake in tampered:
                verdict = minimal_maximizer_property(ds, fake)
                assert verdict == naive_minimal_maximizer_property(ds, fake)
            assert not minimal_maximizer_property(ds, tampered[0])


# ------------------------------------------------------------- bounded scan

def test_bounded_scan_exceeded_and_exact(sub2):
    # one swap moves the total by -2, 0 or +2, so the scan's first swap set
    # at or above an odd cutoff beats it, and at an even one only attains it
    res, exceeded = worst_case_bounded(sub2, cutoff=3, witnesses=Witnesses(sub2.n_ranks))
    assert exceeded and res is None
    # attained is not proven: the worst case is 6, above the cutoff 4
    for cutoff in (4, 6):
        table = Witnesses(sub2.n_ranks)
        res, exceeded = worst_case_bounded(sub2, cutoff=cutoff, witnesses=table)
        assert not exceeded
        assert isinstance(res, Attained) and res.enumerated > 0
        # the scan pushed the swap set it stopped at, exactly at the cutoff
        assert [discrepancy(sub2, SwapSet(w)) for w in table] == [cutoff]
    res, exceeded = worst_case_bounded(sub2, cutoff=7, witnesses=Witnesses(sub2.n_ranks))
    assert not exceeded
    assert res.worst_case == 6
    full = worst_case(sub2)
    assert res.minimal_maximizer == full.minimal_maximizer
    assert res.maximizer_count == full.maximizer_count


def witness_table(n, positions=()):
    """A Witnesses table for 4t = n holding `positions` in slot order."""
    table = Witnesses(n)
    for w in positions:
        table.push(w)
    return table


def seeded_witnesses(valued, cutoff, rng):
    """Allowed swap sets on both sides of the cutoff, in random order."""
    above = [w for w, d in valued if d > cutoff]
    rest = [w for w, d in valued if d <= cutoff]
    picked = rng.sample(above, min(2, len(above))) + rng.sample(rest, min(3, len(rest)))
    rng.shuffle(picked)
    return picked


def assert_bounded_agrees(ds, full, cutoff, witnesses):
    """Each verdict is consistent with the exact worst case: beats only above
    the cutoff, attains only at or above it (with a swap set at exactly the
    cutoff in the table, and none above it), and below exactly when the
    worst case is below it, with the exact result."""
    res, exceeded = worst_case_bounded(ds, cutoff=cutoff, witnesses=witnesses)
    if exceeded:
        assert res is None
        assert full.worst_case > cutoff
        # the verdict rests on a concrete swap set in the table
        assert any(discrepancy(ds, SwapSet(w)) > cutoff for w in witnesses)
    elif isinstance(res, Attained):
        assert full.worst_case >= cutoff
        values = [discrepancy(ds, SwapSet(w)) for w in witnesses]
        assert cutoff in values and max(values) == cutoff
        assert res.enumerated >= 0
    else:
        assert full.worst_case < cutoff
        assert (res.worst_case, res.minimal_maximizer, res.maximizer_count) == (
            full.worst_case,
            full.minimal_maximizer,
            full.maximizer_count,
        )
        assert res.engine == "branch_and_bound"
        assert res.enumerated > 0
    assert len(witnesses) <= WITNESS_CAP


def test_bounded_scan_agrees_with_branch_and_bound_for_any_witness_list():
    rng = Random(23)
    pool = [ds for t in (1, 2, 3) for ds in enumerate_balanced(t)]
    pool += [random_balanced(t, rng) for t in (4, 4, 4, 5, 5, 6)]
    # one table per t, carried across instances and cutoffs, as the search does
    shared = {t: Witnesses(4 * t) for t in range(1, 7)}
    for ds in pool:
        n = ds.n_ranks
        full = worst_case(ds, strategy="branch_and_bound")
        valued = [
            (w, discrepancy(ds, SwapSet(w))) for w in naive_swap_sets(n)
        ] if ds.t <= 4 else []
        for cutoff in range(13):
            assert_bounded_agrees(ds, full, cutoff, Witnesses(n))
            assert_bounded_agrees(ds, full, cutoff, shared[ds.t])
            if valued:
                seeded = witness_table(n, seeded_witnesses(valued, cutoff, rng))
                assert_bounded_agrees(ds, full, cutoff, seeded)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 5),
    seed=st.integers(0, 10**9),
    cutoff=st.integers(0, 12),
    raw=st.lists(st.lists(st.integers(1, 20), max_size=10), max_size=40),
)
def test_bounded_scan_any_witnesses_hypothesis(t, seed, cutoff, raw):
    ds = random_balanced(t, Random(seed))
    # arbitrary position tuples, each thinned to a matching of the path; the
    # thinned ones below 4t are matchings of [1, 4t] and pushed, every other
    # tuple is refused
    witnesses = Witnesses(4 * t)
    for w in raw:
        w = tuple(sorted(set(w)))
        thinned: list[int] = []
        for i in w:
            if not thinned or i >= thinned[-1] + 2:
                thinned.append(i)
        # w is a matching only when thinning leaves it unchanged
        for positions in dict.fromkeys((w, tuple(thinned))):
            if naive_is_matching(positions, 4 * t):
                witnesses.push(positions)
            else:
                with pytest.raises(InvalidInput):
                    witnesses.push(positions)
    full = worst_case(ds, strategy="branch_and_bound")
    assert_bounded_agrees(ds, full, cutoff, witnesses)


def test_witness_table_is_fixed_slots_overwritten_oldest_first(monkeypatch):
    monkeypatch.setattr(adversary, "WITNESS_CAP", 3)
    witnesses = Witnesses(12)
    # at the odd cutoff 3 every swap set the scan stops at beats it
    for ds in enumerate_balanced(3):
        worst_case_bounded(ds, cutoff=3, witnesses=witnesses)
        assert len(witnesses) <= 3
    assert len(witnesses) == 3
    # a hit keeps every witness in its slot; one swap and the empty set do
    # not beat the cutoff
    ds = random_balanced(3, Random(1))
    hit = next(w for w in naive_swap_sets(12) if discrepancy(ds, SwapSet(w)) > 2)
    witnesses = witness_table(12, [(3,), hit, ()])
    _res, exceeded = worst_case_bounded(ds, cutoff=2, witnesses=witnesses)
    assert exceeded
    assert list(witnesses) == [(3,), hit, ()]
    # each push at the cap overwrites the oldest push, hit or not
    witnesses.push((1,))
    assert list(witnesses) == [(1,), hit, ()]
    witnesses.push((5,))
    assert list(witnesses) == [(1,), (5,), ()]
    witnesses.push((7,))
    witnesses.push((9,))
    assert list(witnesses) == [(9,), (5,), (7,)]


def test_bounded_scan_rejects_negative_cutoff(sub2):
    with pytest.raises(InvalidInput):
        worst_case_bounded(sub2, cutoff=-1, witnesses=Witnesses(sub2.n_ranks))
    # the table keeps its comparison constants for the last cutoff; a value
    # equal to it but no int is still refused
    table = witness_table(sub2.n_ranks, [(1,)])
    table.check(sub2, 1)
    for bad in (True, 1.0, -1):
        with pytest.raises(InvalidInput):
            table.check(sub2, bad)


def test_witness_that_beats_wins_over_one_that_attains(sub2):
    valued = [(w, discrepancy(sub2, SwapSet(w))) for w in naive_swap_sets(8)]
    at = next(w for w, d in valued if d == 4)
    above = next(w for w, d in valued if d > 4)
    witnesses = witness_table(8, [at, above])
    res, exceeded = worst_case_bounded(sub2, cutoff=4, witnesses=witnesses)
    assert exceeded and res is None
    assert list(witnesses) == [at, above]
    # with only the attaining witness: no scan, no proof
    res, exceeded = worst_case_bounded(sub2, cutoff=4, witnesses=witness_table(8, [at]))
    assert not exceeded
    assert res == Attained(0)


def witness_pool(rng):
    """Every balanced set with t <= 3 and seeded sets up to t = 6, shuffled
    so that the calls on the per-t tables interleave."""
    pool = [ds for t in (1, 2, 3) for ds in enumerate_balanced(t)]
    pool += [random_balanced(t, rng) for t in (4, 4, 5, 5, 6, 6)]
    rng.shuffle(pool)
    return pool


def test_witness_table_totals_match_total_after_at_every_cutoff(monkeypatch):
    cap = 24
    monkeypatch.setattr(adversary, "WITNESS_CAP", cap)
    rng = Random(41)
    # per t: random matchings of [1, 4u] for u = 1..t (so all of them
    # matchings of [1, 4t]) and the empty set
    tables = {}
    for t in (1, 2, 3, 4, 5, 6):
        tuples = [random_swap_positions(u, rng) for u in range(1, t + 1) for _ in range(3)]
        tuples.append(())
        rng.shuffle(tuples)
        tables[t] = witness_table(4 * t, tuples)
    for ds in witness_pool(rng):
        table = tables[ds.t]
        for cutoff in range(ds.n_ranks + 3):
            order = list(table)
            values = table.values(ds)
            assert values == [discrepancy(ds, SwapSet(w)) for w in order]
            verdict = table.check(ds, cutoff)
            assert list(table) == order
            if any(v > cutoff for v in values):
                assert verdict == (True, False)
            elif cutoff in values:
                assert verdict == (False, True)
            else:
                assert verdict == (False, False)
        # a new entry updates every cached pair's field and, at the cap,
        # overwrites the oldest one
        size = len(table)
        new = random_swap_positions(rng.randint(1, ds.t), rng)
        table.push(new)
        assert len(table) == min(cap, size + 1)
        assert new in list(table)
    assert len(tables[3]) == cap


def test_witness_table_matches_plain_list_loop(monkeypatch):
    cap = 5
    monkeypatch.setattr(adversary, "WITNESS_CAP", cap)
    rng = Random(43)
    pool = list(enumerate_balanced(2)) + list(enumerate_balanced(3))
    pool += [random_balanced(t, rng) for t in (2, 3, 3, 4, 4, 4)]
    # one table and one plain list of (push stamp, positions) per t, both
    # starting from the tuples that are matchings of [1, 4t]
    start = [(1, 3), (2, 3), (7,), (0, 4), (1, 5, 9, 13)]
    plains = {
        t: list(enumerate(w for w in start if naive_is_matching(w, 4 * t))) for t in (2, 3, 4)
    }
    tables = {t: witness_table(4 * t, [w for _, w in plain]) for t, plain in plains.items()}
    for round_ in range(2):
        for ds in pool:
            n = ds.n_ranks
            table, plain = tables[ds.t], plains[ds.t]
            # a search-like cutoff near the worst case, or any other one
            cutoff = rng.choice((rng.randint(0, n + 2), rng.randint(4, 8)))
            pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
            kind, ref = list_bounded_verdict(pairs, ds.t, cutoff, plain, cap)
            res, exceeded = worst_case_bounded(ds, cutoff=cutoff, witnesses=table)
            if kind == "beats":
                assert exceeded and res is None
            elif kind == "attains":
                assert not exceeded and isinstance(res, Attained)
            else:
                assert not exceeded and isinstance(res, AdversaryResult)
                got = (res.worst_case, res.minimal_maximizer.positions, res.maximizer_count)
                assert got == ref
            assert list(table) == [w for _, w in plain]


def test_witness_table_takes_only_matchings_and_sets_of_its_4t(opt2):
    table = Witnesses(8)
    for bad in ((1, 2), (5, 3), (2, 2), (0,), (8,)):
        with pytest.raises(InvalidInput):
            table.push(bad)
    assert len(table) == 0
    table.push(())
    table.push((1, 7))
    assert list(table) == [(), (1, 7)]
    assert table.values(opt2) == [0, discrepancy(opt2, SwapSet((1, 7)))]
    with pytest.raises(InvalidInput):
        Witnesses(12).check(opt2, 4)
    with pytest.raises(InvalidInput):
        worst_case_bounded(opt2, cutoff=4, witnesses=Witnesses(12))


def test_role_swapped_twins_share_the_witness_fields():
    # the table keys a pair's cached fields by its rank bitmask: a twin whose
    # odd and even sides are exchanged has the same bitmask and the same
    # |imbalance change| under every swap set, so it reuses the fields of
    # the pair met first, in either order
    rng = Random(47)
    for t in (2, 3, 4, 5):
        n = 4 * t
        pool = [random_balanced(t, rng) for _ in range(8)]
        tuples = [random_swap_positions(t, rng) for _ in range(10)] + [()]
        for twin_first in (False, True):
            table = witness_table(n, tuples)
            for ds in pool:
                flips = [rng.random() < 0.5 for _ in ds.pairs]
                twins = [
                    DefiningSet(t, tuple(
                        CompanionPair(p.even, p.odd) if flip else p
                        for p, flip in zip(ds.pairs, flipped)
                    ))
                    for flipped in (flips, [True] * t)
                ]
                want = [discrepancy(ds, SwapSet(w)) for w in table]
                for s in (twins + [ds] if twin_first else [ds] + twins):
                    assert [discrepancy(s, SwapSet(w)) for w in table] == want
                    assert table.values(s) == want
            # a pushed witness updates the shared fields for both roles
            table.push(random_swap_positions(t, rng))
            for ds in pool:
                twin = DefiningSet(t, tuple(CompanionPair(p.even, p.odd) for p in ds.pairs))
                want = [discrepancy(ds, SwapSet(w)) for w in table]
                assert table.values(ds) == table.values(twin) == want


def test_witness_table_rejects_an_unbalanced_pair_with_the_validator_text():
    # an unbalanced pair has partition_bits 0 and is never scored: the
    # table raises before caching anything for it, also after it has met
    # a balanced pair over the same four ranks; so does a balanced pair
    # with a rank above 4t
    good = defining_set(2, (({1, 4}, {2, 3}), ({5, 8}, {6, 7})))
    table = witness_table(8, [(1, 5), (2,), ()])
    assert table.values(good) == [discrepancy(good, SwapSet(w)) for w in table]
    cached = len(table._packed)
    for bad, fault in (
        (defining_set(2, (({1, 4}, {2, 3}), ({5, 7}, {6, 8}))), "unbalanced"),
        (defining_set(2, (({1, 2}, {3, 4}), ({5, 8}, {6, 7}))), "unbalanced"),
        (defining_set(2, (({1, 3}, {2, 4}), ({5, 6}, {7, 8}))), "unbalanced"),
        (defining_set(2, (({1, 4}, {2, 3}), ({6, 9}, {7, 8}))), "outside [1, 8]"),
    ):
        text = "invalid defining set: " + "; ".join(validate_defining_set(bad).violations)
        assert fault in text
        for call in (
            lambda: table.values(bad),
            lambda: table.check(bad, 4),
            lambda: worst_case_bounded(bad, cutoff=4, witnesses=table),
        ):
            with pytest.raises(InvalidInput) as err:
                call()
            assert str(err.value) == text
    assert len(table._packed) == cached
    assert list(table) == [(1, 5), (2,), ()]
    assert table.values(good) == [discrepancy(good, SwapSet(w)) for w in table]


@pytest.mark.parametrize("first", [True, False], ids=["first-pair", "second-pair"])
def test_witness_table_caches_no_pair_of_fewer_than_four_ranks(first):
    # odd {a, b} against even {a, b} balances on two ranks, so its
    # partition_bits has two bits set: the set is refused and that key is
    # never cached, before or after a balanced pair of four ranks
    twin, good = ({1, 4}, {1, 4}), ({5, 8}, {6, 7})
    bad = defining_set(2, (twin, good) if first else (good, twin))
    assert min(p.partition_bits.bit_count() for p in bad.pairs) == 2
    text = "invalid defining set: " + "; ".join(validate_defining_set(bad).violations)
    table = witness_table(8, [(1, 5)])
    for call in (table.values, lambda ds: table.check(ds, 4),
                 lambda ds: worst_case_bounded(ds, 4, table)):
        with pytest.raises(InvalidInput) as err:
            call(bad)
        assert str(err.value) == text
        assert all(bits.bit_count() == 4 for bits in table._packed)
    assert len(table._packed) == (0 if first else 1)



def test_witness_table_still_refuses_sets_of_cached_pairs():
    # a pair found in the cache skips its range check: the final coverage
    # test alone refuses a repeated cached pair and cached pairs sharing a
    # rank, and a pair after cached ones is still range-checked on its miss
    rng = Random(53)
    for t in (2, 3):
        n = 4 * t
        table = witness_table(n, [random_swap_positions(t, rng) for _ in range(4)])
        scored = list(enumerate_balanced(t))
        for ds in scored:
            table.values(ds)
        cached = len(table._packed)
        pairs = {p for ds in scored for p in ds.pairs}
        assert all(p.partition_bits in table._packed for p in pairs)
        head = scored[0].pairs[: t - 1]
        odd, even = sorted(scored[0].pairs[-1].odd), sorted(scored[0].pairs[-1].even)
        overlapping = next(
            (p, q) for p in pairs for q in pairs if p.elements & q.elements and p != q
        )
        repeated = DefiningSet(t, head + head[-1:])
        shared = DefiningSet(t, overlapping + scored[0].pairs[2:])
        unbalanced = DefiningSet(t, head + (CompanionPair((odd[0], even[0]), (odd[1], even[1])),))
        far = DefiningSet(t, head + (CompanionPair((1, 10**8), (2, 10**8 - 1)),))
        for bad in (repeated, shared, unbalanced, far):
            assert not validate_defining_set(bad).ok
            for call in (table.values, lambda ds: worst_case_bounded(ds, 4, table)):
                assert_refused_in_little_memory(bad, call)
        assert "_bits" not in vars(far.pairs[-1])  # no bitmask built
        assert len(table._packed) == cached
