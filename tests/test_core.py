"""Core types: validation, swap application, discrepancy, classification."""

import re
from functools import cached_property
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import mirror, naive_apply, naive_discrepancy, random_swap_positions
from swapdisc import cli, construct, core, optsearch
from swapdisc.adversary import Witnesses, worst_case
from swapdisc.core import (
    CompanionPair,
    DefiningSet,
    InvalidInput,
    ODD,
    SwapSet,
    apply_swaps,
    classify_pair,
    defining_set,
    discrepancy,
    rank_table,
    require_valid,
    validate_defining_set,
)
from swapdisc.graphs import build_pot, build_swp, verify_lemma2, verify_prop1, verify_prop2
from swapdisc.optsearch import random_balanced


def swaps_of(*positions):
    return SwapSet(positions)


# ------------------------------------------------------------- construction

def test_companion_pair_shape_checks():
    with pytest.raises(InvalidInput):
        CompanionPair(frozenset({1, 2, 3}), frozenset({4, 5}))
    with pytest.raises(InvalidInput):
        CompanionPair(frozenset({0, 2}), frozenset({3, 4}))
    # bools are ints in Python but neither a rank nor a t
    with pytest.raises(InvalidInput):
        CompanionPair(frozenset({True, 4}), frozenset({2, 3}))
    with pytest.raises(InvalidInput):
        defining_set(True, [({1, 4}, {2, 3})])
    # overlapping sides stay constructible; the validator reports them
    overlapping = CompanionPair(frozenset({1, 4}), frozenset({2, 4}))
    assert 4 in overlapping.odd and 4 in overlapping.even


def test_companion_pair_hash_and_equality_follow_the_fields():
    pair = CompanionPair(frozenset({1, 4}), frozenset({2, 3}))
    same = CompanionPair([4, 1], (3, 2))
    swapped = CompanionPair(frozenset({2, 3}), frozenset({1, 4}))
    assert hash(pair) == hash(same) == hash((pair.odd, pair.even))
    assert pair == same and pair != swapped
    assert hash(swapped) == hash((swapped.odd, swapped.even))
    assert {pair: 1}[same] == 1
    assert repr(pair) == "CompanionPair(odd=frozenset({1, 4}), even=frozenset({2, 3}))"


def test_values_compare_hash_print_and_refuse_assignment_by_their_fields():
    pair = CompanionPair(frozenset({1, 4}), frozenset({2, 3}))
    ds = DefiningSet(1, [pair])
    swaps = SwapSet([5, 1])
    equal = (
        (ds, defining_set(1, [((4, 1), (3, 2))])),
        (swaps, SwapSet((1, 5))),
    )
    for value, same in equal:
        assert value == same and hash(value) == hash(same)
        assert not value != same
    assert hash(ds) == hash((1, (pair,)))
    assert hash(swaps) == hash(((1, 5),))
    assert ds != DefiningSet(1, [CompanionPair(pair.even, pair.odd)])
    # values of different types, or plain tuples of the same fields, differ
    assert swaps != swaps.positions and swaps != (swaps.positions,)
    assert pair != (pair.odd, pair.even) and ds != (1, (pair,))
    assert SwapSet([]) != ((),) and pair != ds
    for value, name in ((pair, "odd"), (ds, "t"), (ds, "pairs"), (swaps, "positions"),
                        (pair, "partition_bits"), (ds, "anything")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert pair.odd == frozenset({1, 4}) and ds.t == 1
    assert repr(swaps) == "SwapSet(positions=(1, 5))"
    assert repr(ds) == (
        "DefiningSet(t=1, pairs=(CompanionPair(odd=frozenset({1, 4}), "
        "even=frozenset({2, 3})),))"
    )
    assert repr(classify_pair(pair)) == "PairType(kind=3, a=1, b=1, c=None)"


def test_far_rank_pair_builds_without_its_bitmask():
    r = 10**9
    pair = CompanionPair(frozenset({1, r}), frozenset({2, r - 1}))
    assert pair.balanced and pair.sorted_elements() == (1, 2, r - 1, r)
    assert "_bits" not in vars(pair)  # no bitmask built
    assert pair == CompanionPair([r, 1], [r - 1, 2])


def test_swap_set_rejects_overlap_and_non_adjacent():
    # positions hold only adjacent swaps (i, i+1): what is left to refuse
    # is an overlap, a repeat, a position below 1 and the (i, i+1) form
    for bad in ((1, 2), (3, 2), (4, 4), (0,), (-1, 5), ((1, 2),), [(1, 2), (5, 6)]):
        with pytest.raises(InvalidInput):
            SwapSet(bad)
    assert len(swaps_of(1, 3, 5)) == 3


def test_swap_set_is_sorted_once_whatever_the_input_order():
    given = [
        SwapSet(frozenset({5, 1})),
        SwapSet([5, 1]),
        SwapSet(i for i in (5, 1)),
        SwapSet((1, 5)),
    ]
    for swaps in given:
        assert swaps == given[0] and hash(swaps) == hash(given[0])
        assert swaps.positions == (1, 5) and len(swaps) == 2


@pytest.mark.parametrize("bad", [1.5, True, "a", None, 0, -2], ids=repr)
def test_one_matching_rule_refuses_a_position_that_is_no_integer_from_1(bad):
    # SwapSet and the witness table share require_matching: a float, a
    # bool or a string is refused as InvalidInput, never a TypeError, and
    # so is a position below 1, alone or beside a valid one
    table = Witnesses(16)
    message = re.escape(f"swap position {bad!r} is not an integer >= 1")
    for positions in ((bad,), (bad, 5), (5, bad)):
        for build in (SwapSet, table.push):
            with pytest.raises(InvalidInput, match=message):
                build(positions)
    assert table.values(construct.base_case()) == []


# --------------------------------------------------------------- validation

def test_validate_ok_on_optimal_t2(opt2):
    assert validate_defining_set(opt2).ok


def test_validate_reports_unbalanced_pair():
    ds = defining_set(1, (({1, 3}, {2, 4}),))
    report = validate_defining_set(ds)
    assert not report.ok
    assert any("pair 1" in v and "unbalanced" in v for v in report.violations)
    assert any("4" in v and "6" in v for v in report.violations)


def test_validate_reports_broken_partition():
    ds = defining_set(1, (({1, 4}, {2, 4}),))
    report = validate_defining_set(ds)
    assert not report.ok
    assert any("rank 4" in v and "2 times" in v for v in report.violations)
    assert any("rank 3" in v and "missing" in v for v in report.violations)


# -------------------------------------------------------------- apply_swaps

def test_apply_swaps_worked_example(opt2):
    after = apply_swaps(opt2, swaps_of(1, 5))
    assert after.pairs[0].odd == frozenset({2, 8})
    assert after.pairs[0].even == frozenset({3, 5})
    assert after.pairs[1].odd == frozenset({1, 7})
    assert after.pairs[1].even == frozenset({4, 6})


def test_apply_swaps_empty_is_identity(opt2):
    assert apply_swaps(opt2, SwapSet(())) == opt2


def test_apply_swaps_within_one_set_is_noop(t1):
    assert apply_swaps(t1, swaps_of(2)) == t1


def test_apply_swaps_rejects_out_of_range(t1):
    with pytest.raises(InvalidInput):
        apply_swaps(t1, swaps_of(4))


def test_apply_swaps_rejects_broken_partition():
    ds = defining_set(1, (({1, 4}, {2, 4}),))
    with pytest.raises(InvalidInput):
        apply_swaps(ds, swaps_of(1))


def test_validate_reports_out_of_range_rank():
    ds = defining_set(1, (({1, 9}, {2, 3}),))
    report = validate_defining_set(ds)
    assert not report.ok
    assert any("outside" in v for v in report.violations)


def test_apply_swaps_is_involution(opt2):
    swaps = swaps_of(2, 4, 6)
    assert apply_swaps(apply_swaps(opt2, swaps), swaps) == opt2


# -------------------------------------------------------------- discrepancy

def test_discrepancy_worked_example(opt2):
    assert discrepancy(opt2, swaps_of(1, 5)) == 4


def test_discrepancy_balanced_no_swaps_is_zero(opt2, sub2, t1):
    for ds in (opt2, sub2, t1):
        assert discrepancy(ds, SwapSet(())) == 0


def test_discrepancy_cross_pair_swap(sub2):
    assert discrepancy(sub2, swaps_of(4)) == 2


# ----------------------------------------------------------- classification

def test_classify_type1():
    pt = classify_pair(CompanionPair(frozenset({1, 16}), frozenset({8, 9})))
    assert (pt.kind, pt.a, pt.b) == (1, 1, 7)


def test_classify_type2():
    pt = classify_pair(CompanionPair(frozenset({3, 14}), frozenset({6, 11})))
    assert (pt.kind, pt.a, pt.b, pt.c) == (2, 3, 3, 5)


def test_classify_type3():
    pt = classify_pair(CompanionPair(frozenset({1, 4}), frozenset({2, 3})))
    assert (pt.kind, pt.a, pt.b) == (3, 1, 1)


def test_classify_rejects_unbalanced():
    with pytest.raises(InvalidInput):
        classify_pair(CompanionPair(frozenset({1, 3}), frozenset({2, 4})))


def test_classify_consecutive_run_is_type3_not_type1():
    # {a, a+1, a+2, a+3} fits both definitions with b=1; branch order wins
    pt = classify_pair(CompanionPair(frozenset({5, 8}), frozenset({6, 7})))
    assert pt.kind == 3


def test_classifier_is_total_and_gaps_match():
    # every balanced quadruple of [1, 20] classifies, and l2-l1 == l4-l3
    for quad in combinations(range(1, 21), 4):
        l1, l2, l3, l4 = quad
        if l1 + l4 != l2 + l3:
            continue
        cp = CompanionPair(frozenset({l1, l4}), frozenset({l2, l3}))
        assert l2 - l1 == l4 - l3
        pt = classify_pair(cp)
        assert pt.kind in (1, 2, 3)
        if pt.kind == 1:
            assert l3 - l2 == 1 and l2 - l1 >= 2
        elif pt.kind == 2:
            assert l2 - l1 > 1 and l3 - l2 > 1
        else:
            assert l2 - l1 == 1


def test_balanced_pairing_is_unique_by_exhaustion():
    # of the three pairings of a balanced quadruple, only {l1,l4}/{l2,l3} balances
    for quad in combinations(range(1, 17), 4):
        l1, l2, l3, l4 = quad
        if l1 + l4 != l2 + l3:
            continue
        pairings = [
            ((l1, l4), (l2, l3)),
            ((l1, l2), (l3, l4)),
            ((l1, l3), (l2, l4)),
        ]
        balanced = [p for p in pairings if sum(p[0]) == sum(p[1])]
        assert balanced == [((l1, l4), (l2, l3))]


# ---------------------------------------------------------------- refusals

@pytest.mark.parametrize(
    "call,value",
    [
        (lambda: construct.lower_bound(0), 0),
        (lambda: construct.upper_bound(1), 1),
        (lambda: next(optsearch.enumerate_balanced(0)), 0),
        (lambda: optsearch.random_balanced(0, Random(0)), 0),
    ],
    ids=["lower_bound", "upper_bound", "enumerate_balanced", "random_balanced"],
)
def test_an_out_of_range_argument_is_invalid_input_naming_it(call, value):
    with pytest.raises(InvalidInput, match=f"got {value}$"):
        call()


OPT2 = defining_set(2, (({1, 8}, {3, 6}), ({2, 7}, {4, 5})))


# every entry point that takes an outside integer, as a call on the value
INTEGER_READERS = {
    "CompanionPair": lambda x: CompanionPair({x, 2}, {3, 4}),
    "CompanionPair.translate": lambda x: OPT2.pairs[0].translate(x),
    "DefiningSet": lambda x: DefiningSet(x, OPT2.pairs),
    "SwapSet": lambda x: SwapSet((x,)),
    "Witnesses.push": lambda x: Witnesses(8).push((x,)),
    "Witnesses": Witnesses,
    "Witnesses.check": lambda x: Witnesses(8).check(OPT2, x),
    "doc_to_defining_set.t": lambda x: cli.doc_to_defining_set({"t": x, "pairs": []}),
    "doc_to_defining_set.pair": lambda x: cli.doc_to_defining_set(
        {"t": 1, "pairs": [{"odd": [x, 4], "even": [2, 3]}]}
    ),
    "doc_to_swaps": lambda x: cli.doc_to_swaps({"swaps": [[x, 2]]}),
    "t_for_z": construct.t_for_z,
    "z_for_t": construct.z_for_t,
    "require_level": construct.require_level,
    "construct_for_z": construct.construct_for_z,
    "lower_bound": construct.lower_bound,
    "upper_bound": construct.upper_bound,
    "enumerate_balanced": lambda x: next(optsearch.enumerate_balanced(x)),
    "enumerate_balanced.branch": lambda x: next(optsearch.enumerate_balanced(2, [x])),
    "random_balanced": lambda x: optsearch.random_balanced(x, Random(0)),
    "find_optimal": optsearch.find_optimal,
}


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3", None], ids=repr)
@pytest.mark.parametrize("reader", list(INTEGER_READERS))
def test_every_integer_reader_refuses_a_non_integer(reader, bad):
    # one rule (core.is_int) decides: a bool, a float equal to an integer, a
    # string or None is InvalidInput, never a result, a TypeError or an
    # AttributeError
    with pytest.raises(InvalidInput):
        INTEGER_READERS[reader](bad)


# --------------------------------------------------------------- properties

@settings(max_examples=120, deadline=None)
@given(t=st.integers(1, 4), seed=st.integers(0, 10**9))
def test_involution_property(t, seed):
    rng = Random(seed)
    ds = random_balanced(t, rng)
    swaps = SwapSet(random_swap_positions(t, rng))
    assert apply_swaps(apply_swaps(ds, swaps), swaps) == ds


@settings(max_examples=120, deadline=None)
@given(t=st.integers(1, 4), seed=st.integers(0, 10**9))
def test_discrepancy_even_and_matches_naive(t, seed):
    rng = Random(seed)
    ds = random_balanced(t, rng)
    positions = random_swap_positions(t, rng)
    d = discrepancy(ds, SwapSet(positions))
    assert d % 2 == 0
    naive_pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
    assert d == naive_discrepancy(naive_pairs, positions)


def draw_matching(data, n):
    """Left endpoints of a matching of the path on [1, n], drawn greedily."""
    picks = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    positions: list[int] = []
    for i, pick in enumerate(picks, start=1):
        if pick and (not positions or positions[-1] + 1 < i):
            positions.append(i)
    return tuple(positions)


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 4), data=st.data())
def test_swaps_on_any_partition_match_naive(t, data):
    # a partition of [1, 4t] into 2 + 2 sets, balanced or not, and a chain of
    # matchings applied one after another
    ranks = data.draw(st.permutations(range(1, 4 * t + 1)))
    ds = DefiningSet(
        t,
        tuple(
            CompanionPair(frozenset(ranks[k : k + 2]), frozenset(ranks[k + 2 : k + 4]))
            for k in range(0, 4 * t, 4)
        ),
    )
    naive = [(set(p.odd), set(p.even)) for p in ds.pairs]
    for _ in range(data.draw(st.integers(1, 3))):
        positions = draw_matching(data, 4 * t)
        swaps = SwapSet(positions)
        moved = naive_apply(naive, positions)
        pair_of, side_of, imbalance = rank_table(ds, swaps)
        assert imbalance == [sum(o) - sum(e) for o, e in moved]
        for r in range(1, 4 * t + 1):
            assert r in moved[pair_of[r]][0 if side_of[r] == ODD else 1]
        assert discrepancy(ds, swaps) == naive_discrepancy(naive, positions)
        ds = apply_swaps(ds, swaps)
        assert [(p.odd, p.even) for p in ds.pairs] == moved
        naive = moved


def test_rank_table_returns_fresh_lists(opt2):
    fresh = DefiningSet(opt2.t, opt2.pairs)  # an equal set with its own cache
    for swaps in (swaps_of(), swaps_of(2, 5)):
        expected = rank_table(fresh, swaps)
        for table in rank_table(opt2, swaps):
            table[1] = 99
            table.append(7)
        assert rank_table(opt2, swaps) == expected
        assert rank_table(opt2) == rank_table(fresh)


@pytest.mark.parametrize(
    "pairs", [(({1, 4}, {2, 5}),), (({1, 4}, {2, 4}),), (({1, 2}, {3, 6}), ({4, 5}, {7, 9}))]
)
def test_rank_table_refuses_a_broken_partition_on_every_call(pairs):
    ds = defining_set(len(pairs), pairs)
    text = "invalid defining set: " + "; ".join(validate_defining_set(ds).violations)
    for _ in range(3):
        with pytest.raises(InvalidInput, match=f"^{re.escape(text)}$"):
            rank_table(ds)


def test_every_entry_point_words_a_broken_partition_as_the_validator():
    # rank 9 outside [1, 8], pair 2 unbalanced and rank 5 missing
    ds = defining_set(2, (({1, 8}, {3, 6}), ({2, 7}, {4, 9})))
    texts = []
    for call in (rank_table, lambda ds: discrepancy(ds, swaps_of()),
                 lambda ds: apply_swaps(ds, swaps_of()), worst_case):
        with pytest.raises(InvalidInput) as info:
            call(ds)
        texts.append(str(info.value))
    assert texts == [
        "invalid defining set: pair 2: rank 9 outside [1, 8]; "
        "pair 2: unbalanced (odd sum 9 != even sum 13); rank 5: missing"
    ] * 4


@settings(max_examples=80, deadline=None)
@given(t=st.integers(1, 4), seed=st.integers(0, 10**9))
def test_reflection_preserves_balance_and_discrepancy(t, seed):
    rng = Random(seed)
    ds = random_balanced(t, rng)
    positions = random_swap_positions(t, rng)
    swaps = SwapSet(positions)
    mirrored = mirror(ds)
    assert validate_defining_set(mirrored).ok
    image = SwapSet(4 * t - i for i in swaps.positions)
    assert discrepancy(mirrored, image) == discrepancy(ds, swaps)


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 4), seed=st.integers(0, 10**9), data=st.data())
def test_require_valid_agrees_with_validate_defining_set(t, seed, data):
    # a balanced set with some pairs replaced by arbitrary ones: ranks above
    # 4t, repeated ranks and unbalanced pairs all occur
    pairs = list(random_balanced(t, Random(seed)).pairs)
    side = st.lists(st.integers(1, 4 * t + 2), min_size=2, max_size=2, unique=True)
    for k in range(t):
        if data.draw(st.booleans()):
            pairs[k] = CompanionPair(frozenset(data.draw(side)), frozenset(data.draw(side)))
    ds = DefiningSet(t, tuple(pairs))
    report = validate_defining_set(ds)
    if report.ok:
        require_valid(ds)
    else:
        with pytest.raises(InvalidInput) as err:
            require_valid(ds)
        assert str(err.value) == "invalid defining set: " + "; ".join(report.violations)


def test_a_valid_set_walks_its_pairs_once(monkeypatch):
    # every walk over the pairs is one build of the set's cached rank table
    walks = []
    build = core.DefiningSet._rank_table.func
    counted = cached_property(lambda ds: walks.append(ds.n_ranks) or build(ds))
    counted.__set_name__(core.DefiningSet, "_rank_table")
    monkeypatch.setattr(core.DefiningSet, "_rank_table", counted)
    ds = random_balanced(4, Random(3))
    res = worst_case(ds, strategy="branch_and_bound")
    i_star = res.minimal_maximizer
    for _ in range(2):
        require_valid(ds)
        build_swp(ds, i_star)
        build_pot(ds, i_star, membership="primed")
        verify_lemma2(ds, i_star)
        verify_prop1(ds, i_star)
        verify_prop2(ds, i_star)
        assert worst_case(ds, strategy="branch_and_bound") == res
    assert walks == [16]
    # an equal set has its own cache
    require_valid(DefiningSet(ds.t, ds.pairs))
    assert walks == [16, 16]
