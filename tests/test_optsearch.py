"""Balanced-set enumeration and full optimum search at small t.

Enumeration counts are cross-checked against the itertools partition oracle
at t <= 3; larger values are frozen regression constants computed once with
that oracle.
"""

import inspect
import itertools
import json
import time
from random import Random

import pytest

from naive_oracles import (
    mirror,
    naive_balanced_sets,
    ordered_balanced_sets,
    ordered_random_balanced,
)
from swapdisc import _fork, adversary, core, optsearch
from swapdisc.adversary import worst_case
from swapdisc.cli import EXIT_OK, defining_set_to_doc, main
from swapdisc.construct import base_case, lower_bound
from swapdisc.core import (
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    require_valid,
    validate_defining_set,
)
from swapdisc.optsearch import (
    enumerate_balanced,
    find_optimal,
    random_balanced,
)

# counts of canonical balanced defining sets (t <= 3 oracle-verified here,
# t = 4 frozen from the same oracle run during development, t = 5 frozen
# from the full search)
KNOWN_COUNTS = {1: 1, 2: 6, 3: 86, 4: 1990, 5: 74_323}
# full-search regression values: d_star and number of canonical optima
KNOWN_OPTIMA = {1: (2, 1), 2: (4, 1), 3: (6, 10), 4: (6, 1)}
# base_case() in canonical form
BASE_CASE_CANONICAL = defining_set(
    4, (({1, 16}, {8, 9}), ({2, 7}, {4, 5}), ({3, 14}, {6, 11}), ({10, 15}, {12, 13}))
)


def canon_key(ds):
    return tuple((p.odd, p.even) for p in ds.pairs)


def is_canonical(ds):
    """Whether each pair's odd set holds its smallest rank and the pairs
    ascend by it."""
    lows = [min(p.elements) for p in ds.pairs]
    return lows == sorted(lows) and all(low in p.odd for low, p in zip(lows, ds.pairs))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_enumeration_matches_partition_oracle(t):
    candidates = list(enumerate_balanced(t))
    # each candidate skips DefiningSet's checks; it is the set they accept
    for ds in candidates:
        checked = DefiningSet(t, ds.pairs)
        assert ds == checked and hash(ds) == hash(checked)
        require_valid(ds)
    ours = {canon_key(ds) for ds in candidates}
    assert len(ours) == len(candidates) == KNOWN_COUNTS[t]
    if t <= 3:
        oracle = naive_balanced_sets(t)
        assert ours == {tuple(entry) for entry in oracle}


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_enumeration_order_matches_ordered_reference(t):
    # the search's witness order, candidates_examined and optima order all
    # follow this order.  The last eight ranks come from a memo: at t = 2 it
    # answers the whole set, and at t = 5 the walk reaches 52,199 eight-rank
    # remainders, 7,903 of them distinct
    ours = ([(p.odd, p.even) for p in ds.pairs] for ds in enumerate_balanced(t))
    for got, want in itertools.zip_longest(ours, ordered_balanced_sets(t)):
        assert got == want


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_enumeration_by_top_level_branches(t):
    # the search's shares walk runs of these branches, the quadruples that
    # hold rank 1, and merge what they keep in this order
    branches = range(len(optsearch._table(4 * t).quadruples[1]))
    whole = list(enumerate_balanced(t))
    assert [ds for b in branches for ds in enumerate_balanced(t, [b])] == whole
    assert list(enumerate_balanced(t, branches)) == whole
    assert list(enumerate_balanced(t, [])) == []


@pytest.mark.parametrize(
    "branches, message",
    [
        ([-1], r"branch index must be an integer in \[0, 8\], got -1"),
        ([99], r"branch index must be an integer in \[0, 8\], got 99"),
        ([1, 0], r"branch index after 1 must be an integer in \[2, 8\], got 0"),
        ([1, 1], r"branch index after 1 must be an integer in \[2, 8\], got 1"),
    ],
    ids=["negative", "past the end", "descending", "repeated"],
)
def test_enumeration_refuses_a_branch_out_of_range_or_order(branches, message):
    # t = 2 has nine branches; each index is refused before any set is built
    assert len(optsearch._table(8).quadruples[1]) == 9
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        next(enumerate_balanced(2, branches))


def assert_draws_match_reference(t, seed, draws):
    ours, reference = Random(seed), Random(seed)
    for _ in range(draws):
        ds = random_balanced(t, ours)
        assert [(p.odd, p.even) for p in ds.pairs] == ordered_random_balanced(t, reference)
    # the same draws leave the generator in the same state
    assert ours.random() == reference.random()


@pytest.fixture
def fresh_table():
    """The table that enumeration and draws share, emptied before and
    after."""
    optsearch._table.cache_clear()
    yield
    optsearch._table.cache_clear()


class CappedFits(dict):
    """A draw memo that checks, at every entry kept, that the memo holds no
    more than DRAW_MEMO_MAX options plus one per entry, and counts the
    times it is emptied."""

    clears = 0

    def __setitem__(self, rem, options):
        super().__setitem__(rem, options)
        assert sum(len(kept) + 1 for kept in self.values()) <= optsearch.DRAW_MEMO_MAX

    def clear(self):
        self.clears += 1
        super().clear()


def capped_table(n):
    table = optsearch._table(n)
    table.fits = CappedFits()
    return table


# t = 9 and t = 19 are the sizes `verify --z 3` and `verify --z 4` sample
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 7, 9, 19])
def test_random_balanced_draws_match_ordered_reference(fresh_table, t):
    assert_draws_match_reference(t, 100 + t, 30)


def test_random_balanced_reuses_its_memo_on_the_same_stream(fresh_table):
    # verify-sample's 2,000 t = 4 draws under one seed: most steps read
    # their options from the memo
    table = capped_table(16)
    assert_draws_match_reference(4, 1, 2000)
    assert table.fits.clears == 0
    assert table.held == sum(len(options) + 1 for options in table.fits.values())
    assert 0 < len(table.fits) < 2000


@pytest.mark.parametrize("t, cap", [(4, 40), (9, 600), (3, 0)])
def test_random_balanced_evicts_at_its_memo_cap_on_the_same_stream(monkeypatch, fresh_table,
                                                                   t, cap):
    monkeypatch.setattr(optsearch, "DRAW_MEMO_MAX", cap)
    table = capped_table(4 * t)
    assert_draws_match_reference(t, 7, 300)
    assert table.held <= cap
    # a cap of 0 keeps nothing, so it never empties the memo either
    assert (table.fits.clears > 0) == (cap > 0)
    assert table.held == sum(len(options) + 1 for options in table.fits.values())


def test_random_balanced_builds_only_the_pairs_it_draws(fresh_table):
    # z = 5's sets (t = 39, 4t = 156): the table lists 307,307 quadruples,
    # and only the pairs of the two sets drawn are built
    rng = Random(1)
    first, second = random_balanced(39, rng), random_balanced(39, rng)
    assert validate_defining_set(first).ok and validate_defining_set(second).ok
    table = optsearch._table(156)
    assert sum(map(len, table.quadruples)) == 307_307
    assert set(table.pair_of.values()) == set(first.pairs) | set(second.pairs)
    assert all(table.pair_of[pair.partition_bits] is pair
               for pair in first.pairs + second.pairs)


def test_enumeration_and_draws_share_one_table(fresh_table):
    # t = 4: draws build the pairs of the quadruples they take, so the
    # enumeration between them starts from a pair_of filled only partly
    fresh = list(enumerate_balanced(4))
    optsearch._table.cache_clear()
    ours, reference = Random(3), Random(3)

    def draw(k):
        for _ in range(k):
            ds = random_balanced(4, ours)
            assert [(p.odd, p.even) for p in ds.pairs] == ordered_random_balanced(4, reference)
            assert all(table.pair_of[p.partition_bits] is p for p in ds.pairs)

    table = optsearch._table(16)
    draw(300)
    assert 0 < len(table.pair_of) < sum(map(len, table.quadruples))
    assert list(enumerate_balanced(4)) == fresh
    assert len(table.pair_of) == sum(map(len, table.quadruples))
    draw(300)
    assert optsearch._table(16) is table
    assert ours.random() == reference.random()


def test_search_draws_its_candidates_through_enumerate_balanced(monkeypatch):
    # perfbench's tracer times optsearch.enumerate_s and counts
    # optsearch.candidates by wrapping this generator function in the module
    assert inspect.isgeneratorfunction(optsearch.enumerate_balanced)
    drawn = []
    original = optsearch.enumerate_balanced

    def counting(t, *args):
        for ds in original(t, *args):
            drawn.append(ds)
            yield ds

    monkeypatch.setattr(optsearch, "enumerate_balanced", counting)
    res = find_optimal(3)
    assert len(drawn) == res.candidates_examined == KNOWN_COUNTS[3] == 86


def test_t4_count_frozen():
    count = sum(1 for _ in enumerate_balanced(4))
    assert count == len(naive_balanced_sets(4)) == KNOWN_COUNTS[4]


def test_t1_unique_set():
    (only,) = enumerate_balanced(1)
    assert only == defining_set(1, (({1, 4}, {2, 3}),))


def test_t2_contains_both_known_examples(opt2, sub2):
    everything = {canon_key(ds) for ds in enumerate_balanced(2)}
    assert is_canonical(opt2) and is_canonical(sub2)
    assert canon_key(opt2) in everything
    assert canon_key(sub2) in everything


def test_enumeration_is_canonical_and_duplicate_free():
    for t in (1, 2, 3):
        seen = set()
        for ds in enumerate_balanced(t):
            assert validate_defining_set(ds).ok
            assert is_canonical(ds)
            key = canon_key(ds)
            assert key not in seen
            seen.add(key)


def test_reflection_closure():
    for t in (2, 3):
        everything = {canon_key(ds) for ds in enumerate_balanced(t)}
        for ds in enumerate_balanced(t):
            # a canonical pair's mirror keeps its smallest rank on the odd
            # side: only the pairs' order changes
            image = sorted(canon_key(mirror(ds)), key=lambda pair: min(pair[0]))
            assert tuple(image) in everything


@pytest.mark.parametrize("t", [1, 2, 3])
def test_find_optimal_values(t):
    res = find_optimal(t)
    d_star, n_opt = KNOWN_OPTIMA[t]
    assert res.d_star == d_star
    assert len(res.optima) == n_opt
    assert res.certified
    assert res.candidates_examined == KNOWN_COUNTS[t]
    assert res.d_star % 2 == 0
    assert res.d_star >= lower_bound(t)
    for ds in res.optima:
        assert worst_case(ds, strategy="branch_and_bound").worst_case == d_star


def test_find_optimal_t2_optimum_is_known_example(opt2):
    res = find_optimal(2)
    assert is_canonical(opt2)
    assert res.optima[0] == opt2


@pytest.mark.parametrize("t", [1, 2, 3])
def test_find_optimal_matches_naive_search(t):
    # oracle: evaluate every canonical set with the brute-force adversary
    from naive_oracles import naive_worst_case

    evaluated = []
    for ds in enumerate_balanced(t):
        pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
        evaluated.append((naive_worst_case(pairs, t)[0], ds))
    d_star = min(w for w, _ in evaluated)
    optima = tuple(ds for w, ds in evaluated if w == d_star)
    res = find_optimal(t)
    assert res.d_star == d_star
    assert res.optima == optima


def test_find_optimal_t4_unique_base_case():
    # the incumbent falls 12 -> 10 -> 8 -> 6 during the search
    res = find_optimal(4)
    assert res.d_star == 6
    assert res.optima == (BASE_CASE_CANONICAL,)
    # the literal is the base case, pair order aside
    assert is_canonical(BASE_CASE_CANONICAL)
    assert set(BASE_CASE_CANONICAL.pairs) == set(base_case().pairs)


def test_find_optimal_deterministic():
    for t in (3, 4):
        first, second = find_optimal(t), find_optimal(t)
        assert first.wall_time > 0 and second.wall_time > 0
        assert first._replace(wall_time=0) == second._replace(wall_time=0)


@pytest.mark.parametrize("cap", [1, 2])
def test_find_optimal_does_not_depend_on_witness_eviction(monkeypatch, cap):
    # no search up to t = 5 fills the default table; a tiny one overwrites
    # a witness at nearly every push, and only the speed may change
    want = {t: find_optimal(t) for t in (3, 4)}
    monkeypatch.setattr(adversary, "WITNESS_CAP", cap)
    for t, full in want.items():
        got = find_optimal(t)
        assert got._replace(wall_time=0) == full._replace(wall_time=0)


def test_search_builds_no_swap_set_for_a_witness_verdict(monkeypatch):
    # a tie carries its witness's positions; SwapSets are built only for
    # exact results: at most one per scan and one per proof
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    built, scans, proofs, by_witness = [], [], [], []
    init = SwapSet.__init__
    scan = adversary._kernels.scan_chunk
    exact = adversary.worst_case
    bounded = adversary.worst_case_bounded

    def counting_init(self, swaps):
        built.append(swaps)
        init(self, swaps)

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    def counting_exact(*args, **kwargs):
        proofs.append(args)
        return exact(*args, **kwargs)

    def counting_bounded(*args, **kwargs):
        res, exceeded = bounded(*args, **kwargs)
        if isinstance(res, adversary.Attained) and res.enumerated == 0:
            by_witness.append(res)
        return res, exceeded

    monkeypatch.setattr(SwapSet, "__init__", counting_init)
    monkeypatch.setattr(adversary._kernels, "scan_chunk", counting_scan)
    monkeypatch.setattr(adversary, "worst_case", counting_exact)
    monkeypatch.setattr(adversary, "worst_case_bounded", counting_bounded)
    res = find_optimal(4)
    assert (res.d_star, len(res.optima)) == KNOWN_OPTIMA[4]
    assert len(by_witness) > len(scans)  # the witness verdicts outnumber the scans
    assert len(built) <= len(scans) + len(proofs)


def test_find_optimal_t5_unique_optimum(monkeypatch):
    # one process: scans in forked shares would not reach `nodes`
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    nodes = []
    scan = adversary._kernels.scan_chunk

    def counting(*args):
        result = scan(*args)
        nodes.append(result[4])
        return result

    monkeypatch.setattr(adversary._kernels, "scan_chunk", counting)
    res = find_optimal(5)
    # ties are proven only at the final D*; proving each tie with the
    # incumbent as it came took 1,166 scans visiting 933,468 swap sets
    assert len(nodes) < 200
    assert sum(nodes) < 50_000
    assert res.d_star == 8
    assert res.certified
    assert res.candidates_examined == KNOWN_COUNTS[5]
    assert res.optima == (
        defining_set(
            5,
            (
                ({1, 20}, {7, 14}),
                ({2, 17}, {9, 10}),
                ({3, 8}, {5, 6}),
                ({4, 19}, {11, 12}),
                ({13, 18}, {15, 16}),
            ),
        ),
    )


def test_time_budget_returns_uncertified_partial():
    res = find_optimal(4, time_budget=0.0)
    assert not res.certified
    assert res.candidates_examined < KNOWN_COUNTS[4]
    assert res.d_star >= 6  # incumbent never goes below the true optimum


class SteppingClock:
    """Stands in for the time module in optsearch: each perf_counter call
    advances one second, so a budget of b seconds lets b candidates past
    the seed be examined.  The searches at t = 3 and 4 that read it run in
    one process on every core count: below t = 5 the search walks its
    branches in one share (tests/test_fork.py)."""

    def __init__(self):
        self._ticks = itertools.count()

    def perf_counter(self):
        return float(next(self._ticks))


@pytest.mark.parametrize("workers", [1, 2])
def test_blown_budget_leaves_unproven_ties_out(monkeypatch, tmp_path, workers):
    monkeypatch.setattr(optsearch, "time", SteppingClock())
    res = find_optimal(4, time_budget=592)
    assert not res.certified
    # 592 candidates after the seed: D* is then 8, attained by 2 of the
    # 593 candidates, while about a hundred were kept as ties with 8.  The
    # budget is blown before any tie is proven, so only the candidate whose
    # scan proved D* = 8 is listed
    examined = list(itertools.islice(enumerate_balanced(4), res.candidates_examined))
    values = [worst_case(ds).worst_case for ds in examined]
    assert res.candidates_examined == 1 + 592
    assert res.d_star == min(values) == 8
    assert [k for k, v in enumerate(values) if v == 8] == [33, 569]
    assert res.optima == (examined[33],)
    # search stops at the same point whatever --workers says
    monkeypatch.setattr(optsearch, "time", SteppingClock())
    out = tmp_path / "search.json"
    argv = ["search", "--t", "4", "--time-budget", "592", "--workers", str(workers),
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["certified"] is False
    assert doc["d_star"] == 8
    assert doc["candidates_examined"] == 1 + 592
    assert doc["optima"] == [defining_set_to_doc(examined[33])]


@pytest.mark.parametrize("budget", [85, 86, 90])
def test_budget_blown_while_proving_stops_the_proofs(monkeypatch, budget):
    full = find_optimal(3)
    assert full.certified and len(full.optima) == 10
    # each clock reading is one second: the loop reads it 85 times, so these
    # budgets let it examine all 86 candidates and then prove only a few ties
    monkeypatch.setattr(optsearch, "time", SteppingClock())
    res = find_optimal(3, time_budget=budget)
    assert not res.certified
    assert res.candidates_examined == 86
    assert res.d_star == full.d_star
    assert 1 <= len(res.optima) < len(full.optima)
    assert res.optima == full.optima[: len(res.optima)]


def test_prove_keeps_the_proven_set_and_the_ties_at_d_star(monkeypatch):
    # a walk at t = 4 that ended at cutoff 10: its first candidate at 10 is
    # the proven set, and the later ones at 10 or above are its ties (a
    # swap set brought each to 10; none can be below)
    d_star = 10
    values = [(ds.pairs, worst_case(ds).worst_case)
              for ds in itertools.islice(enumerate_balanced(4), 60)]
    first = next(k for k, (_, v) in enumerate(values) if v == d_star)
    best = values[first][0]
    ties = [(pairs, v) for pairs, v in values[first + 1:] if v >= d_star]
    assert sum(v == d_star for _, v in ties) > 1 and sum(v > d_star for _, v in ties) > 1
    walk = optsearch._Walk(d_star, best, [pairs for pairs, _ in ties], 60, True)

    def no_exact_scan(*args, **kwargs):
        raise AssertionError("a proof only asks whether some swap set passes D*")

    monkeypatch.setattr(adversary, "worst_case", no_exact_scan)
    monkeypatch.setattr(adversary, "worst_case_bounded", no_exact_scan)
    at_d_star = [pairs for pairs, v in ties if v == d_star]
    assert optsearch._prove(4, walk, None) == walk._replace(ties=at_d_star)
    # a deadline already past: no tie is proven, and the best stays
    late = optsearch._prove(4, walk, time.perf_counter() - 1)
    assert late == walk._replace(ties=[], certified=False)


def test_each_tie_is_proven_once_and_no_best_is_proven(monkeypatch):
    # three shares walked in this process: t = 5 has 81 top-level branches,
    # so each share walks at least 25 of them
    monkeypatch.setattr(_fork, "usable_cores", lambda: 3)
    monkeypatch.setattr(_fork, "fork_map", lambda fn, shares, what: [fn(s) for s in shares])
    walks = []
    walk = optsearch._walk

    def recording_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    scans = []
    scan = adversary._kernels.scan_chunk

    def recording_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(optsearch, "_walk", recording_walk)
    monkeypatch.setattr(adversary._kernels, "scan_chunk", recording_scan)
    res = find_optimal(5)
    assert (res.d_star, res.certified) == (8, True)
    assert len(walks) == 1 + 3  # the warm-up and the shares
    # a proof scan abandons above D* from the floor D* + 1; a bounded scan
    # at cutoff D* + 1 abandons above D* too, but has no floor
    d_star = res.d_star
    proofs = [tuple(map(tuple, args[1:4])) for args in scans
              if args[-2:] == (d_star + 1, d_star)]
    assert proofs
    assert len(set(proofs)) == len(proofs)
    bests = {tuple(map(tuple, core.rank_table(DefiningSet(5, w.best))))
             for w in walks if w.best is not None}
    assert bests and bests.isdisjoint(proofs)


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-9, "5", True, False])
def test_time_budget_must_be_nonnegative(budget):
    with pytest.raises(InvalidInput):
        find_optimal(2, time_budget=budget)


@pytest.mark.parametrize("t", [2, 8])
def test_an_infinite_time_budget_is_refused_before_any_work(monkeypatch, t):
    # an infinite budget is no budget: at t = 8 it would get past the refusal
    # and scan for about 48 CPU-hours
    def no_table(n):
        raise AssertionError(f"built the quadruple table for n = {n}")

    monkeypatch.setattr(optsearch, "_table", no_table)
    for budget in (float("inf"), -float("inf")):
        with pytest.raises(InvalidInput, match="^time_budget .* finite .*, got -?inf$"):
            find_optimal(t, time_budget=budget)


@pytest.mark.parametrize("t", [11, 1_000_000])
def test_search_refused_above_the_scan_limit_before_any_work(monkeypatch, t):
    # every candidate is scanned with branch and bound, which is refused
    # above 4t = EXHAUSTIVE_MAX_RANKS = 40: refuse from t alone, before the
    # quadruple table is built
    def no_table(n):
        raise AssertionError(f"built the quadruple table for n = {n}")

    monkeypatch.setattr(optsearch, "_table", no_table)
    with pytest.raises(SizeRefused, match="t = "):
        find_optimal(t, time_budget=1)


def test_search_from_t8_refused_without_a_budget_before_any_work(monkeypatch):
    # t = 8 has 35,368,663,013 canonical balanced sets, about 48 CPU-hours of
    # scans: without a time budget it is refused before the quadruple table
    # is built, and t = 7 is not
    def no_table(n):
        raise AssertionError(f"built the quadruple table for n = {n}")

    monkeypatch.setattr(optsearch, "_table", no_table)
    for t in (8, 9, 10):
        with pytest.raises(SizeRefused, match=f"^search refused for t = {t} .*35,368,663,013"):
            find_optimal(t)
    with pytest.raises(AssertionError, match="n = 28$"):
        find_optimal(7)


def test_quadruple_table_refused_above_its_cap(monkeypatch):
    monkeypatch.setattr(optsearch, "QUADRUPLE_MAX_RANKS", 12)
    assert validate_defining_set(random_balanced(3, Random(1))).ok
    table = optsearch._table(12)
    for refused in (lambda: random_balanced(4, Random(1)), lambda: next(enumerate_balanced(4))):
        with pytest.raises(SizeRefused, match="^balanced sets over 4t = 16 ranks refused"):
            refused()
    # a refused n leaves the cached table in place
    hits = optsearch._table.cache_info().hits
    assert optsearch._table(12) is table
    assert optsearch._table.cache_info().hits == hits + 1


def test_random_balanced_always_valid_and_canonical():
    rng = Random(33)
    for t in (1, 2, 3, 4, 5):
        for _ in range(20):
            ds = random_balanced(t, rng)
            assert validate_defining_set(ds).ok
            assert is_canonical(ds)


def test_lower_bound_holds_instancewise_small_t():
    for t in (1, 2, 3):
        lb = lower_bound(t)
        for ds in enumerate_balanced(t):
            assert worst_case(ds).worst_case >= lb
