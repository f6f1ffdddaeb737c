"""Balanced-set enumeration and full optimum search at small t.

Enumeration counts are cross-checked against the itertools partition oracle
at t <= 3; larger values are frozen regression constants computed once with
that oracle.
"""

import inspect
import itertools
import json
import math
from random import Random

import pytest

from naive_oracles import (
    naive_balanced_sets,
    ordered_balanced_sets,
    ordered_random_balanced,
)
from swapdisc import _fork, adversary, optsearch
from swapdisc.adversary import worst_case
from swapdisc.cli import EXIT_OK, defining_set_to_doc, main
from swapdisc.construct import base_case, lower_bound
from swapdisc.core import (
    InvalidInput,
    SizeRefused,
    canonicalize,
    defining_set,
    reflect,
    validate_defining_set,
)
from swapdisc.optsearch import (
    count_balanced,
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


def canon_key(ds):
    return tuple((p.odd, p.even) for p in ds.pairs)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_enumeration_matches_partition_oracle(t):
    ours = {canon_key(ds) for ds in enumerate_balanced(t)}
    oracle = naive_balanced_sets(t)
    assert ours == {tuple(entry) for entry in oracle}
    assert len(ours) == KNOWN_COUNTS[t]


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
    branches = range(len(optsearch._quadruples(4 * t)[1]))
    whole = list(enumerate_balanced(t))
    assert [ds for b in branches for ds in enumerate_balanced(t, [b])] == whole
    assert list(enumerate_balanced(t, branches)) == whole
    assert list(enumerate_balanced(t, [])) == []


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 7])
def test_random_balanced_draws_match_ordered_reference(t):
    ours, reference = Random(100 + t), Random(100 + t)
    for _ in range(30):
        ds = random_balanced(t, ours)
        assert [(p.odd, p.even) for p in ds.pairs] == ordered_random_balanced(t, reference)
    # the same draws leave the generator in the same state
    assert ours.random() == reference.random()


def test_search_draws_its_candidates_through_enumerate_balanced(monkeypatch):
    # perfbench's tracer times optsearch.enumerate_s and counts
    # optsearch.candidates by wrapping this generator function in the module
    assert inspect.isgeneratorfunction(optsearch.enumerate_balanced)
    drawn = []
    original = optsearch.enumerate_balanced

    def counting(t):
        for ds in original(t):
            drawn.append(ds)
            yield ds

    monkeypatch.setattr(optsearch, "enumerate_balanced", counting)
    res = find_optimal(3)
    assert len(drawn) == res.candidates_examined == KNOWN_COUNTS[3] == 86


def test_t4_count_frozen():
    assert count_balanced(4) == KNOWN_COUNTS[4]


def test_t1_unique_set():
    (only,) = enumerate_balanced(1)
    assert only == defining_set(1, (({1, 4}, {2, 3}),))


def test_t2_contains_both_known_examples(opt2, sub2):
    everything = {canon_key(ds) for ds in enumerate_balanced(2)}
    assert canon_key(canonicalize(opt2)) in everything
    assert canon_key(canonicalize(sub2)) in everything


def test_enumeration_is_canonical_and_duplicate_free():
    for t in (1, 2, 3):
        seen = set()
        for ds in enumerate_balanced(t):
            assert validate_defining_set(ds).ok
            assert canonicalize(ds) == ds
            key = canon_key(ds)
            assert key not in seen
            seen.add(key)


def test_reflection_closure():
    for t in (2, 3):
        everything = {canon_key(ds) for ds in enumerate_balanced(t)}
        for ds in enumerate_balanced(t):
            assert canon_key(canonicalize(reflect(ds))) in everything


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
    assert res.optima[0] == canonicalize(opt2)


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
    assert res.optima == (canonicalize(base_case()),)


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
    one process on every core count: below t = 5 the search does not fork
    (tests/test_fork.py)."""

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


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-9])
def test_time_budget_must_be_nonnegative(budget):
    with pytest.raises(InvalidInput):
        find_optimal(2, time_budget=budget)


@pytest.mark.parametrize("t", [11, 1_000_000])
def test_search_refused_above_the_scan_limit_before_any_work(monkeypatch, t):
    # every candidate is scanned with branch and bound, which is refused
    # above 4t = EXHAUSTIVE_MAX_RANKS = 40: refuse from t alone, before the
    # quadruple table is built
    def no_table(n):
        raise AssertionError(f"built the quadruple table for n = {n}")

    monkeypatch.setattr(optsearch, "_quadruples", no_table)
    with pytest.raises(SizeRefused, match="t = "):
        find_optimal(t, time_budget=1)


def test_random_balanced_always_valid_and_canonical():
    rng = Random(33)
    for t in (1, 2, 3, 4, 5):
        for _ in range(20):
            ds = random_balanced(t, rng)
            assert validate_defining_set(ds).ok
            assert canonicalize(ds) == ds


def test_lower_bound_holds_instancewise_small_t():
    for t in (1, 2, 3):
        lb = lower_bound(t)
        for ds in enumerate_balanced(t):
            assert worst_case(ds).worst_case >= math.ceil(lb)
