"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single `[criterion N] PASS/FAIL` line (run with -s to see
them); timings are wall-clock and asserted against the stated budgets.

Populations: criterion 7 and 8 share the same instances (conftest's
`population`), namely every canonical balanced set at t <= 2 plus 1000
seeded random balanced sets at each of t = 3 and t = 4, evaluated with the
literal (original-set) membership convention.
"""

import time
from random import Random

import pytest

from naive_oracles import fib, mirror, naive_discrepancy, random_swap_positions
from swapdisc.adversary import minimal_maximizer_property, worst_case
from swapdisc.construct import (
    base_case,
    construct_for_z,
    lower_bound,
    recursive_step,
    upper_bound,
)
from swapdisc.core import (
    SwapSet,
    apply_swaps,
    defining_set,
    discrepancy,
    validate_defining_set,
)
from swapdisc.graphs import verify_lemma2, verify_prop1, verify_prop2
from swapdisc.optsearch import enumerate_balanced, find_optimal, random_balanced

# OPT2 is in canonical form: each odd set holds its pair's smallest rank,
# and the pairs ascend by it
OPT2 = defining_set(2, (({1, 8}, {3, 6}), ({2, 7}, {4, 5})))
SUB2 = defining_set(2, (({1, 4}, {2, 3}), ({5, 8}, {6, 7})))
# base_case() in canonical form
BASE_CASE_CANONICAL = defining_set(
    4, (({1, 16}, {8, 9}), ({2, 7}, {4, 5}), ({3, 14}, {6, 11}), ({10, 15}, {12, 13}))
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_full_search_t2():
    started = time.perf_counter()
    res = find_optimal(2)
    elapsed = time.perf_counter() - started
    ok = (
        res.d_star == 4
        and OPT2 in res.optima
        and res.certified
        and elapsed < 5.0
    )
    report(1, ok, f"D*(2) = {res.d_star}, optimal example found, {elapsed:.2f}s < 5s")


def test_criterion_2_suboptimal_t2_worst_case_6():
    started = time.perf_counter()
    res = worst_case(SUB2)
    elapsed = time.perf_counter() - started
    ok = res.worst_case == 6 and elapsed < 1.0
    report(2, ok, f"suboptimal t=2 worst case = {res.worst_case}, {elapsed:.3f}s < 1s")


def test_criterion_3_base_case_worst_case_6():
    started = time.perf_counter()
    res = worst_case(base_case(), strategy="exhaustive")
    elapsed = time.perf_counter() - started
    ok = res.worst_case == 6 and res.enumerated == 1597 and elapsed < 1.0
    report(
        3,
        ok,
        f"worst_case(base_case) = {res.worst_case} over {res.enumerated} swap sets, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_4_full_search_t4_unique_optimum():
    started = time.perf_counter()
    res = find_optimal(4)
    elapsed = time.perf_counter() - started
    ok = (
        res.d_star == 6
        and res.optima == (BASE_CASE_CANONICAL,)
        and set(BASE_CASE_CANONICAL.pairs) == set(base_case().pairs)
        and res.certified
        and elapsed < 3600.0
    )
    report(
        4,
        ok,
        f"D*(4) = {res.d_star}, unique canonical optimum = base case, "
        f"{res.candidates_examined} candidates, {elapsed:.1f}s < 1h",
    )


def test_criterion_5_exact_d3_brute_force():
    ds = construct_for_z(3)
    started = time.perf_counter()
    res = worst_case(ds, strategy="exhaustive")
    elapsed = time.perf_counter() - started
    witness = res.minimal_maximizer
    naive_pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
    ok = (
        res.worst_case == 14
        and res.enumerated == 24_157_817 == fib(4 * 9 + 1)
        and naive_discrepancy(naive_pairs, witness.positions) == 14
        and 14 <= 2 * 6 + 2
        and 14 == upper_bound(3)
        and elapsed < 600.0
    )
    report(
        5,
        ok,
        f"d_3 = {res.worst_case} over {res.enumerated} matchings, witness "
        f"independently re-evaluated, doubling bound 14 <= 2*6+2 with the "
        f"closed form attained at level 3, {elapsed:.1f}s < 10min",
    )


def test_criterion_6_bound_sandwich():
    details = []
    ok = True
    for t in (1, 2, 3, 4):
        d_star = find_optimal(t).d_star
        ceil_even = lower_bound(t)
        if ceil_even % 2:
            ceil_even += 1
        ok = ok and ceil_even <= d_star
        details.append(f"t={t}: {ceil_even} <= {d_star}")
    report(6, ok, "; ".join(details))


def test_criterion_7_eq8_population(population):
    violations = 0
    for ds, res in population:
        if res.worst_case != 2 * len(res.minimal_maximizer):
            violations += 1
        elif not minimal_maximizer_property(ds, res):
            violations += 1
    ok = violations == 0
    report(7, ok, f"worst_case = 2|I*| on {len(population)} instances, {violations} violations")


def test_criterion_8_lemma2_eq10_prop1_population(population):
    violations = 0
    for ds, res in population:
        i_star = res.minimal_maximizer
        entries = list(verify_lemma2(ds, i_star).values())
        entries += [verify_prop1(ds, i_star, subsets=f) for f in ("components", "singletons")]
        if not all(entry["holds"] for entry in entries):
            violations += 1
    ok = violations == 0
    report(
        8,
        ok,
        f"component arc bound, global edge bound, and in(V) <= d(V) under "
        f"literal membership on {len(population)} instances, {violations} violations",
    )


def test_criterion_9_prop2_spot_checks():
    iso1 = defining_set(3, (({1, 10}, {5, 6}), ({2, 11}, {4, 9}), ({3, 12}, {7, 8})))
    res1 = worst_case(iso1)
    rep1 = verify_prop2(iso1, res1.minimal_maximizer)
    e1 = next(e for e in rep1["details"]["entries"] if e["node"] == 3)

    iso2 = defining_set(
        4,
        (({1, 16}, {7, 10}), ({2, 14}, {3, 13}), ({4, 11}, {6, 9}), ({5, 15}, {8, 12})),
    )
    res2 = worst_case(iso2)
    rep2 = verify_prop2(iso2, res2.minimal_maximizer)
    e2 = next(e for e in rep2["details"]["entries"] if e["node"] == 4)

    total1, total2 = e1["d"] + e1["d_out"], e2["d"] + e2["d_out"]
    ok = (e1["kind"], e1["d"], total1, e2["kind"], e2["d"], total2) == (1, 0, 3, 2, 0, 4)
    report(
        9,
        ok,
        f"isolated type-1 node: d+d_out = {total1} (want 3); "
        f"isolated type-2 node: d+d_out = {total2} (want 4)",
    )


def test_criterion_10_structural_invariant_suite():
    started = time.perf_counter()
    cases = 0
    ok = True

    # involution of apply_swaps on random instances
    rng = Random(101)
    for _ in range(4000):
        t = rng.randint(1, 5)
        ds = random_balanced(t, rng)
        swaps = SwapSet(random_swap_positions(t, rng))
        ok = ok and apply_swaps(apply_swaps(ds, swaps), swaps) == ds
        cases += 1

    # discrepancy parity on random perturbations
    for _ in range(3000):
        t = rng.randint(1, 4)
        ds = random_balanced(t, rng)
        swaps = SwapSet(random_swap_positions(t, rng))
        ok = ok and discrepancy(ds, swaps) % 2 == 0
        cases += 1

    # partition validity and closing-pair balance of each construction level
    for z in (2, 3, 4, 5):
        ds = construct_for_z(z)
        ok = ok and validate_defining_set(ds).ok
        last = ds.pairs[-1]
        ok = ok and last.sum_odd == last.sum_even == 5 * 2**z - 3
        stepped = recursive_step(ds)
        closing = stepped.pairs[-1]
        ok = ok and closing.sum_odd == closing.sum_even == 5 * 2 ** (z + 1) - 3
        cases += 3

    # evenness of worst-case values across small instances
    evens = list(enumerate_balanced(1)) + list(enumerate_balanced(2))
    evens += [random_balanced(3, rng) for _ in range(500)]
    for ds in evens:
        ok = ok and worst_case(ds, strategy="branch_and_bound").worst_case % 2 == 0
        cases += 1

    # reflection invariance of the worst case and of discrepancy at t=2
    for ds in enumerate_balanced(2):
        ok = ok and worst_case(ds).worst_case == worst_case(mirror(ds)).worst_case
        cases += 1
        for _ in range(450):
            swaps = SwapSet(random_swap_positions(2, rng))
            ok = ok and discrepancy(ds, swaps) == discrepancy(
                mirror(ds), SwapSet(8 - i for i in swaps.positions)
            )
            cases += 1

    elapsed = time.perf_counter() - started
    ok = ok and cases >= 10_000 and elapsed < 120.0
    report(10, ok, f"{cases} generated cases, all invariants hold, {elapsed:.1f}s < 2min")
