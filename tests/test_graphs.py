"""Swap/potential graphs: construction rules, inequality checkers, exports.

The proposition-2 witnesses are concrete instances found by sweeping all
minimum-size maximizers of small populations; each test recomputes the
adversary result, so the frozen values double as determinism checks.
"""

from itertools import combinations, product
import json
from random import Random

import pytest

from naive_oracles import (
    d_of,
    in_of,
    mirror,
    naive_pot_arcs,
    naive_swap_sets,
    out_of,
    random_swap_positions,
    side_by_side,
)
from swapdisc.adversary import worst_case
from swapdisc.cli import _adversary_checks
from swapdisc.construct import (
    base_case,
    construct_for_z,
    lower_bound,
    lower_bound_str,
    recursive_step,
)
from swapdisc.core import (
    EMPTY_SWAPS,
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SwapSet,
    classify_pair,
    defining_set,
    discrepancy,
    validate_defining_set,
)
from swapdisc import graphs
from swapdisc.graphs import (
    PotArc,
    SwpEdge,
    build_pot,
    build_swp,
    dot_texts,
    export_graphs,
    prop1_entry,
    tally,
    verify_lemma2,
    verify_prop1,
    verify_prop2,
)
from swapdisc.optsearch import enumerate_balanced, random_balanced


def swaps_of(*positions):
    return SwapSet(positions)


def exported(swp, pot):
    """(t, edges, arcs) rebuilt from export_graphs' document, each record
    from exactly its fields."""
    doc = json.loads(export_graphs(swp, pot))
    return (
        doc["t"],
        tuple(SwpEdge(**e | {"swap": tuple(e["swap"])}) for e in doc["swp"]["edges"]),
        tuple(PotArc(**a | {"swap": tuple(a["swap"])}) for a in doc["pot"]["arcs"]),
    )


def prop1_on_every_subset(ds, i_star):
    """in(V) <= d(V) on every subset V of the t nodes, the empty one first,
    by size: [(V, in, d), ...]."""
    swp, pot = build_swp(ds, i_star), build_pot(ds, i_star)
    nodes = range(1, ds.t + 1)
    return [(list(v), in_of(pot, v), d_of(swp, v))
            for k in range(ds.t + 1) for v in combinations(nodes, k)]


# ---------------------------------------------------------------- build_swp

def test_swp_double_edge_one_component(opt2):
    swp = build_swp(opt2, swaps_of(1, 5))
    assert [(e.u, e.v) for e in swp.edges] == [(1, 2), (1, 2)]
    assert swp.components == (frozenset({1, 2}),)


def test_swp_empty_swaps_isolated_nodes(opt2):
    swp = build_swp(opt2, EMPTY_SWAPS)
    assert swp.edges == ()
    assert swp.components == (frozenset({1}), frozenset({2}))


def test_swp_self_loop(t1):
    swp = build_swp(t1, swaps_of(1))
    assert [(e.u, e.v) for e in swp.edges] == [(1, 1)]
    assert swp.n_edges == 1


def test_swp_edge_count_equals_swap_count():
    rng = Random(3)
    for _ in range(10):
        ds = random_balanced(3, rng)
        res = worst_case(ds, strategy="branch_and_bound")
        swp = build_swp(ds, res.minimal_maximizer)
        assert swp.n_edges == len(res.minimal_maximizer)


# ---------------------------------------------------------------- build_pot

def test_pot_t1_worked_example(t1):
    pot = build_pot(t1, swaps_of(1))
    assert [(a.tail, a.head, a.swap, a.cond) for a in pot.arcs] == [
        (1, 0, (0, 1), "b1"),
        (1, 0, (4, 5), "b1"),
    ]
    assert out_of(pot, (1,)) == 2
    assert in_of(pot, (1,)) == 0
    assert in_of(pot, (0,)) == 2
    assert out_of(pot, (0,)) == 0
    # (in, out, d) of v1, then of v0; the self-loop is v1's one swap edge
    assert tally(build_swp(t1, swaps_of(1)), pot, [(1,), (0,)]) == [(0, 2, 1), (2, 0, 0)]


def test_node_set_counts_match_single_node_degrees():
    # the single-node degrees of the paper, counted straight from their
    # definitions: an arc into or out of v from another node (v0 included),
    # a swap edge at v (a self-loop once); on the minimal maximizer and on
    # a random swap set, whose graphs also hold self-loop arcs
    rng = Random(34)
    for t in (1, 2, 3, 4):
        for _ in range(25):
            ds = random_balanced(t, rng)
            for swaps in (worst_case(ds).minimal_maximizer,
                          swaps_of(*random_swap_positions(t, rng))):
                swp, pot = build_swp(ds, swaps), build_pot(ds, swaps)
                for v in range(0, t + 1):
                    assert in_of(pot, (v,)) == sum(
                        1 for a in pot.arcs if a.head == v and a.tail != v
                    )
                    assert out_of(pot, (v,)) == sum(
                        1 for a in pot.arcs if a.tail == v and a.head != v
                    )
                    assert d_of(swp, (v,)) == sum(1 for e in swp.edges if v in (e.u, e.v))


def test_pot_boundary_rule2_rank1_in_even_set():
    ds = defining_set(1, (({2, 3}, {1, 4}),))
    pot = build_pot(ds, EMPTY_SWAPS)
    assert any(a.head == 0 and a.swap == (0, 1) and a.cond == "b2" for a in pot.arcs)


def test_pot_boundary_rule2_mirror_max_rank_in_odd_set(t1):
    pot = build_pot(t1, EMPTY_SWAPS)
    b2 = [a for a in pot.arcs if a.head == 0]
    assert [(a.swap, a.cond) for a in b2] == [((4, 5), "b2")]


def test_pot_no_arc_leaves_v0_and_v0_in_degree_at_most_2():
    rng = Random(8)
    for _ in range(25):
        ds = random_balanced(3, rng)
        res = worst_case(ds, strategy="branch_and_bound")
        pot = build_pot(ds, res.minimal_maximizer)
        assert all(a.tail != 0 for a in pot.arcs)
        assert sum(1 for a in pot.arcs if a.head == 0) <= 2


def test_pot_global_flow_balance():
    rng = Random(21)
    for _ in range(25):
        ds = random_balanced(4, rng)
        res = worst_case(ds, strategy="branch_and_bound")
        pot = build_pot(ds, res.minimal_maximizer)
        nodes = range(0, ds.t + 1)
        assert sum(in_of(pot, (v,)) for v in nodes) == sum(out_of(pot, (v,)) for v in nodes)
        # no arc leaves v0, so the slack over v1..vt is minus the arcs into v0
        slack = sum(in_of(pot, (v,)) - out_of(pot, (v,)) for v in nodes if v)
        into_v0 = sum(1 for a in pot.arcs if a.head == 0)
        lemma2 = verify_lemma2(ds, res.minimal_maximizer)["lemma2"]
        assert lemma2["details"]["global_slack"] == slack == -into_v0


def test_pot_conditions_5_and_6_only_at_equality():
    rng = Random(31)
    for _ in range(25):
        ds = random_balanced(3, rng)
        res = worst_case(ds, strategy="branch_and_bound")
        from swapdisc.core import apply_swaps

        primed = apply_swaps(ds, res.minimal_maximizer)
        pot = build_pot(ds, res.minimal_maximizer)
        for a in pot.arcs:
            if a.cond in (5, 6):
                assert primed.pairs[a.tail - 1].imbalance == 0


def test_pot_arcs_match_literal_oracle():
    # independent transcription of the six conditions plus boundary rules,
    # scanning every ordered node pair with plain set membership, read from
    # the original and from the primed sets

    rng = Random(77)
    for _ in range(60):
        t = rng.randint(1, 4)
        ds = random_balanced(t, rng)
        positions = random_swap_positions(t, rng)
        naive_pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
        for membership in ("original", "primed"):
            pot = build_pot(ds, SwapSet(positions), membership=membership)
            got = sorted(
                ((a.tail, a.head, a.swap, a.cond) for a in pot.arcs),
                key=lambda a: (a[2], str(a[3])),
            )
            assert got == naive_pot_arcs(naive_pairs, positions, t, membership)


def test_pot_membership_conventions_differ_as_pinned(opt2):
    # after I = {(1,2),(5,6)} the ranks 1/2 and 5/6 sit in swapped pairs, so
    # the two membership conventions disagree; both stay structurally sound
    lit = build_pot(opt2, swaps_of(1, 5), membership="original")
    assert [(a.tail, a.head, a.swap, a.cond) for a in lit.arcs] == [
        (1, 2, (2, 3), 2),
        (2, 1, (6, 7), 4),
        (1, 0, (8, 9), "b1"),
    ]
    primed = build_pot(opt2, swaps_of(1, 5), membership="primed")
    assert [(a.tail, a.head, a.swap, a.cond) for a in primed.arcs] == [
        (2, 0, (0, 1), "b1"),
        (1, 1, (2, 3), 2),
        (1, 1, (2, 3), 3),
        (2, 1, (4, 5), 1),
        (1, 2, (4, 5), 2),
        (2, 2, (6, 7), 1),
        (2, 2, (6, 7), 4),
        (1, 0, (8, 9), "b1"),
    ]
    assert all(a.tail != 0 for a in lit.arcs + primed.arcs)
    with pytest.raises(InvalidInput):
        build_pot(opt2, swaps_of(1, 5), membership="nonsense")


def test_graph_builders_reject_invalid_sets_with_the_validator_text():
    for ds in (
        defining_set(2, (({1, 4}, {2, 3}), ({1, 8}, {4, 5}))),  # repeated ranks
        defining_set(2, (({1, 4}, {2, 3}), ({5, 7}, {6, 8}))),  # unbalanced pair
    ):
        text = "invalid defining set: " + "; ".join(validate_defining_set(ds).violations)
        for build in (build_swp, build_pot):
            with pytest.raises(InvalidInput) as err:
                build(ds, EMPTY_SWAPS)
            assert str(err.value) == text


def test_graph_builders_reject_a_swap_outside_the_ranks(t1, opt2):
    for ds, swaps, text in (
        (t1, swaps_of(4), "swap (4, 5) outside [1, 4]"),
        (opt2, swaps_of(1, 8), "swap (8, 9) outside [1, 8]"),
    ):
        for build in (build_swp, build_pot):
            with pytest.raises(InvalidInput) as err:
                build(ds, swaps)
            assert str(err.value) == text


def reference_swp(ds, swaps):
    """(edges, components) by definition: per swap in ascending order, the
    pairs holding its two ranks in the original sets; components by
    flooding from each node not yet reached, in ascending order."""
    holder = {r: k + 1 for k, pair in enumerate(ds.pairs) for r in pair.elements}
    edges = []
    for i in sorted(swaps.positions):
        a, b = holder[i], holder[i + 1]
        edges.append((min(a, b), max(a, b), (i, i + 1)))
    components, reached = [], set()
    for v in range(1, ds.t + 1):
        if v in reached:
            continue
        comp, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for a, b, _ in edges:
                if x in (a, b):
                    new = {a, b} - comp
                    comp |= new
                    todo.extend(new)
        reached |= comp
        components.append(frozenset(comp))
    return edges, tuple(components)


def role_variants(ds):
    """ds with every choice of which side of each pair is odd."""
    for flips in product((False, True), repeat=ds.t):
        yield DefiningSet(ds.t, tuple(
            CompanionPair(p.even, p.odd) if flip else p for p, flip in zip(ds.pairs, flips)
        ))


def test_builds_match_references_in_order():
    # build_pot emits its arcs in (swap, str(cond)) order without sorting
    # them, and build_swp its edges in swap order: compare both, order
    # included, with references that sort by those keys, on every swap set
    # of every balanced set with t <= 2 and on maximizers at t = 3 and 4
    cases = [
        (ds, SwapSet(positions))
        for t in (1, 2)
        for canon in enumerate_balanced(t)
        for ds in role_variants(canon)
        for positions in naive_swap_sets(4 * t)
    ]
    rng = Random(61)
    for t in (3, 3, 3, 4, 4, 4):
        ds = random_balanced(t, rng)
        cases += [(image, worst_case(image).minimal_maximizer) for image in role_variants(ds)]
    for ds, swaps in cases:
        positions = swaps.positions
        naive_pairs = [(set(p.odd), set(p.even)) for p in ds.pairs]
        swp = build_swp(ds, swaps)
        assert ([(e.u, e.v, e.swap) for e in swp.edges], swp.components) == reference_swp(
            ds, swaps
        )
        for membership in ("original", "primed"):
            pot = build_pot(ds, swaps, membership=membership)
            got = [(a.tail, a.head, a.swap, a.cond) for a in pot.arcs]
            # naive_pot_arcs returns its arcs sorted by (swap, str(cond))
            assert got == naive_pot_arcs(naive_pairs, positions, ds.t, membership)
            assert exported(swp, pot) == (ds.t, swp.edges, pot.arcs)
    for ds, swaps in ((cases[0][0], swaps_of(4)), (cases[-1][0], swaps_of(3, 40))):
        for build in (build_swp, build_pot):
            with pytest.raises(InvalidInput, match="outside"):
                build(ds, swaps)


# ------------------------------------------------------------------- tally

def reference_checks(ds, i_star):
    """The lemma2, eq10, prop1 and prop2 entries, each count read by one
    scan of the arcs or edges per node set (naive_oracles' in_of, out_of
    and d_of)."""
    swp, pot = build_swp(ds, i_star), build_pot(ds, i_star)
    components = []
    for comp in swp.components:
        in_a, out_a = in_of(pot, comp), out_of(pot, comp)
        bound = len(comp) + 4 * (d_of(swp, comp) - len(comp))
        components.append({"nodes": sorted(comp), "in": in_a, "out": out_a, "bound": bound,
                           "holds": in_a - out_a <= bound})
    slack = -in_of(pot, (0,))
    prop1 = {
        name: [{"nodes": sorted(s), "in": in_of(pot, s), "d": d_of(swp, s)} for s in family]
        for name, family in (("components", swp.components),
                             ("singletons", [{v} for v in range(1, ds.t + 1)]))
    }
    entries, skipped = [], []
    for comp in swp.components:
        if d_of(swp, comp) + 1 != len(comp):
            skipped.extend(sorted(comp))
            continue
        for v in sorted(comp):
            kind = classify_pair(ds.pairs[v - 1]).kind
            d_v, d_out = d_of(swp, (v,)), out_of(pot, (v,))
            expected = None if kind == 3 else kind + 2
            entries.append({"node": v, "kind": kind, "d": d_v, "d_out": d_out,
                            "expected": expected, "holds": d_v + d_out == expected})
    lhs = 2 * len(swp.edges)
    return {
        "lemma2": {"holds": all(c["holds"] for c in components) and slack >= -2,
                   "details": {"components": components, "global_slack": slack}},
        "eq10": {"holds": lhs >= lower_bound(ds.t),
                 "details": {"lhs": lhs, "rhs": lower_bound_str(ds.t)}},
        "prop1": {"holds": all(e["in"] <= e["d"] for f in prop1.values() for e in f),
                  "details": prop1},
        "prop2": {"holds": all(e["holds"] for e in entries),
                  "details": {"entries": entries, "out_of_regime": skipped}},
    }


def oracle_cases(population):
    """(ds, swap set): the acceptance population on its minimal maximizers,
    construction levels 2..6 and block-built sets on theirs, and random swap
    sets, whose graphs hold self-loop arcs, on random and block-built sets."""
    yield from ((ds, res.minimal_maximizer) for ds, res in population)
    rng = Random(42)
    blocks = [construct_for_z(z) for z in range(2, 7)]
    blocks += [side_by_side(base_case(), k) for k in (2, 3, 7)]
    blocks += [recursive_step(random_balanced(4, rng), 2) for _ in range(10)]
    for ds in blocks:
        yield ds, worst_case(ds).minimal_maximizer
        yield ds, SwapSet(random_swap_positions(ds.t, rng))
    for t in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            yield random_balanced(t, rng), SwapSet(random_swap_positions(t, rng))


def test_tally_and_checks_match_the_per_subset_scans(population):
    # every tally entry on the checkers' families, on one with v0, and on a
    # random family of disjoint node sets that leaves some nodes out; then
    # each checker's entries, all as Python objects
    rng = Random(5)
    cases = 0
    for ds, swaps in oracle_cases(population):
        swp, pot = build_swp(ds, swaps), build_pot(ds, swaps)
        nodes = list(range(ds.t + 1))
        rng.shuffle(nodes)
        cuts = sorted(rng.sample(range(ds.t + 2), min(4, ds.t + 2)))
        for family in (swp.components, swp.components + ((0,),),
                       [(v,) for v in range(ds.t + 1)],
                       [nodes[a:b] for a, b in zip(cuts, cuts[1:])]):
            assert tally(swp, pot, family) == [
                (in_of(pot, s), out_of(pot, s), d_of(swp, s)) for s in family
            ]
        got = verify_lemma2(ds, swaps) | {"prop1": prop1_entry(ds, swaps),
                                          "prop2": verify_prop2(ds, swaps)}
        assert got == reference_checks(ds, swaps)
        cases += 1
    assert cases == len(population) + 2 * 18 + 6 * 20


class Passes(tuple):
    """A tuple that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def test_each_check_passes_over_each_graph_a_fixed_number_of_times(monkeypatch):
    # the arcs and edges each check reads are looped over at most twice,
    # whether the set has one block or fifty: no pass per node set
    built = []

    def counted(build, field):
        def call(*args, **kwargs):
            graph = build(*args, **kwargs)
            built.append(Passes(getattr(graph, field)))
            return graph._replace(**{field: built[-1]})
        return call

    monkeypatch.setattr(graphs, "build_swp", counted(build_swp, "edges"))
    monkeypatch.setattr(graphs, "build_pot", counted(build_pot, "arcs"))
    loops = {}
    for ds in (base_case(), side_by_side(base_case(), 50)):
        i_star = worst_case(ds).minimal_maximizer
        for check in (verify_lemma2, prop1_entry, verify_prop2):
            built.clear()
            check(ds, i_star)
            loops.setdefault(check.__name__, []).append([seq.loops for seq in built])
    assert loops == {"verify_lemma2": [[1, 1]] * 2, "prop1_entry": [[1, 1, 1, 1]] * 2,
                     "verify_prop2": [[2, 2]] * 2}


# ----------------------------------------------------------- verify_lemma2

def test_lemma2_t1_component_bound(t1):
    lemma2 = verify_lemma2(t1, swaps_of(1))["lemma2"]
    (comp,) = lemma2["details"]["components"]
    # one node and its self-loop: |V| + 4(|E| - |V|) = 1
    assert (comp["nodes"], comp["bound"]) == ([1], 1)
    assert comp["in"] - comp["out"] == -2
    assert comp["holds"]
    assert lemma2 == {"holds": True, "details": {"components": [comp], "global_slack": -2}}


def test_lemma2_eq10_t2_optimal(opt2):
    res = worst_case(opt2)
    entries = verify_lemma2(opt2, res.minimal_maximizer)
    assert entries["eq10"] == {"holds": True, "details": {"lhs": 4, "rhs": "2/1"}}
    assert entries["lemma2"]["holds"]


def test_lemma2_eq10_base_case():
    res = worst_case(base_case())
    assert len(res.minimal_maximizer) == 3
    entries = verify_lemma2(base_case(), res.minimal_maximizer)
    assert entries["eq10"] == {"holds": True, "details": {"lhs": 6, "rhs": "5/1"}}
    assert entries["lemma2"]["holds"]


def test_eq10_rhs_is_the_lower_bound_written_p_over_q(t1):
    # 3t/2 - 1 at t = 1 is 1/2: the one fraction the t = 1 graphs can fail
    assert verify_lemma2(t1, EMPTY_SWAPS)["eq10"] == {
        "holds": False, "details": {"lhs": 0, "rhs": "1/2"}
    }


# ------------------------------------------------------------ verify_prop1

def test_prop1_singleton_t1(t1):
    assert verify_prop1(t1, swaps_of(1), subsets="singletons") == {
        "holds": True, "details": [{"nodes": [1], "in": 0, "d": 1}]
    }


def test_prop1_all_subsets_t2_including_empty(opt2):
    entries = prop1_on_every_subset(opt2, worst_case(opt2).minimal_maximizer)
    # the 2^2 subsets of {v1, v2}, by size
    assert [nodes for nodes, _, _ in entries] == [[], [1], [2], [1, 2]]
    assert entries[0] == ([], 0, 0)
    assert all(in_v <= d_v for _, in_v, d_v in entries)


def test_prop1_unknown_family_rejected(t1):
    with pytest.raises(InvalidInput):
        verify_prop1(t1, swaps_of(1), subsets="everything")


def test_prop1_refuses_before_building(t1, monkeypatch):
    # an unknown family is refused before either graph is built; an invalid
    # set still gets the validator's text first, whatever the family
    calls = []

    def counted(build):
        def call(*args, **kwargs):
            calls.append(build.__name__)
            return build(*args, **kwargs)
        return call

    for build in (build_swp, build_pot):
        monkeypatch.setattr(graphs, build.__name__, counted(build))
    with pytest.raises(InvalidInput, match="^unknown subset family 'everything'$"):
        verify_prop1(t1, swaps_of(1), subsets="everything")
    unbalanced = defining_set(1, (({1, 2}, {3, 4}),))
    text = "invalid defining set: " + "; ".join(validate_defining_set(unbalanced).violations)
    for family in ("everything", "components"):
        with pytest.raises(InvalidInput) as err:
            verify_prop1(unbalanced, EMPTY_SWAPS, subsets=family)
        assert str(err.value) == text
    assert calls == []
    verify_prop1(t1, swaps_of(1))
    assert calls == ["build_swp", "build_pot"]


# ------------------------------------------------------------ verify_prop2

ISOLATED_TYPE1 = defining_set(
    3, (({1, 10}, {5, 6}), ({2, 11}, {4, 9}), ({3, 12}, {7, 8}))
)
ISOLATED_TYPE2 = defining_set(
    4,
    (({1, 16}, {7, 10}), ({2, 14}, {3, 13}), ({4, 11}, {6, 9}), ({5, 15}, {8, 12})),
)


def test_prop2_isolated_type1_witness():
    res = worst_case(ISOLATED_TYPE1)
    assert res.minimal_maximizer.positions == (1, 4, 10)
    rep = verify_prop2(ISOLATED_TYPE1, res.minimal_maximizer)
    entry = next(e for e in rep["details"]["entries"] if e["node"] == 3)
    assert entry == {"node": 3, "kind": 1, "d": 0, "d_out": 3, "expected": 3, "holds": True}
    assert rep["holds"]


def test_prop2_isolated_type2_witness():
    res = worst_case(ISOLATED_TYPE2)
    assert res.minimal_maximizer.positions == (1, 3, 6, 9, 13)
    rep = verify_prop2(ISOLATED_TYPE2, res.minimal_maximizer)
    entry = next(e for e in rep["details"]["entries"] if e["node"] == 4)
    assert entry == {"node": 4, "kind": 2, "d": 0, "d_out": 4, "expected": 4, "holds": True}
    assert rep["holds"]


def test_prop2_reports_a_kind3_node_in_an_acyclic_component(t1):
    # {1, 4} / {2, 3} is kind 3; without swaps it is its own acyclic component
    rep = verify_prop2(t1, EMPTY_SWAPS)
    (entry,) = rep["details"]["entries"]
    assert (entry["node"], entry["kind"], entry["expected"], entry["holds"]) == (1, 3, None, False)
    assert rep == {"holds": False, "details": {"entries": [entry], "out_of_regime": []}}


def test_prop2_lists_the_nodes_of_a_cyclic_component_out_of_regime(t1):
    # one swap inside the only pair is a self-loop: a cycle, so no entry
    assert verify_prop2(t1, swaps_of(1)) == {
        "holds": True, "details": {"entries": [], "out_of_regime": [1]}
    }


def test_prop2_type1_with_one_swap_in_istar():
    # base case with maximizer {(1,2),(5,6),(10,11)}: discrepancy 6 = 2*3,
    # so it is a minimum-size maximizer; node v1 then has d=1, d_out=2
    ds = base_case()
    i_star = swaps_of(1, 5, 10)
    assert discrepancy(ds, i_star) == worst_case(ds).worst_case == 6 == 2 * len(i_star)
    rep = verify_prop2(ds, i_star)
    entry = next(e for e in rep["details"]["entries"] if e["node"] == 1)
    assert entry == {"node": 1, "kind": 1, "d": 1, "d_out": 2, "expected": 3, "holds": True}


def test_inequalities_hold_for_every_min_size_maximizer_small_t():
    # the claims quantify over any smallest worst-case maximizer, so sweep
    # them all, not just the tie-broken one
    prop2_entries = 0
    maximizers = 0
    for t in (2, 3):
        for ds in enumerate_balanced(t):
            res = worst_case(ds)
            min_size = len(res.minimal_maximizer)
            for positions in naive_swap_sets(ds.n_ranks):
                i_star = SwapSet(positions)
                if len(i_star) != min_size or discrepancy(ds, i_star) != res.worst_case:
                    continue
                maximizers += 1
                entries = verify_lemma2(ds, i_star)
                assert entries["lemma2"]["holds"] and entries["eq10"]["holds"]
                assert all(in_v <= d_v for _, in_v, d_v in prop1_on_every_subset(ds, i_star))
                rep = verify_prop2(ds, i_star)
                prop2_entries += len(rep["details"]["entries"])
                assert rep["holds"]
    assert maximizers > 100 and prop2_entries >= 1


# ------------------------------------------------------------------ exports

def test_dot_export_t1_example(t1):
    swp = build_swp(t1, swaps_of(1))
    pot = build_pot(t1, swaps_of(1))
    swp_text, pot_text = dot_texts(swp, pot)
    dot = swp_text + pot_text
    assert dot.count("v1 -> v0") == 2
    assert 'swap=(0,1);cond=b1' in dot
    assert 'swap=(4,5);cond=b1' in dot
    assert swp_text.startswith("graph G_swp {") and pot_text.startswith("digraph G_pot {")


def test_dot_export_empty_graphs_valid(opt2):
    swp = build_swp(opt2, EMPTY_SWAPS)
    pot_arcs_only_boundary = build_pot(opt2, EMPTY_SWAPS)
    for dot in dot_texts(swp, pot_arcs_only_boundary):
        assert "v1;" in dot and "v2;" in dot


def test_json_round_trip(opt2):
    # the export holds every field of every edge and arc, in build order
    swp = build_swp(opt2, swaps_of(1, 5))
    pot = build_pot(opt2, swaps_of(1, 5))
    assert exported(swp, pot) == (2, swp.edges, pot.arcs)
    assert pot.arcs and swp.edges == (SwpEdge(1, 2, (1, 2)), SwpEdge(1, 2, (5, 6)))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_sampled_check_verdicts_survive_reflection(t):
    # the checks of verify --sample, each on the set's own worst case: they
    # hold on the mirror image as on the set, though the arcs may differ
    wanted = ("eq8", "lemma2", "eq10", "prop1")
    rng = Random(t)
    for _ in range(25):
        ds = random_balanced(t, rng)
        verdicts = []
        for image in (ds, mirror(ds)):
            entries = _adversary_checks(image, worst_case(image), wanted, None)
            verdicts.append({name: entry["holds"] for name, entry in entries.items()})
        assert verdicts[0] == verdicts[1] == dict.fromkeys(wanted, True)
