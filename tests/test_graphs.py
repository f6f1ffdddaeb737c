"""Swap/potential graphs: construction rules, inequality checkers, exports.

The proposition-2 witnesses are concrete instances found by sweeping all
minimum-size maximizers of small populations; each test recomputes the
adversary result, so the frozen values double as determinism checks.
"""

from fractions import Fraction
from itertools import product
from random import Random
import tracemalloc

import pytest

from naive_oracles import naive_pot_arcs, naive_swap_sets, random_swap_positions
from swapdisc.adversary import worst_case
from swapdisc.cli import _adversary_checks
from swapdisc.construct import DEFAULT_MAX_RANKS, base_case
from swapdisc.core import (
    EMPTY_SWAPS,
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    SwapSet,
    defining_set,
    discrepancy,
    reflect,
    validate_defining_set,
)
from swapdisc.graphs import (
    PotArc,
    build_pot,
    build_swp,
    d_of,
    dot_texts,
    export_graphs,
    import_graphs,
    in_of,
    out_of,
    verify_lemma2,
    verify_prop1,
    verify_prop2,
)
from swapdisc.optsearch import enumerate_balanced, random_balanced


def swaps_of(*positions):
    return SwapSet(positions)


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
        assert verify_lemma2(ds, res.minimal_maximizer).global_slack == slack == -into_v0


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
            assert import_graphs(export_graphs(swp, pot)) == (swp, pot)
    for ds, swaps in ((cases[0][0], swaps_of(4)), (cases[-1][0], swaps_of(3, 40))):
        for build in (build_swp, build_pot):
            with pytest.raises(InvalidInput, match="outside"):
                build(ds, swaps)


# ----------------------------------------------------------- verify_lemma2

def test_lemma2_t1_component_bound(t1):
    rep = verify_lemma2(t1, swaps_of(1))
    (comp,) = rep.components
    assert (comp.n_vertices, comp.n_edges) == (1, 1)
    assert comp.bound == 1
    assert comp.in_arcs - comp.out_arcs == -2
    assert comp.holds
    assert rep.global_slack == -2 and rep.slack_holds
    assert rep.all_hold


def test_lemma2_eq10_t2_optimal(opt2):
    res = worst_case(opt2)
    rep = verify_lemma2(opt2, res.minimal_maximizer)
    assert rep.eq10_lhs == 4
    assert rep.eq10_rhs == Fraction(2)
    assert rep.all_hold and rep.eq10_holds


def test_lemma2_eq10_base_case():
    res = worst_case(base_case())
    assert len(res.minimal_maximizer) == 3
    rep = verify_lemma2(base_case(), res.minimal_maximizer)
    assert rep.eq10_lhs == 6
    assert rep.eq10_rhs == Fraction(5)
    assert rep.all_hold and rep.eq10_holds


# ------------------------------------------------------------ verify_prop1

def test_prop1_singleton_t1(t1):
    rep = verify_prop1(t1, swaps_of(1), subsets="singletons")
    (entry,) = rep.entries
    assert (entry.in_arcs, entry.d_edges) == (0, 1)
    assert rep.all_hold


def test_prop1_all_subsets_t2_including_empty(opt2):
    res = worst_case(opt2)
    rep = verify_prop1(opt2, res.minimal_maximizer, subsets="all_small")
    assert len(rep.entries) == 4  # 2^2 subsets of {v1, v2}
    empty = next(e for e in rep.entries if not e.nodes)
    assert (empty.in_arcs, empty.d_edges) == (0, 0)
    assert rep.all_hold


def test_prop1_all_small_refused_above_t6():
    ds = random_balanced(7, Random(55))
    res = worst_case(ds, strategy="branch_and_bound")
    with pytest.raises(SizeRefused):
        verify_prop1(ds, res.minimal_maximizer, subsets="all_small")


def test_prop1_unknown_family_rejected(t1):
    with pytest.raises(InvalidInput):
        verify_prop1(t1, swaps_of(1), subsets="everything")


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
    entry = next(e for e in rep.entries if e.node == 3)
    assert (entry.kind, entry.d_swp, entry.d_out, entry.total) == (1, 0, 3, 3)
    assert entry.holds and rep.all_hold


def test_prop2_isolated_type2_witness():
    res = worst_case(ISOLATED_TYPE2)
    assert res.minimal_maximizer.positions == (1, 3, 6, 9, 13)
    rep = verify_prop2(ISOLATED_TYPE2, res.minimal_maximizer)
    entry = next(e for e in rep.entries if e.node == 4)
    assert (entry.kind, entry.d_swp, entry.d_out, entry.total) == (2, 0, 4, 4)
    assert entry.holds and rep.all_hold


def test_prop2_reports_a_kind3_node_in_an_acyclic_component(t1):
    # {1, 4} / {2, 3} is kind 3; without swaps it is its own acyclic component
    rep = verify_prop2(t1, EMPTY_SWAPS)
    (entry,) = rep.entries
    assert (entry.node, entry.kind, entry.expected, entry.holds) == (1, 3, None, False)
    assert entry.total == entry.d_swp + entry.d_out
    assert rep.out_of_regime == () and not rep.all_hold


def test_prop2_type1_with_one_swap_in_istar():
    # base case with maximizer {(1,2),(5,6),(10,11)}: discrepancy 6 = 2*3,
    # so it is a minimum-size maximizer; node v1 then has d=1, d_out=2
    ds = base_case()
    i_star = swaps_of(1, 5, 10)
    assert discrepancy(ds, i_star) == worst_case(ds).worst_case == 6 == 2 * len(i_star)
    rep = verify_prop2(ds, i_star)
    entry = next(e for e in rep.entries if e.node == 1)
    assert (entry.kind, entry.d_swp, entry.d_out, entry.total) == (1, 1, 2, 3)
    assert entry.holds


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
                lemma2 = verify_lemma2(ds, i_star)
                assert lemma2.all_hold and lemma2.eq10_holds
                assert verify_prop1(ds, i_star, subsets="all_small").all_hold
                rep = verify_prop2(ds, i_star)
                prop2_entries += len(rep.entries)
                assert rep.all_hold
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
    swp = build_swp(opt2, swaps_of(1, 5))
    pot = build_pot(opt2, swaps_of(1, 5))
    text = export_graphs(swp, pot)
    swp2, pot2 = import_graphs(text)
    assert swp2 == swp and pot2 == pot


def test_unknown_format_rejected():
    with pytest.raises(InvalidInput):
        import_graphs("{not json")
    with pytest.raises(InvalidInput):
        import_graphs('{"t": 1}')
    # a document's shape comes from outside: each of these used to escape
    # as a bare IndexError or TypeError, or, the string swap, be accepted
    edge = '{"u": 1, "v": 2, "swap": [1, 2]}'
    arc = '{"tail": 1, "head": 0, "swap": [0, 1], "cond": "b1"}'
    for t, edges, arcs in [
        (1, '{"u": 1, "v": 1, "swap": [1]}', ""),
        (2, '{"u": 5, "v": 2, "swap": [1, 2]}', ""),
        ('"x"', "", ""),
        (2, '{"u": 1, "v": 2, "swap": "ab"}', ""),
        (2, '{"u": 0, "v": 2, "swap": [1, 2]}', ""),
        (2, '{"u": true, "v": 2, "swap": [1, 2]}', ""),
        (2, '{"u": 1, "v": 2, "swap": [1, 3]}', ""),
        (0, "", ""),
        (2, edge, '{"tail": 0, "head": 1, "swap": [0, 1], "cond": "b1"}'),
        (2, edge, '{"tail": 1, "head": 3, "swap": [0, 1], "cond": "b1"}'),
        (2, edge, '{"tail": 1, "head": 2, "swap": [2, 3], "cond": 7}'),
        (2, edge, '{"tail": 1, "head": 0, "swap": [0, 1], "cond": "b3"}'),
    ]:
        doc = f'{{"t": {t}, "swp": {{"edges": [{edges}]}}, "pot": {{"arcs": [{arcs}]}}}}'
        with pytest.raises(InvalidInput, match="^malformed graph document: "):
            import_graphs(doc)
    # as strict as the CLI's documents: a key given twice used to win with its
    # last value, and an unknown field was ignored, at the top or in an edge
    for doc in [
        '{"t": 1, "t": 2, "swp": {"edges": []}, "pot": {"arcs": []}}',
        '{"t": 2, "x": 0, "swp": {"edges": []}, "pot": {"arcs": []}}',
        '{"t": 2, "swp": {"edges": [], "x": 0}, "pot": {"arcs": []}}',
        f'{{"t": 2, "swp": {{"edges": [{edge[:-1]}, "x": 0}}]}}, "pot": {{"arcs": []}}}}',
        '{"t": 2, "swp": {"edges": []}}',
        "[]",
    ]:
        with pytest.raises(InvalidInput, match="^malformed graph document: "):
            import_graphs(doc)
    doc = f'{{"t": 2, "swp": {{"edges": [{edge}]}}, "pot": {{"arcs": [{arc}]}}}}'
    swp, pot = import_graphs(doc)
    assert swp.components == (frozenset({1, 2}),) and pot.arcs == (PotArc(1, 0, (0, 1), "b1"),)


def test_import_refuses_a_huge_t_before_building_its_nodes():
    # the components of a t = 10^7 document would take gigabytes; a t whose
    # 4t is above construct.DEFAULT_MAX_RANKS, the largest construction
    # level's cap, is refused first
    for t in (10**7, DEFAULT_MAX_RANKS // 4 + 1):
        doc = f'{{"t": {t}, "swp": {{"edges": []}}, "pot": {{"arcs": []}}}}'
        tracemalloc.start()
        try:
            with pytest.raises(SizeRefused, match=f"^t = {t} refused"):
                import_graphs(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_sampled_check_verdicts_survive_reflection(t):
    # the checks of verify --sample, each on the set's own worst case: they
    # hold on the mirror image as on the set, though the arcs may differ
    wanted = ("eq8", "lemma2", "eq10", "prop1")
    rng = Random(t)
    for _ in range(25):
        ds = random_balanced(t, rng)
        verdicts = []
        for image in (ds, reflect(ds)):
            entries = _adversary_checks(image, worst_case(image), wanted, None)
            verdicts.append({name: entry["holds"] for name, entry in entries.items()})
        assert verdicts[0] == verdicts[1] == dict.fromkeys(wanted, True)
