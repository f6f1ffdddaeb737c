"""Auxiliary swap/potential graphs and the lower-bound inequality checkers.

For a defining set and a swap set I, the swap graph has one node per
companion pair and one edge per swap (self-loops and multi-edges kept).
The potential graph adds a virtual node v0 and one arc per (potential swap,
fired condition): a potential swap is any adjacent swap not in I, plus the
two virtual boundary swaps (0,1) and (4t, 4t+1); the six internal conditions
and two boundary rules mark swaps that would push a pair's discrepancy
further up.

The checkers build the potential graph with the literal reading of the
defining conditions: membership on the original sets, sums on the primed
ones (see build_pot).  They report, they never assert: a falsified
inequality comes back as data for the caller (and fails the acceptance
suite).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

# rank_table is read from core at call time, so a wrapper set there after
# this import (perfbench/tracer.py) is the one called
from . import core
from .core import (
    DefiningSet,
    InvalidInput,
    ODD,
    SizeRefused,
    SwapSet,
    classify_pair,
    require_fields,
    require_inside,
    require_int,
    require_valid,
    swap_of,
    unique_keys,
)
from .construct import DEFAULT_MAX_RANKS

PROP1_ALL_SUBSETS_MAX_T = 6


class SwpEdge(NamedTuple):
    u: int  # node indices 1..t, u <= v
    v: int
    swap: tuple[int, int]


class SwpGraph(NamedTuple):
    t: int
    edges: tuple[SwpEdge, ...]
    components: tuple[frozenset[int], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class PotArc(NamedTuple):
    tail: int  # 1..t (no arc leaves v0)
    head: int  # 0..t, 0 is the virtual node v0
    swap: tuple[int, int]
    cond: int | str  # 1..6 for internal conditions, "b1"/"b2" for boundary rules


class PotGraph(NamedTuple):
    t: int
    arcs: tuple[PotArc, ...]


def _components(t: int, edges: Iterable[SwpEdge]) -> tuple[frozenset[int], ...]:
    parent = list(range(t + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
    # the groups come in order of least node, as each is met first there
    groups: dict[int, list[int]] = {}
    for v in range(1, t + 1):
        groups.setdefault(find(v), []).append(v)
    return tuple(map(frozenset, groups.values()))


def build_swp(ds: DefiningSet, swaps: SwapSet) -> SwpGraph:
    """One edge per swap, joining the pairs holding the swap's two ranks
    (in the original defining set); self-loop when both sit in one pair.
    Edges come in ascending swap order, the order of swaps.positions."""
    require_valid(ds)
    require_inside(swaps.positions, ds.n_ranks)
    # the unswapped pair_of: a swap exchanges its two ranks' entries, so the
    # pairs it names are the same before and after
    pair_of = ds._rank_table[0]
    edges = []
    for i in swaps.positions:
        a, b = pair_of[i] + 1, pair_of[i + 1] + 1
        edges.append(SwpEdge(min(a, b), max(a, b), (i, i + 1)))
    return SwpGraph(ds.t, tuple(edges), _components(ds.t, edges))


def build_pot(ds: DefiningSet, swaps: SwapSet, membership: str = "original") -> PotGraph:
    """All potential-swap arcs for the configuration after `swaps`, ordered
    by (swap, str(cond)).

    Sums always come from the primed (post-swap) sets.  membership selects
    which sets the membership side of the conditions (and the location of
    i2) is read from: "original", the literal reading of the defining
    conditions and the one the checkers use, or "primed", kept for
    sensitivity analysis (`graphs --membership primed`).
    """
    if membership not in ("original", "primed"):
        raise InvalidInput(f"membership must be 'original' or 'primed', got {membership!r}")
    require_valid(ds)
    n = ds.n_ranks
    # the primed tables; pdiff holds sum(odd') - sum(even') per pair
    p_pair, p_side, pdiff = core.rank_table(ds, swaps)
    if membership == "original":
        m_pair, m_side, _ = ds._rank_table  # read, never written
    else:
        m_pair, m_side = p_pair, p_side
    taken = set(swaps.positions)
    arcs: list[PotArc] = []

    def boundary(rank: int, bump: int, swap: tuple[int, int]) -> None:
        # bump: -1 for (0,1) decrementing rank 1, +1 for (4t,4t+1) incrementing 4t
        i1 = m_pair[rank]
        if pdiff[i1] != 0:
            # simulate on the primed configuration: the push moves only the
            # imbalance of the pair now holding the rank, by bump * its side
            if p_pair[rank] == i1 and abs(pdiff[i1] + bump * p_side[rank]) > abs(pdiff[i1]):
                arcs.append(PotArc(i1 + 1, 0, swap, "b1"))
        else:
            # zero-discrepancy rule: only the positive push direction counts,
            # so (0,1) needs rank 1 in the even set, (4t,4t+1) needs 4t odd
            if m_side[rank] == bump:
                arcs.append(PotArc(i1 + 1, 0, swap, "b2"))

    boundary(1, -1, (0, 1))
    for i in range(1, n):
        pi, si = m_pair[i], m_side[i]
        pj, sj = m_pair[i + 1], m_side[i + 1]
        if i in taken or (pi == pj and si == sj):
            continue  # no condition fires on two ranks of one set
        d1, d2 = pdiff[pi], pdiff[pj]
        # rank i's pair: 1 (even, d1 < 0), 3 (odd, d1 > 0) or 5 (odd, d1 = 0);
        # rank i+1's pair: 2 (even, d2 > 0), 6 (even, d2 = 0) or 4 (odd, d2 < 0)
        ca = (3 if d1 > 0 else 5 if d1 == 0 else 0) if si == ODD else (1 if d1 < 0 else 0)
        cb = (4 if d2 < 0 else 0) if sj == ODD else (2 if d2 > 0 else 6 if d2 == 0 else 0)
        swap = (i, i + 1)
        # at most one arc each, emitted in (swap, str(cond)) order
        if cb and cb < ca:
            arcs.append(PotArc(pj + 1, pi + 1, swap, cb))
            cb = 0
        if ca:
            arcs.append(PotArc(pi + 1, pj + 1, swap, ca))
        if cb:
            arcs.append(PotArc(pj + 1, pi + 1, swap, cb))
    boundary(n, +1, (n, n + 1))
    return PotGraph(ds.t, tuple(arcs))


def in_of(pot: PotGraph, nodes: Iterable[int]) -> int:
    """Arcs entering the node set from outside it (v0 is node 0)."""
    s = set(nodes)
    return sum(1 for a in pot.arcs if a.head in s and a.tail not in s)


def out_of(pot: PotGraph, nodes: Iterable[int]) -> int:
    """Arcs leaving the node set."""
    s = set(nodes)
    return sum(1 for a in pot.arcs if a.tail in s and a.head not in s)


def d_of(swp: SwpGraph, nodes: Iterable[int]) -> int:
    """Swap edges with an endpoint in the node set; a self-loop counts once."""
    s = set(nodes)
    return sum(1 for e in swp.edges if e.u in s or e.v in s)


class ComponentCheck(NamedTuple):
    nodes: frozenset[int]
    n_vertices: int
    n_edges: int
    in_arcs: int
    out_arcs: int
    bound: int
    holds: bool


class Lemma2Report(NamedTuple):
    components: tuple[ComponentCheck, ...]
    global_slack: int
    slack_holds: bool
    eq10_lhs: int
    eq10_rhs: Fraction
    eq10_holds: bool

    @property
    def all_hold(self) -> bool:
        """Lemma 2 itself: every component bound and the global slack; the
        edge bound eq10 is its own verdict, eq10_holds."""
        return all(c.holds for c in self.components) and self.slack_holds


def verify_lemma2(ds: DefiningSet, i_star: SwapSet) -> Lemma2Report:
    """Per-component inequality in - out <= |V| + 4(|E| - |V|), the global
    slack d_in(V) - d_out(V) >= -2, and 2|E| >= 3|V|/2 - 1 overall.

    i_star should be a minimal worst-case maximizer; the inequalities are
    only claimed there.
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    comps = []
    for comp in swp.components:
        n_e = d_of(swp, comp)
        in_a, out_a = in_of(pot, comp), out_of(pot, comp)
        bound = len(comp) + 4 * (n_e - len(comp))
        comps.append(
            ComponentCheck(
                nodes=comp,
                n_vertices=len(comp),
                n_edges=n_e,
                in_arcs=in_a,
                out_arcs=out_a,
                bound=bound,
                holds=in_a - out_a <= bound,
            )
        )
    # d_in - d_out summed over v1..vt: every arc has its tail there (none
    # leaves v0), so all that is left is minus the arcs into v0
    slack = -in_of(pot, (0,))
    eq10_lhs = 2 * swp.n_edges
    eq10_rhs = Fraction(3 * ds.t, 2) - 1
    return Lemma2Report(
        components=tuple(comps),
        global_slack=slack,
        slack_holds=slack >= -2,
        eq10_lhs=eq10_lhs,
        eq10_rhs=eq10_rhs,
        eq10_holds=eq10_lhs >= eq10_rhs,
    )


class SubsetCheck(NamedTuple):
    nodes: frozenset[int]
    in_arcs: int
    d_edges: int
    holds: bool


class Prop1Report(NamedTuple):
    entries: tuple[SubsetCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)


def verify_prop1(ds: DefiningSet, i_star: SwapSet, subsets: str = "components") -> Prop1Report:
    """in(V) <= d(V) for the requested subset family.

    subsets: "components", "singletons", or "all_small" (every subset of the
    t nodes including the empty one; refused for t > 6).
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    if subsets == "components":
        families: list[frozenset[int]] = list(swp.components)
    elif subsets == "singletons":
        families = [frozenset({v}) for v in range(1, ds.t + 1)]
    elif subsets == "all_small":
        if ds.t > PROP1_ALL_SUBSETS_MAX_T:
            raise SizeRefused(
                f"all-subset check refused for t = {ds.t} > {PROP1_ALL_SUBSETS_MAX_T}"
            )
        families = [
            frozenset(c)
            for k in range(ds.t + 1)
            for c in combinations(range(1, ds.t + 1), k)
        ]
    else:
        raise InvalidInput(f"unknown subset family {subsets!r}")
    entries = []
    for fam in families:
        in_a, d_e = in_of(pot, fam), d_of(swp, fam)
        entries.append(SubsetCheck(nodes=fam, in_arcs=in_a, d_edges=d_e, holds=in_a <= d_e))
    return Prop1Report(entries=tuple(entries))


class NodeTypeCheck(NamedTuple):
    node: int
    kind: int
    d_swp: int
    d_out: int
    total: int
    expected: int | None
    holds: bool


class Prop2Report(NamedTuple):
    entries: tuple[NodeTypeCheck, ...]
    out_of_regime: tuple[int, ...]  # nodes in cyclic components, not claimed

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)


def verify_prop2(ds: DefiningSet, i_star: SwapSet) -> Prop2Report:
    """d(v) + d_out(v) = kind + 2 for kind-1/2 nodes in acyclic components.

    Kind-3 nodes inside an acyclic component contradict the exclusion
    argument and are reported as violations; nodes in cyclic components are
    outside the claimed regime and listed separately.
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    entries = []
    skipped: list[int] = []
    for comp in swp.components:
        n_e = d_of(swp, comp)
        acyclic = n_e + 1 == len(comp)
        for v in sorted(comp):
            if not acyclic:
                skipped.append(v)
                continue
            kind = classify_pair(ds.pairs[v - 1]).kind
            d_v, d_out = d_of(swp, (v,)), out_of(pot, (v,))
            expected = None if kind == 3 else kind + 2  # no total equals None
            entries.append(
                NodeTypeCheck(
                    node=v, kind=kind, d_swp=d_v, d_out=d_out, total=d_v + d_out,
                    expected=expected, holds=d_v + d_out == expected,
                )
            )
    return Prop2Report(entries=tuple(entries), out_of_regime=tuple(skipped))


def dot_texts(swp: SwpGraph, pot: PotGraph) -> tuple[str, str]:
    """(G_swp, G_pot) as two standalone Graphviz documents with stable
    node and edge ordering."""
    out = ["graph G_swp {"]
    for v in range(1, swp.t + 1):
        out.append(f"  v{v};")
    for e in swp.edges:
        out.append(f'  v{e.u} -- v{e.v} [label="swap=({e.swap[0]},{e.swap[1]})"];')
    out.append("}")
    swp_text = "\n".join(out) + "\n"
    out = ["digraph G_pot {"]
    out.append("  v0 [shape=box];")
    for v in range(1, pot.t + 1):
        out.append(f"  v{v};")
    for a in pot.arcs:
        out.append(
            f'  v{a.tail} -> v{a.head} '
            f'[label="swap=({a.swap[0]},{a.swap[1]});cond={a.cond}"];'
        )
    out.append("}")
    return swp_text, "\n".join(out) + "\n"


def export_graphs(swp: SwpGraph, pot: PotGraph) -> str:
    """Both graphs as one JSON document that import_graphs restores
    losslessly: each edge and arc an object of its record's fields."""
    doc = {
        "t": swp.t,
        "swp": {"edges": [e._asdict() for e in swp.edges]},
        "pot": {"arcs": [a._asdict() for a in pot.arcs]},
    }
    return json.dumps(doc, indent=2) + "\n"


def import_graphs(text: str) -> tuple[SwpGraph, PotGraph]:
    """Inverse of the JSON export; components are recomputed.  The document
    is read as strictly as the CLI's (InvalidInput otherwise): the fields
    export_graphs writes, each once and no other; t an integer >= 1, each
    node one in [1, t] (0, v0, only as an arc's head), each swap [i, i+1],
    each cond 1-6, "b1" or "b2".  A t whose 4t is above DEFAULT_MAX_RANKS is
    refused (SizeRefused) before anything is built for its nodes."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
        t, swp, pot = require_fields(doc, "the document", "t", "swp", "pot")
        if 4 * require_int(t, "t", 1) > DEFAULT_MAX_RANKS:
            raise SizeRefused(f"t = {t} refused: 4t is above the cap of {DEFAULT_MAX_RANKS} ranks")
        (edges,), (arcs,) = require_fields(swp, "swp", "edges"), require_fields(pot, "pot", "arcs")
        edges = tuple(
            SwpEdge(require_int(u, "u", 1, t), require_int(v, "v", 1, t), swap_of(swap))
            for u, v, swap in (require_fields(e, "edge", *SwpEdge._fields) for e in edges)
        )
        arcs = tuple(
            PotArc(require_int(tail, "tail", 1, t), require_int(head, "head", 0, t), swap_of(swap),
                   cond if cond in ("b1", "b2") else require_int(cond, "cond", 1, 6))
            for tail, head, swap, cond in (require_fields(a, "arc", *PotArc._fields) for a in arcs)
        )
    except (TypeError, ValueError, RecursionError) as exc:
        raise InvalidInput(f"malformed graph document: {exc}") from exc
    return SwpGraph(t, edges, _components(t, edges)), PotGraph(t, arcs)
