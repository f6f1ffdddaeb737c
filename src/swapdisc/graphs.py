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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

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
    require_valid,
)

PROP1_ALL_SUBSETS_MAX_T = 6


@dataclass(frozen=True)
class SwpEdge:
    u: int  # node indices 1..t, u <= v
    v: int
    swap: tuple[int, int]


@dataclass(frozen=True)
class SwpGraph:
    t: int
    edges: tuple[SwpEdge, ...]
    components: tuple[frozenset[int], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PotArc:
    tail: int  # 1..t (no arc leaves v0)
    head: int  # 0..t, 0 is the virtual node v0
    swap: tuple[int, int]
    cond: int | str  # 1..6 for internal conditions, "b1"/"b2" for boundary rules


@dataclass(frozen=True)
class PotGraph:
    t: int
    arcs: tuple[PotArc, ...]


def _components(t: int, edges: Iterable[SwpEdge]) -> tuple[frozenset[int], ...]:
    parent = list(range(t + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in range(1, t + 1):
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def build_swp(ds: DefiningSet, swaps: SwapSet) -> SwpGraph:
    """One edge per swap, joining the pairs holding the swap's two ranks
    (in the original defining set); self-loop when both sit in one pair."""
    require_valid(ds)
    # the tables after the swaps: each swap exchanged its two ranks'
    # entries, so they still name the same two pairs
    pair_of, _, _ = core.rank_table(ds, swaps)
    edges = []
    for i, j in swaps:
        a, b = pair_of[i] + 1, pair_of[j] + 1
        edges.append(SwpEdge(min(a, b), max(a, b), (i, j)))
    edges.sort(key=lambda e: e.swap)
    return SwpGraph(ds.t, tuple(edges), _components(ds.t, edges))


def build_pot(ds: DefiningSet, swaps: SwapSet, membership: str = "original") -> PotGraph:
    """All potential-swap arcs for the configuration after `swaps`.

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
        m_pair, m_side, _ = core.rank_table(ds)
    else:
        m_pair, m_side = p_pair, p_side
    taken = {i for i, _ in swaps}
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
        if i in taken:
            continue
        pi, si = m_pair[i], m_side[i]
        pj, sj = m_pair[i + 1], m_side[i + 1]
        d1, d2 = pdiff[pi], pdiff[pj]
        # conditions keyed on rank i's pair
        if si == -1 and not (pj == pi and sj == -1):
            if d1 < 0:
                arcs.append(PotArc(pi + 1, pj + 1, (i, i + 1), 1))
        if si == ODD and not (pj == pi and sj == ODD):
            if d1 > 0:
                arcs.append(PotArc(pi + 1, pj + 1, (i, i + 1), 3))
            elif d1 == 0:
                arcs.append(PotArc(pi + 1, pj + 1, (i, i + 1), 5))
        # conditions keyed on rank i+1's pair
        if sj == -1 and not (pi == pj and si == -1):
            if d2 > 0:
                arcs.append(PotArc(pj + 1, pi + 1, (i, i + 1), 2))
            elif d2 == 0:
                arcs.append(PotArc(pj + 1, pi + 1, (i, i + 1), 6))
        if sj == ODD and not (pi == pj and si == ODD):
            if d2 < 0:
                arcs.append(PotArc(pj + 1, pi + 1, (i, i + 1), 4))
    boundary(n, +1, (n, n + 1))

    arcs.sort(key=lambda a: (a.swap, str(a.cond)))
    return PotGraph(ds.t, tuple(arcs))


@dataclass(frozen=True)
class DegreeTable:
    """Node degrees and subset counters over a built graph pair.

    d_pot_in/d_pot_out exclude self-loop arcs (the other endpoint must be a
    different node, v0 included); in_of/out_of count boundary-crossing arcs
    and d_of counts swap edges incident to the subset (self-loop once).
    """

    swp: SwpGraph
    pot: PotGraph

    def d_pot_in(self, v: int) -> int:
        return sum(1 for a in self.pot.arcs if a.head == v and a.tail != v)

    def d_pot_out(self, v: int) -> int:
        return sum(1 for a in self.pot.arcs if a.tail == v and a.head != v)

    def d_swp(self, v: int) -> int:
        return sum(1 for e in self.swp.edges if v in (e.u, e.v))

    def in_of(self, nodes: Iterable[int]) -> int:
        s = set(nodes)
        return sum(1 for a in self.pot.arcs if a.head in s and a.tail not in s)

    def out_of(self, nodes: Iterable[int]) -> int:
        s = set(nodes)
        return sum(1 for a in self.pot.arcs if a.tail in s and a.head not in s)

    def d_of(self, nodes: Iterable[int]) -> int:
        s = set(nodes)
        return sum(1 for e in self.swp.edges if e.u in s or e.v in s)


@dataclass(frozen=True)
class ComponentCheck:
    nodes: frozenset[int]
    n_vertices: int
    n_edges: int
    in_arcs: int
    out_arcs: int
    bound: int
    holds: bool


@dataclass(frozen=True)
class Lemma2Report:
    components: tuple[ComponentCheck, ...]
    global_slack: int
    slack_holds: bool
    eq10_lhs: int
    eq10_rhs: Fraction
    eq10_holds: bool

    @property
    def all_hold(self) -> bool:
        return (
            all(c.holds for c in self.components) and self.slack_holds and self.eq10_holds
        )


def verify_lemma2(ds: DefiningSet, i_star: SwapSet) -> Lemma2Report:
    """Per-component inequality in - out <= |V| + 4(|E| - |V|), the global
    slack d_in(V) - d_out(V) >= -2, and 2|E| >= 3|V|/2 - 1 overall.

    i_star should be a minimal worst-case maximizer; the inequalities are
    only claimed there.
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    table = DegreeTable(swp, pot)
    comps = []
    for comp in swp.components:
        n_e = table.d_of(comp)
        in_a, out_a = table.in_of(comp), table.out_of(comp)
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
    slack = -sum(1 for a in pot.arcs if a.head == 0)
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


@dataclass(frozen=True)
class SubsetCheck:
    nodes: frozenset[int]
    in_arcs: int
    d_edges: int
    holds: bool


@dataclass(frozen=True)
class Prop1Report:
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
    table = DegreeTable(swp, pot)
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
        in_a, d_e = table.in_of(fam), table.d_of(fam)
        entries.append(SubsetCheck(nodes=fam, in_arcs=in_a, d_edges=d_e, holds=in_a <= d_e))
    return Prop1Report(entries=tuple(entries))


@dataclass(frozen=True)
class NodeTypeCheck:
    node: int
    kind: int
    d_swp: int
    d_out: int
    total: int
    expected: int | None
    holds: bool


@dataclass(frozen=True)
class Prop2Report:
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
    table = DegreeTable(swp, pot)
    entries = []
    skipped: list[int] = []
    for comp in swp.components:
        n_e = table.d_of(comp)
        acyclic = n_e + 1 == len(comp)
        for v in sorted(comp):
            if not acyclic:
                skipped.append(v)
                continue
            kind = classify_pair(ds.pairs[v - 1]).kind
            d_v, d_out = table.d_swp(v), table.d_pot_out(v)
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
    losslessly."""
    doc = {
        "t": swp.t,
        "swp": {
            "edges": [
                {"u": e.u, "v": e.v, "swap": list(e.swap)} for e in swp.edges
            ]
        },
        "pot": {
            "arcs": [
                {
                    "tail": a.tail,
                    "head": a.head,
                    "swap": list(a.swap),
                    "cond": a.cond,
                }
                for a in pot.arcs
            ]
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def import_graphs(text: str) -> tuple[SwpGraph, PotGraph]:
    """Inverse of the JSON export; components are recomputed."""
    try:
        doc = json.loads(text)
        t = doc["t"]
        edges = tuple(
            SwpEdge(e["u"], e["v"], (e["swap"][0], e["swap"][1]))
            for e in doc["swp"]["edges"]
        )
        arcs = tuple(
            PotArc(a["tail"], a["head"], (a["swap"][0], a["swap"][1]), a["cond"])
            for a in doc["pot"]["arcs"]
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"malformed graph document: {exc}") from exc
    return SwpGraph(t, edges, _components(t, edges)), PotGraph(t, arcs)
