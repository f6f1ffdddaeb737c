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
ones (see build_pot).  They read every count from tally: it labels each
node with the index of its subset in a family of disjoint node sets, then
passes once over the arcs and once over the edges, and gives in, out and d
of every subset at once, so each check is linear in the graphs' size.
Each returns the entries `verify` prints in its certificate,
{"holds": ..., "details": ...}: verify_lemma2 the "lemma2" and "eq10"
entries, prop1_entry the "prop1" entry (verify_prop1 once per subset
family), verify_prop2 the "prop2" entry.  They report, they never assert:
a falsified inequality comes back as data for the caller (and fails the
acceptance suite).

dot_texts and export_graphs write the graphs out for `graphs --format dot`
and `--format json`; the package reads neither format back.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Sequence

# rank_table is read from core at call time, so a wrapper set there after
# this import (perfbench/tracer.py) is the one called
from . import core
from .core import (
    DefiningSet,
    InvalidInput,
    ODD,
    SwapSet,
    classify_pair,
    require_inside,
    require_valid,
)
from .construct import lower_bound, lower_bound_str


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


def build_swp(ds: DefiningSet, swaps: SwapSet) -> SwpGraph:
    """One edge per swap, joining the pairs holding the swap's two ranks
    (in the original defining set); self-loop when both sit in one pair.
    Edges come in ascending swap order, the order of swaps.positions, and
    components in order of least node."""
    require_valid(ds)
    require_inside(swaps.positions, ds.n_ranks)
    # the unswapped pair_of: a swap exchanges its two ranks' entries, so the
    # pairs it names are the same before and after
    pair_of = ds._rank_table[0]
    parent = list(range(ds.t + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    edges = []
    for i in swaps.positions:
        a, b = pair_of[i] + 1, pair_of[i + 1] + 1
        edges.append(SwpEdge(min(a, b), max(a, b), (i, i + 1)))
        parent[find(a)] = find(b)  # a no-op when a and b are already joined
    # the groups come in order of least node, as each is met first there
    groups: dict[int, list[int]] = {}
    for v in range(1, ds.t + 1):
        groups.setdefault(find(v), []).append(v)
    return SwpGraph(ds.t, tuple(edges), tuple(map(frozenset, groups.values())))


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


def tally(swp: SwpGraph, pot: PotGraph, families: Sequence) -> list[tuple[int, int, int]]:
    """(in, out, d) of each node set of `families`, which are disjoint (v0
    is node 0), from one pass over the arcs and one over the edges: in
    counts the arcs entering the set from outside it, out those leaving it,
    and d the swap edges with an end in it (an edge inside it, a self-loop
    too, once)."""
    outside = len(families)  # the one index of every node in no set
    index = [outside] * (swp.t + 1)
    for f, nodes in enumerate(families):
        for v in nodes:
            index[v] = f
    ins, outs, degs = ([0] * (outside + 1) for _ in range(3))
    for a in pot.arcs:
        head, tail = index[a.head], index[a.tail]
        if head != tail:
            ins[head] += 1
            outs[tail] += 1
    for e in swp.edges:
        u, v = index[e.u], index[e.v]
        degs[u] += 1
        if v != u:
            degs[v] += 1
    return list(zip(ins, outs, degs))[:outside]


def verify_lemma2(ds: DefiningSet, i_star: SwapSet) -> dict[str, dict[str, Any]]:
    """The "lemma2" and "eq10" certificate entries, from one build of each
    graph.  lemma2: in - out <= |V| + 4(|E| - |V|) on every component, and
    the global slack d_in(V) - d_out(V) >= -2; eq10: 2|E| >= 3t/2 - 1.

    i_star should be a minimal worst-case maximizer; the inequalities are
    only claimed there.
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    *counts, (into_v0, _, _) = tally(swp, pot, swp.components + ((0,),))
    components = []
    for comp, (in_a, out_a, d) in zip(swp.components, counts):
        bound = len(comp) + 4 * (d - len(comp))
        components.append({"nodes": sorted(comp), "in": in_a, "out": out_a, "bound": bound,
                           "holds": in_a - out_a <= bound})
    # d_in - d_out summed over v1..vt: every arc has its tail there (none
    # leaves v0), so all that is left is minus the arcs into v0
    slack = -into_v0
    lhs = 2 * swp.n_edges
    return {
        "lemma2": {
            "holds": all(c["holds"] for c in components) and slack >= -2,
            "details": {"components": components, "global_slack": slack},
        },
        "eq10": {
            "holds": lhs >= lower_bound(ds.t),
            "details": {"lhs": lhs, "rhs": lower_bound_str(ds.t)},
        },
    }


def verify_prop1(
    ds: DefiningSet, i_star: SwapSet, subsets: str = "components"
) -> dict[str, Any]:
    """in(V) <= d(V) over one subset family, "components" or "singletons":
    {"holds", "details": [{"nodes", "in", "d"}, ...]}.  An invalid set or an
    unknown family is refused before either graph is built."""
    require_valid(ds)
    if subsets not in ("components", "singletons"):
        raise InvalidInput(f"unknown subset family {subsets!r}")
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    families = swp.components if subsets == "components" else [(v,) for v in range(1, ds.t + 1)]
    details = [{"nodes": sorted(s), "in": in_a, "d": d}
               for s, (in_a, _, d) in zip(families, tally(swp, pot, families))]
    return {"holds": all(e["in"] <= e["d"] for e in details), "details": details}


def prop1_entry(ds: DefiningSet, i_star: SwapSet) -> dict[str, Any]:
    """The "prop1" certificate entry: verify_prop1 on the components and on
    the singletons."""
    families = {f: verify_prop1(ds, i_star, subsets=f) for f in ("components", "singletons")}
    return {
        "holds": all(e["holds"] for e in families.values()),
        "details": {f: e["details"] for f, e in families.items()},
    }


def verify_prop2(ds: DefiningSet, i_star: SwapSet) -> dict[str, Any]:
    """The "prop2" certificate entry: d(v) + d_out(v) = kind + 2 for the
    kind-1/2 nodes of acyclic components.

    A kind-3 node inside an acyclic component contradicts the exclusion
    argument and is an entry that fails (expected null); the nodes of cyclic
    components are outside the claimed regime and listed in out_of_regime.
    """
    swp = build_swp(ds, i_star)
    pot = build_pot(ds, i_star)
    acyclic: list[int] = []
    skipped: list[int] = []
    for comp, (_, _, d) in zip(swp.components, tally(swp, pot, swp.components)):
        # a tree has one edge fewer than nodes; a cyclic component is out of regime
        (acyclic if d + 1 == len(comp) else skipped).extend(sorted(comp))
    entries = []
    for v, (_, d_out, d_v) in zip(acyclic, tally(swp, pot, [(v,) for v in acyclic])):
        kind = classify_pair(ds.pairs[v - 1]).kind
        expected = None if kind == 3 else kind + 2  # no total equals None
        entries.append({"node": v, "kind": kind, "d": d_v, "d_out": d_out,
                        "expected": expected, "holds": d_v + d_out == expected})
    return {
        "holds": all(e["holds"] for e in entries),
        "details": {"entries": entries, "out_of_regime": skipped},
    }


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
    """Both graphs as one JSON document: t, then each edge and arc an
    object of its record's fields, in the order the builders emit them."""
    doc = {
        "t": swp.t,
        "swp": {"edges": [e._asdict() for e in swp.edges]},
        "pot": {"arcs": [a._asdict() for a in pot.arcs]},
    }
    return json.dumps(doc, indent=2) + "\n"
