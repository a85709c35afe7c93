"""Constructive colorings of line digraphs.

Implements the antichain log-coloring of a line digraph from a coloring of
its base digraph, the reverse bag-set lift, the two-sided greedy pipeline for
complete-bipartite-free induced subgraphs of shift graphs, and the classical
translation between proper colorings and acyclic orientations.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb

from . import constructors
from .constructors import BagDecomposition
from .core import (
    AcyclicDigraph,
    Coloring,
    GraphError,
    InternalInvariantError,
    UndirectedGraph,
    _Record,
)


def k_star(c: int) -> int:
    """Smallest k with C(k, floor(k/2)) >= c; k_star(1) = 1, k_star(0) = 0."""
    if c <= 0:
        return 0
    k = 1
    while comb(k, k // 2) < c:
        k += 1
    return k


def _subset_masks(k: int) -> list[int]:
    """All floor(k/2)-element subsets of {0..k-1}, colexicographic, as masks."""
    return sorted(sum(1 << i for i in combo) for combo in combinations(range(k), k // 2))


def log_color_line_digraph(g: AcyclicDigraph, base: Coloring) -> Coloring:
    """Color the underlying line graph of ``g`` with k_star(c) colors.

    Base colors are mapped injectively to equal-size subsets of a k*-element
    ground set (an antichain); the arc u -> v is colored by the smallest
    element of subset(u) \\ subset(v).  Consecutive arcs u -> v and v -> w then
    differ because the first color avoids subset(v) while the second lies in
    it.
    """
    if base.graph != g.underlying:
        raise GraphError("base coloring is not a coloring of the digraph's underlying graph")
    return _antichain_coloring(*constructors.line_digraph(g), base)


def _antichain_coloring(line: AcyclicDigraph, bd: BagDecomposition, base: Coloring) -> Coloring:
    """The body of ``log_color_line_digraph`` on a line digraph already built."""
    used = sorted(set(base.color))
    k = k_star(len(used))
    subset_of = dict(zip(used, _subset_masks(k)))
    colors = []
    for u, v in bd.arcs:
        diff = subset_of[base.color[u]] & ~subset_of[base.color[v]]
        if diff == 0:
            raise InternalInvariantError(
                f"empty subset difference on arc ({u}, {v}); base coloring improper?"
            )
        colors.append((diff & -diff).bit_length() - 1)
    return Coloring(line.underlying, tuple(colors), k)


def lift_coloring(g: AcyclicDigraph, line_coloring: Coloring) -> Coloring:
    """Color ``g`` by the set of line colors on each vertex's bag.

    Sinks (empty bags) and the last vertex, which has no bag, share the empty
    set, sorted after every other set, so the palette is at most 2^t - 1
    set-colors plus one, where t is the input palette.
    """
    line, bd = constructors.line_digraph(g)
    if line_coloring.graph != line.underlying:
        raise GraphError("input is not a coloring of the line graph of g")
    color_sets = [frozenset()] * g.n
    for v, bag in zip(g.topo, bd.bags):
        color_sets[v] = frozenset(line_coloring.color[u] for u in bag)
    distinct = sorted(set(color_sets), key=lambda s: (not s, sorted(s)))
    ids = {s: i for i, s in enumerate(distinct)}
    return Coloring(g.underlying, tuple(map(ids.__getitem__, color_sets)), len(distinct))


class KabWitness(_Record):
    """An induced complete bipartite subgraph found in the line graph."""

    _fields = ("left", "right")  # the a-side and the b-side, as line-vertex ids


class KabReport(_Record):
    _fields = (
        "left_size", "right_size", "left_colors", "right_colors", "k_star", "palette", "witness"
    )


def color_kab_free(
    t_prime: AcyclicDigraph, a: int, b: int
) -> tuple[Coloring, KabReport]:
    """Two-sided greedy coloring pipeline for induced subgraphs of shift graphs.

    ``t_prime`` must be a subdigraph of the acyclic tournament (every arc
    (u, v) has u < v).  Vertices with out-degree below b are colored greedily
    along decreasing index order, the rest along increasing index order with a
    disjoint palette, and the combined base coloring is pushed through the
    antichain log-coloring.  If the high-out-degree side ever needs more than
    ``a`` colors, a complete bipartite witness is extracted and reported; the
    returned coloring is proper either way.
    """
    if a < 1 or b < 1:
        raise GraphError("both side bounds must be at least 1")
    out_adj = t_prime.out_adjacency
    for u, heads in enumerate(out_adj):
        if heads and heads[0] < u:
            raise GraphError(f"arc ({u}, {heads[0]}) violates the tournament order")

    n = t_prime.n
    in_adj = t_prime.in_adjacency
    high = [len(heads) >= b for heads in out_adj]
    # One first-fit pass: the low side down the indices against its
    # out-neighbors (at most b - 1), then the high side up against its
    # in-neighbors, so every same-side neighbor looked at is already colored.
    # Colors count from 0 on each side; the high side's offset comes last.
    order = [v for v in reversed(range(n)) if not high[v]] + [v for v in range(n) if high[v]]
    color = [0] * n
    used = [0, 0]  # colors on the low side, on the high side
    overloaded = None  # the first high-side vertex that needed color a
    for v in order:
        side = high[v]
        prior = [w for w in (in_adj[v] if side else out_adj[v]) if high[w] == side]
        taken = {color[w] for w in prior}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
        used[side] = max(used[side], c + 1)
        if side and c >= a and overloaded is None:
            overloaded = (v, prior)

    base = tuple(c + used[0] if h else c for c, h in zip(color, high))
    combined = Coloring(t_prime.underlying, base, sum(used))
    line, bd = constructors.line_digraph(t_prime)
    final = _antichain_coloring(line, bd, combined)
    witness = None if overloaded is None else _extract_kab_witness(bd, *overloaded, a, b)
    sizes = (n - sum(high), sum(high))
    return final, KabReport(*sizes, *used, k_star(combined.used), final.palette, witness)


def _extract_kab_witness(
    bd: BagDecomposition, v: int, prior: Sequence[int], a: int, b: int
) -> KabWitness:
    """Build the complete bipartite witness from an overloaded high-side vertex.

    Each earlier high-side in-neighbor w of v contributes the line vertex
    (w, v), which is adjacent to every out-arc of v; v itself has at least b
    out-arcs.  Two line vertices are adjacent when the head of one is the
    tail of the other, which is checked on ``bd.arcs``.
    """
    arcs = bd.arcs
    arc_id = {arc: i for i, arc in enumerate(arcs)}
    left = tuple(arc_id[(w, v)] for w in sorted(prior)[:a])
    right = tuple(sorted(arc_id[(v, w)] for w in bd.parent.out_adjacency[v])[:b])
    if len(left) < a or len(right) < b:
        raise InternalInvariantError("witness extraction found too few vertices")

    def adjacent(x: int, y: int) -> bool:
        return arcs[x][1] == arcs[y][0] or arcs[y][1] == arcs[x][0]

    if not all(adjacent(x, y) for x in left for y in right):
        raise InternalInvariantError("witness sides are not completely joined")
    for side in (left, right):
        if any(adjacent(x, y) for x, y in combinations(side, 2)):
            raise InternalInvariantError("witness side is not independent")
    return KabWitness(left, right)


def is_kab_free(g: UndirectedGraph, a: int, b: int) -> bool:
    """Exhaustive check that ``g`` has no induced complete bipartite K_{a,b}.

    Desk-scale oracle: enumerates independent a-subsets and searches their
    common neighborhood for an independent b-subset.
    """
    adj = g.adjacency_sets
    for left in combinations(range(g.n), a):
        if any(y in adj[x] for x, y in combinations(left, 2)):
            continue
        common = set(range(g.n))
        for x in left:
            common &= adj[x]
        if len(common) < b:
            continue
        for right in combinations(sorted(common), b):
            if any(y in adj[x] for x, y in combinations(right, 2)):
                continue
            return False
    return True


def coloring_to_orientation(g: UndirectedGraph, c: Coloring) -> AcyclicDigraph:
    """Orient every edge from the lower color toward the higher color; such
    an orientation is always acyclic, which ``build`` checks."""
    if c.graph != g:
        raise GraphError("coloring does not belong to this graph")
    arcs = [(u, v) if c.color[u] < c.color[v] else (v, u) for u, v in g.edges]
    return AcyclicDigraph.build(g.n, arcs, g.labels)


def orientation_to_coloring(d: AcyclicDigraph) -> Coloring:
    """Color each vertex of ``d.underlying`` by the length of the longest
    directed path of ``d`` ending there."""
    longest = [0] * d.n
    for v in d.topo:
        for w in d.in_adjacency[v]:
            longest[v] = max(longest[v], longest[w] + 1)
    palette = max(longest, default=0) + 1 if d.n else 0
    return Coloring(d.underlying, tuple(longest), palette)
