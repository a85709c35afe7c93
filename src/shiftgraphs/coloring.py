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
    underlying,
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
    if base.graph != underlying(g):
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
    return Coloring(underlying(line), tuple(colors), k)


def lift_coloring(g: AcyclicDigraph, line_coloring: Coloring) -> Coloring:
    """Color ``g`` by the set of line colors on each vertex's bag.

    Sinks (empty bags) get one dedicated extra color, so the palette is at
    most 2^t - 1 set-colors plus one, where t is the input palette.
    """
    line, bd = constructors.line_digraph(g)
    if line_coloring.graph != underlying(line):
        raise GraphError("input is not a coloring of the line graph of g")
    color_sets: list[frozenset[int] | None] = [None] * g.n  # the last vertex has no bag
    for v, bag in zip(g.topo, bd.bags):
        color_sets[v] = frozenset(line_coloring.color[u] for u in bag) or None
    distinct = sorted({s for s in color_sets if s is not None}, key=sorted)
    ids = {s: i for i, s in enumerate(distinct)}
    sink_color = len(distinct)
    any_sink = any(s is None for s in color_sets)
    colors = tuple(sink_color if s is None else ids[s] for s in color_sets)
    return Coloring(underlying(g), colors, len(distinct) + (1 if any_sink else 0))


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
    for u, v in t_prime.arcs:
        if u >= v:
            raise GraphError(f"arc ({u}, {v}) violates the tournament order")

    n = t_prime.n
    out_adj = t_prime.out_adjacency
    in_adj = t_prime.in_adjacency
    left = [v for v in range(n) if len(out_adj[v]) <= b - 1]
    right = [v for v in range(n) if len(out_adj[v]) >= b]
    in_left = [False] * n
    for v in left:
        in_left[v] = True

    base_color = [-1] * n
    # Low side: greedy first-fit along decreasing vertex index.  Earlier
    # neighbors are out-neighbors, of which there are at most b - 1.
    left_used = 0
    for v in sorted(left, reverse=True):
        taken = {base_color[w] for w in out_adj[v] if in_left[w] and base_color[w] != -1}
        c = 0
        while c in taken:
            c += 1
        base_color[v] = c
        left_used = max(left_used, c + 1)

    # High side: greedy first-fit along increasing vertex index with an
    # offset palette.  Earlier neighbors are in-neighbors within the side.
    right_used = 0
    overloaded = None  # the first high-side vertex that needed color a
    for v in sorted(right):
        prior = [w for w in in_adj[v] if not in_left[w] and base_color[w] != -1]
        taken = {base_color[w] - left_used for w in prior}
        c = 0
        while c in taken:
            c += 1
        base_color[v] = left_used + c
        right_used = max(right_used, c + 1)
        if c >= a and overloaded is None:
            overloaded = (v, prior)

    combined = Coloring(
        underlying(t_prime), tuple(base_color), left_used + right_used
    )
    line, bd = constructors.line_digraph(t_prime)
    final = _antichain_coloring(line, bd, combined)
    witness = None
    if overloaded is not None:
        witness = _extract_kab_witness(final.graph, bd, *overloaded, a, b)
    report = KabReport(
        len(left), len(right), left_used, right_used, k_star(combined.used), final.palette, witness
    )
    return final, report


def _extract_kab_witness(
    lg: UndirectedGraph, bd: BagDecomposition, v: int, prior: Sequence[int], a: int, b: int
) -> KabWitness:
    """Build the complete bipartite witness from an overloaded high-side vertex.

    ``lg`` is the underlying line graph whose vertices are ``bd.arcs``.  Each
    earlier high-side in-neighbor w of v contributes the line vertex (w, v),
    which is adjacent to every out-arc of v; v itself has at least b
    out-arcs.
    """
    arc_id = {arc: i for i, arc in enumerate(bd.arcs)}
    left = tuple(arc_id[(w, v)] for w in sorted(prior)[:a])
    right = tuple(sorted(arc_id[(v, w)] for w in bd.parent.out_adjacency[v])[:b])
    if len(left) < a or len(right) < b:
        raise InternalInvariantError("witness extraction found too few vertices")
    for x in left:
        for y in right:
            if not lg.has_edge(x, y):
                raise InternalInvariantError("witness sides are not completely joined")
    for side in (left, right):
        for x, y in combinations(side, 2):
            if lg.has_edge(x, y):
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
