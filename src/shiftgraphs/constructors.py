"""Generators for every graph family used in this artifact.

Acyclic tournaments, line digraphs with their bag decompositions, shift
graphs, Zykov graphs with a one-path acyclic orientation, the odd-girth
non-one-path gadget, and the girth-5 apex construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import or_

from .aop import verify_aop
from .core import (
    AcyclicDigraph,
    GraphError,
    InternalInvariantError,
    UndirectedGraph,
    _Record,
    check_size,
    underlying,
)
from .invariants import chromatic_number, girth


def _check_binomial_cap(n: int, k: int, what: str) -> None:
    """Raise SizeCapExceeded if C(n, k) passes the size cap, before anything
    of that size is built.  For n >= k the partial products C(n - k + i, i)
    never fall, so the loop stops at the first one past the cap and stays
    short whatever n and k are."""
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        check_size(count, f"{what} would number C({n}, {k})")


class BagDecomposition(_Record):
    """Bags of a line digraph: B(i) holds the out-arcs of the i-th vertex
    (1-based) of the parent's topological order.

    ``arcs[u]`` is the parent arc underlying line vertex u, and ``index[u]``
    the 1-based bag id of its tail.
    """

    _fields = (
        "parent",
        "bags",  # bags[i-1] = B(i), i in 1..n-1
        "index",  # line vertex id -> bag id
        "arcs",  # line vertex id -> parent arc
    )


def acyclic_tournament(n: int) -> AcyclicDigraph:
    """Complete graph oriented along the identity order."""
    if n < 1:
        raise GraphError("tournament needs at least one vertex")
    _check_binomial_cap(n, 2, "acyclic tournament arcs")
    ids = tuple(range(n))
    return AcyclicDigraph(n, tuple(ids[i + 1:] for i in ids), ids)


def line_digraph(g: AcyclicDigraph) -> tuple[AcyclicDigraph, BagDecomposition]:
    """Line digraph of an acyclic digraph, plus its bag decomposition.

    Line vertices are the arcs of ``g``, ordered by the position of their tail
    in g's topological order (ties by head), which makes the identity a
    topological order of the result.  Built once per digraph and cached on
    ``g`` the way ``functools.cached_property`` caches, so every later call
    returns the same pair.
    """
    cached = g.__dict__.get("_line_digraph")
    if cached is None:
        cached = g.__dict__["_line_digraph"] = _line_digraph(g)
    return cached


def _line_digraph(g: AcyclicDigraph) -> tuple[AcyclicDigraph, BagDecomposition]:
    """``line_digraph`` without the cache, for levels nobody keeps.

    With the arcs grouped by tail in topological order (heads ascending),
    the out-arcs of each vertex occupy one contiguous id range, ``heads[v]``,
    and the line arcs out of arc (a, b) are exactly ``heads[b]``.  So the
    result's out-adjacency holds one shared tuple per parent vertex and no
    pair per line arc: on L(L(T60)), 34,220 pointers to at most 1,770
    tuples in place of 487,635 arc tuples.  Every id is one shared int
    object from ``ids``.

    The line vertices are the input's arcs, and the line arcs through v
    number indeg(v) * outdeg(v), counted in one pass over the input; both
    totals are checked against the size cap before anything is built.
    """
    out = g.out_adjacency
    m = sum(map(len, out))
    check_size(m, f"line digraph would have {m} vertices")
    indeg = [0] * g.n
    for a in out:
        for v in a:
            indeg[v] += 1
    size = sum(d * len(a) for d, a in zip(indeg, out))
    check_size(size, f"line digraph would have {size} arcs")
    arcs = [(v, w) for v in g.topo for w in out[v]]
    ids = list(range(m))
    heads: list[tuple[int, ...]] = [()] * g.n  # ids of each vertex's out-arcs
    index: list[int] = []
    for i, v in enumerate(g.topo[:-1], start=1):
        lo = len(index)
        index.extend([i] * len(out[v]))
        heads[v] = tuple(ids[lo:len(index)])
    if len(index) != m:
        raise InternalInvariantError("out-arc from the last topological position")
    lab = [g.label(v) for v in range(g.n)]
    labels = {i: f"({lab[u]},{lab[v]})" for i, (u, v) in zip(ids, arcs)}
    line = AcyclicDigraph(m, tuple([heads[b] for _, b in arcs]), tuple(ids), labels)
    bags = tuple(heads[v] for v in g.topo[:-1])
    return line, BagDecomposition(g, bags, tuple(index), tuple(arcs))


def structure_violations(line: AcyclicDigraph, bd: BagDecomposition) -> list[str]:
    """Check the five structural clauses of a bag decomposition.

    Returns human-readable violation messages; an empty list means every
    clause holds.  Clauses: (i) bags are independent, (ii) adjacency projects
    to parent adjacency with arcs pointing up in bag index, (iii) two
    higher-index neighbors of a vertex share a bag, (iv) a parent edge is
    carried by exactly one all-adjacent bag vertex, (v) two lower-index
    neighbors of a vertex are non-adjacent and adjacent to its whole bag.

    Each clause is first tested on bitmasks of line vertices, a few mask
    operations per vertex, bag or parent arc; only where a test fails are
    the pairs involved walked one by one, in the order the messages take.
    """
    g = bd.parent
    sigma = g.topo
    pos = {v: k for k, v in enumerate(sigma)}
    lg = underlying(line)
    index = bd.index
    bags = bd.bags
    nbags = len(bags)
    # Bit u of each mask stands for line vertex u.  nbr[u] holds u's
    # neighbors, bag_nbrs[i - 1] those of any vertex in bag i, at[i] the
    # vertices of index i and above[i] those of index above i.
    nbr = [_mask(a) for a in lg.adjacency]
    bag_mask = [_mask(bag) for bag in bags]
    bag_nbrs = [reduce(or_, map(nbr.__getitem__, bag), 0) for bag in bags]
    at = [0] * (nbags + 1)
    for u, i in enumerate(index):
        at[i] |= 1 << u
    above = [0] * (nbags + 1)
    for i in range(nbags, 0, -1):
        above[i - 1] = above[i] | at[i]
    out: list[str] = []

    for i, bag in enumerate(bags, start=1):
        if bag_nbrs[i - 1] & bag_mask[i - 1]:
            for u, v in combinations(bag, 2):
                if nbr[u] >> v & 1:
                    out.append(f"(i) bag {i} vertices {u},{v} adjacent")

    # An edge (u1, u2) breaks (ii) if u2's bag is not adjacent to u1's in
    # the parent, or if the arc between them is not the one up the index:
    # out of u1 if u2 is above u1, else into u1.
    gu = underlying(g)
    near = [0] * (nbags + 1)
    for i in range(1, nbags + 1):
        for c in gu.adjacency[sigma[i - 1]]:
            if pos[c] < nbags:
                near[i] |= at[pos[c] + 1]
    for u1, heads in enumerate(line.out_adjacency):
        i1 = index[u1]
        bad = (nbr[u1] & (~near[i1] | (_mask(heads) ^ above[i1]))) >> (u1 + 1)
        while bad:
            low = bad & -bad
            bad ^= low
            u2 = u1 + low.bit_length()
            a = sigma[i1 - 1]
            c = sigma[index[u2] - 1]
            if not gu.has_edge(a, c):
                out.append(f"(ii) edge ({u1},{u2}) projects to non-edge ({a},{c})")
            lo, hi = (u1, u2) if i1 < index[u2] else (u2, u1)
            if hi not in line.out_adjacency[lo]:
                out.append(f"(ii) arc between {u1},{u2} not directed up the index")

    # (iii): the higher-index neighbors all lie in the bag of any one of them.
    for u in range(line.n):
        highs = nbr[u] & above[index[u] - 1]
        if highs and highs & ~at[index[(highs & -highs).bit_length() - 1]]:
            out.append(f"(iii) vertex {u} has higher-index neighbors in two bags")

    # (iv) over the parent's edges {v_i, v_j}, i < j, which are the parent's
    # arcs out of v_i: bag i carries the edge if exactly one of its vertices,
    # listed once, touches bag j and that one is adjacent to all of it.
    for i in range(1, nbags + 1):
        bag = bags[i - 1]
        simple = bag_mask[i - 1].bit_count() == len(bag)
        for j in sorted(pos[c] + 1 for c in g.out_adjacency[sigma[i - 1]]):
            bm = bag_mask[j - 1] if j <= nbags else 0
            if not bm:
                continue
            t = bag_mask[i - 1] & bag_nbrs[j - 1]
            if simple and t and not t & (t - 1) and nbr[t.bit_length() - 1] & bm == bm:
                continue
            touching = [u for u in bag if nbr[u] & bm]
            full = [u for u in touching if nbr[u] & bm == bm]
            if len(touching) != 1 or len(full) != 1:
                out.append(f"(iv) bags {i},{j}: touching={touching} full={full}")

    # (v) can fail only at a vertex with two or more lower-index neighbors,
    # if two of them are adjacent or one misses part of the vertex's bag.
    for u1 in range(line.n):
        i1 = index[u1]
        lows = nbr[u1] & ~above[i1 - 1]
        if not lows & (lows - 1):
            continue
        bm = bag_mask[i1 - 1]
        union, common, rest = 0, -1, lows
        while rest:
            low = rest & -rest
            rest ^= low
            w = nbr[low.bit_length() - 1]
            union |= w
            common &= w
        if not union & lows and common & bm == bm:
            continue
        # The messages walk the neighbors in adjacency_sets order.
        adj = lg.adjacency_sets
        lows = [w for w in adj[u1] if index[w] < i1]
        misses = {w: nbr[w] & bm != bm for w in lows}
        for u2, u3 in combinations(lows, 2):
            if u3 in adj[u2]:
                out.append(f"(v) lower neighbors {u2},{u3} of {u1} adjacent")
            for w in (u2, u3):
                if misses[w]:
                    out.append(f"(v) vertex {w} misses part of bag {i1}")
    return out


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def shift_graph(n: int, k: int = 2) -> UndirectedGraph:
    """Shift graph on increasing k-tuples of {1..n}: t ~ t[1:] + (x,), x > t[-1].

    It is the underlying graph of the (k-1)-fold iterated line digraph of
    the acyclic tournament under the tuple relabeling, as the tests check
    for k = 2..4.
    """
    if k == 2:
        if n < 3:
            raise GraphError("need n >= 3 for pair shift graphs")
    elif k < 2 or n <= 2 * k:
        raise GraphError("need n > 2k > 2")
    # G(n, k) has C(n, k + 1) edges, at least its C(n, k) vertices as n > 2k.
    _check_binomial_cap(n, k + 1, "shift graph edges")
    verts = sorted(combinations(range(1, n + 1), k))
    vid = {t: i for i, t in enumerate(verts)}
    edges = []
    for t in verts:
        shifted = t[1:]
        for last in range(t[-1] + 1, n + 1):
            edges.append((vid[t], vid[shifted + (last,)]))
    labels = {i: "(" + ",".join(map(str, t)) + ")" for i, t in enumerate(verts)}
    return UndirectedGraph.build(len(verts), edges, labels)


def iterate_line_digraph(g: AcyclicDigraph, times: int) -> AcyclicDigraph:
    """Apply the line digraph ``times`` times; aborts once a level would
    pass the size cap in vertices or arcs.

    No level is cached on its parent, so each intermediate level is freed
    once the next one is built, and ``g`` keeps none of them alive.  Each
    step shortens the longest path by one arc, so within n + 1 steps the
    digraph is empty, its own line digraph; the loop stops there.
    """
    if times < 0:
        raise GraphError("iteration count must be non-negative")
    for _ in range(times):
        if g.n == 0:
            break
        g, _ = _line_digraph(g)
    return g


def zykov(n: int) -> AcyclicDigraph:
    """The n-th Zykov graph in a one-path acyclic orientation; the graph
    itself is its ``underlying``.

    Standard recursion: disjoint copies of the first n-1 graphs plus one apex
    per transversal, adjacent to the chosen vertex of each copy.  Every apex
    edge is oriented into the apex, so every arc points to a higher id; the
    orientation is verified to have at most one directed path between any
    vertex pair.
    """
    if n < 1:
        raise GraphError("Zykov index must be positive")
    # Z_m as its arcs and its labels in vertex order; Z_1 is one vertex.
    graphs: list[tuple[list[tuple[int, int]], list[str]]] = [([], ["v"])]
    for _ in range(1, n):
        arcs: list[tuple[int, int]] = []
        labels: list[str] = []
        offsets = []
        for j, (sub_arcs, sub_labels) in enumerate(graphs):
            offset = len(labels)
            offsets.append(offset)
            arcs.extend((u + offset, v + offset) for u, v in sub_arcs)
            labels.extend(f"z{j + 1}.{lab}" for lab in sub_labels)
        offset = len(labels)
        total = offset + prod(len(sub_labels) for _, sub_labels in graphs)
        check_size(total, f"Zykov graph would have {total} vertices")
        for t, choice in enumerate(product(*(range(len(sub)) for _, sub in graphs))):
            apex = offset + t
            labels.append(f"apex{t}")
            for j, c in enumerate(choice):
                arcs.append((offsets[j] + c, apex))
        graphs.append((arcs, labels))

    arcs, labels = graphs[-1]
    d = AcyclicDigraph.build(len(labels), arcs, dict(enumerate(labels)))
    if not verify_aop(d).ok:
        raise InternalInvariantError("Zykov orientation failed the one-path check")
    return d


def odd_girth_gadget(g: int) -> UndirectedGraph:
    """Cycle of odd length g plus one pendant-pair vertex per cycle vertex.

    Vertex i' (id g + i) is adjacent to the two cycle neighbors of vertex i.
    The result has odd-girth exactly g and admits no one-path acyclic
    orientation.
    """
    if g < 5 or g % 2 == 0:
        raise GraphError("gadget parameter must be odd and at least 5")
    check_size(3 * g, f"gadget would have {3 * g} edges")
    edges = []
    labels = {}
    for i in range(g):
        edges.append((i, (i + 1) % g))
        labels[i] = f"u{i + 1}"
        labels[g + i] = f"u'{i + 1}"
        edges.append((g + i, (i - 1) % g))
        edges.append((g + i, (i + 1) % g))
    return UndirectedGraph.build(2 * g, edges, labels)


def brinkmann_graph() -> UndirectedGraph:
    """The Brinkmann graph: 21 vertices, 4-regular, girth 5, chromatic number 4.

    Built from three heptagons a_i (0-6), b_i (7-13), c_i (14-20), indices
    mod 7: a_i ~ a_{i+1}, c_i ~ c_{i+2}, a_i ~ b_i, a_i ~ b_{i+3},
    b_i ~ c_i, b_i ~ c_{i+1}.
    """
    edges = []
    for i in range(7):
        edges += [(i, (i + 1) % 7), (14 + i, 14 + (i + 2) % 7), (i, 7 + i)]
        edges += [(i, 7 + (i + 3) % 7), (7 + i, 14 + i), (7 + i, 14 + (i + 1) % 7)]
    return UndirectedGraph.build(21, edges)


def _three_edge_paths(g: UndirectedGraph) -> list[tuple[int, int, int, int]]:
    """All paths with 3 edges (4 distinct vertices), canonically oriented."""
    paths = set()
    for b, c in g.edges:
        for (x, y) in ((b, c), (c, b)):
            for a in g.adjacency[x]:
                if a == y:
                    continue
                for d in g.adjacency[y]:
                    if d in (x, a):
                        continue
                    p = (a, x, y, d)
                    paths.add(min(p, p[::-1]))
    return sorted(paths)


def uncovered_seed_paths(
    g0: UndirectedGraph, out: UndirectedGraph
) -> list[tuple[int, int, int, int]]:
    """The 3-edge paths a-b-c-d of the seed ``g0`` that lie on no 5-cycle of
    ``out``: a and d have no common neighbor in ``out`` other than b and c."""
    adj = out.adjacency_sets
    return [p for p in _three_edge_paths(g0) if adj[p[0]] & adj[p[3]] <= {p[1], p[2]}]


def girth5_non_aop(g0: UndirectedGraph | None = None) -> UndirectedGraph:
    """Extend a 4-chromatic girth-5 graph so every 3-edge path of the seed
    lies on a 5-cycle, by adding degree-2 apex vertices.

    Any acyclic orientation of the result then contains a 5-cycle carrying a
    directed 3-edge path, which forces two disjoint directed paths between a
    vertex pair; so the output has girth 5 and no one-path orientation.
    The seed's vertices keep their ids and labels; the apexes get none.
    """
    if g0 is None:
        g0 = brinkmann_graph()
    if girth(g0) != 5:
        raise GraphError("seed graph must have girth exactly 5")
    chi, _ = chromatic_number(g0)
    if chi < 4:
        raise GraphError("seed graph must have chromatic number at least 4")

    # An apex joined to a and d covers exactly the 3-edge paths from a to d,
    # since it has degree 2; so each endpoint pair of the seed's uncovered
    # paths gets one, in the order of the pair's first path.
    ends = dict.fromkeys((p[0], p[3]) for p in uncovered_seed_paths(g0, g0))
    edges = list(g0.edges)
    for apex, (a, d) in enumerate(ends, start=g0.n):
        edges += [(a, apex), (d, apex)]
    out = UndirectedGraph.build(g0.n + len(ends), edges, g0.labels)

    if girth(out) != 5:
        raise InternalInvariantError("apex construction changed the girth")
    if uncovered_seed_paths(g0, out):
        raise InternalInvariantError("a seed 3-edge path is still uncovered")
    return out
