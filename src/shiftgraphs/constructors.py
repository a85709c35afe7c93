"""Generators for every graph family used in this artifact.

Acyclic tournaments, line digraphs with their bag decompositions, shift
graphs, Zykov graphs with a one-path acyclic orientation, the odd-girth
non-one-path gadget, and the girth-5 apex construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence, Set
from itertools import chain, combinations, product, repeat
from math import prod

from .aop import verify_aop
from .core import (
    DEFAULT_SIZE_CAP,
    AcyclicDigraph,
    GraphError,
    InternalInvariantError,
    Orientation,
    SizeCapExceeded,
    UndirectedGraph,
    _Record,
    underlying,
)
from .invariants import chromatic_number, girth


def _check_binomial_cap(n: int, k: int, what: str) -> None:
    """Raise SizeCapExceeded if C(n, k) > DEFAULT_SIZE_CAP, before anything
    of that size is built.  For n >= k the partial products C(n - k + i, i)
    never fall, so the loop stops at the first one past the cap and stays
    short whatever n and k are."""
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > DEFAULT_SIZE_CAP:
            raise SizeCapExceeded(
                f"{what} would number C({n}, {k}) > {DEFAULT_SIZE_CAP} (the size cap)"
            )


class BagDecomposition(_Record):
    """Bags of a line digraph: B(i) holds the out-arcs of the i-th vertex
    (1-based) of the parent's topological order.

    ``arcs[u]`` is the parent arc underlying line vertex u, and ``index[u]``
    the 1-based bag id of its tail.
    """

    _fields = ("parent", "bags", "index", "arcs")

    def __init__(
        self,
        parent: AcyclicDigraph,
        bags: tuple[tuple[int, ...], ...],  # bags[i-1] = B(i), i in 1..n-1
        index: tuple[int, ...],  # line vertex id -> bag id
        arcs: tuple[tuple[int, int], ...],  # line vertex id -> parent arc
    ) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "arcs", arcs)


def acyclic_tournament(n: int) -> AcyclicDigraph:
    """Complete graph oriented along the identity order."""
    if n < 1:
        raise GraphError("tournament needs at least one vertex")
    _check_binomial_cap(n, 2, "acyclic tournament arcs")
    arcs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return AcyclicDigraph(n, arcs, tuple(range(n)))


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


class _Sized:
    """An iterator with its exact length, so that ``tuple()`` allocates its
    result once (a wrong length costs time, never items).  From a bare
    iterator ``tuple()`` grows the result about 50 times for L(L(T60))'s
    487,635 arcs, and each growth puts it back in the youngest GC generation
    to be traversed again: about 60 ms in all on a 2-vCPU VM."""

    def __init__(self, items: Iterator, n: int):
        self._items, self._n = items, n

    def __iter__(self) -> Iterator:
        return self._items

    def __len__(self) -> int:
        return self._n


def _line_digraph(g: AcyclicDigraph) -> tuple[AcyclicDigraph, BagDecomposition]:
    """``line_digraph`` without the cache, for levels nobody keeps.

    With the arcs grouped by tail in topological order (heads ascending),
    the out-arcs of each vertex occupy one contiguous id range, so the line
    arcs out of arc (a, b) are b's id range and come out in sorted order.
    Every id is one shared int object from ``ids``: on L(L(T60)), with
    487,635 line arcs, a fresh int per arc costs about 14 MB of peak RSS.

    The line vertices are the input's arcs, and the line arcs through v
    number indeg(v) * outdeg(v), counted in one pass over the input; both
    totals are checked against the size cap before anything is built.
    """
    m = len(g.arcs)
    if m > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(
            f"line digraph would have {m} vertices > {DEFAULT_SIZE_CAP} (the size cap)"
        )
    out = g.out_adjacency
    indeg = [0] * g.n
    for _, v in g.arcs:
        indeg[v] += 1
    size = sum(d * len(a) for d, a in zip(indeg, out))
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(
            f"line digraph would have {size} arcs > {DEFAULT_SIZE_CAP} (the size cap)"
        )
    arcs = [(v, w) for v in g.topo for w in out[v]]
    ids = list(range(m))
    heads: list[list[int]] = [[]] * g.n  # ids of each vertex's out-arcs (the last has none)
    bags = []
    index: list[int] = []
    for i, v in enumerate(g.topo[:-1], start=1):
        lo = len(index)
        index.extend([i] * len(out[v]))
        heads[v] = ids[lo:len(index)]
        bags.append(tuple(heads[v]))
    if len(index) != m:
        raise InternalInvariantError("out-arc from the last topological position")
    pairs = chain.from_iterable(zip(repeat(i), heads[b]) for i, (_, b) in zip(ids, arcs))
    line_arcs = tuple(_Sized(pairs, size))
    lab = [g.label(v) for v in range(g.n)]
    labels = {i: f"({lab[u]},{lab[v]})" for i, (u, v) in zip(ids, arcs)}
    line = AcyclicDigraph(m, line_arcs, tuple(ids), labels)
    return line, BagDecomposition(g, tuple(bags), tuple(index), tuple(arcs))


def structure_violations(line: AcyclicDigraph, bd: BagDecomposition) -> list[str]:
    """Check the five structural clauses of a bag decomposition.

    Returns human-readable violation messages; an empty list means every
    clause holds.  Clauses: (i) bags are independent, (ii) adjacency projects
    to parent adjacency with arcs pointing up in bag index, (iii) two
    higher-index neighbors of a vertex share a bag, (iv) a parent edge is
    carried by exactly one all-adjacent bag vertex, (v) two lower-index
    neighbors of a vertex are non-adjacent and adjacent to its whole bag.
    """
    g = bd.parent
    sigma = g.topo
    lg = underlying(line)
    adj = lg.adjacency_sets
    arc_set = set(line.arcs)
    out: list[str] = []

    for i, bag in enumerate(bd.bags, start=1):
        for u, v in combinations(bag, 2):
            if v in adj[u]:
                out.append(f"(i) bag {i} vertices {u},{v} adjacent")

    gu = underlying(g)
    for u1, u2 in lg.edges:
        a = sigma[bd.index[u1] - 1]
        c = sigma[bd.index[u2] - 1]
        if not gu.has_edge(a, c):
            out.append(f"(ii) edge ({u1},{u2}) projects to non-edge ({a},{c})")
        lo, hi = (u1, u2) if bd.index[u1] < bd.index[u2] else (u2, u1)
        if (lo, hi) not in arc_set:
            out.append(f"(ii) arc between {u1},{u2} not directed up the index")

    for u in range(line.n):
        highs = [w for w in adj[u] if bd.index[w] >= bd.index[u]]
        if len({bd.index[w] for w in highs}) > 1:
            out.append(f"(iii) vertex {u} has higher-index neighbors in two bags")

    # Clauses (iv) and (v) as bitmask tests: u is adjacent to every vertex
    # of a bag iff the bag's mask is a subset of u's neighbor mask.
    nbr_mask = [sum(1 << w for w in a) for a in adj]
    bag_mask = [sum(1 << u for u in set(bag)) for bag in bd.bags]
    nbags = len(bd.bags)
    for i in range(1, nbags + 1):
        vi = sigma[i - 1]
        for j in range(i + 1, nbags + 1):
            vj = sigma[j - 1]
            bm = bag_mask[j - 1]
            if not bm or not gu.has_edge(vi, vj):
                continue
            touching = [u for u in bd.bags[i - 1] if nbr_mask[u] & bm]
            full = [u for u in touching if nbr_mask[u] & bm == bm]
            if len(touching) != 1 or len(full) != 1:
                out.append(f"(iv) bags {i},{j}: touching={touching} full={full}")

    for u1 in range(line.n):
        lows = [w for w in adj[u1] if bd.index[w] < bd.index[u1]]
        bm = bag_mask[bd.index[u1] - 1]
        misses = {w: nbr_mask[w] & bm != bm for w in lows}
        for u2, u3 in combinations(lows, 2):
            if u3 in adj[u2]:
                out.append(f"(v) lower neighbors {u2},{u3} of {u1} adjacent")
            for w in (u2, u3):
                if misses[w]:
                    out.append(f"(v) vertex {w} misses part of bag {bd.index[u1]}")
    return out


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
    have more than ``DEFAULT_SIZE_CAP`` vertices or arcs.

    No level is cached on its parent, so each intermediate level is freed
    once the next one is built, and ``g`` keeps none of them alive.
    """
    if times < 0:
        raise GraphError("iteration count must be non-negative")
    for _ in range(times):
        g, _ = _line_digraph(g)
    return g


def induced_line_subdigraph(
    t_prime: AcyclicDigraph, n: int
) -> tuple[AcyclicDigraph, dict[int, int]]:
    """Line digraph of a tournament subdigraph, with its embedding into the
    pair shift graph on n symbols.

    Returns the line digraph and the injection from its vertex ids to the
    vertex ids of ``shift_graph(n, 2)``; the image is verified to induce
    exactly the line graph's edges.
    """
    if t_prime.n > n:
        raise GraphError("subdigraph has more vertices than the host tournament")
    for u, v in t_prime.arcs:
        if u >= v:
            raise GraphError(f"arc ({u}, {v}) violates the tournament order")
    line, bd = line_digraph(t_prime)
    host = shift_graph(n, 2)
    pairs = sorted(combinations(range(1, n + 1), 2))
    host_id = {t: i for i, t in enumerate(pairs)}
    injection = {
        i: host_id[(u + 1, v + 1)] for i, (u, v) in enumerate(bd.arcs)
    }
    image = set(injection.values())
    induced_edges = {
        (u, v) for u, v in host.edges if u in image and v in image
    }
    mapped = {
        tuple(sorted((injection[u], injection[v]))) for u, v in line.arcs
    }
    if mapped != induced_edges:
        raise InternalInvariantError("line digraph image is not an induced subgraph")
    return line, injection


def zykov(n: int) -> tuple[UndirectedGraph, Orientation]:
    """The n-th Zykov graph with a one-path acyclic orientation.

    Standard recursion: disjoint copies of the first n-1 graphs plus one apex
    per transversal, adjacent to the chosen vertex of each copy.  Every apex
    edge is oriented into the apex; the resulting orientation is verified to
    be acyclic with at most one directed path between any vertex pair.
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
        if total > DEFAULT_SIZE_CAP:
            raise SizeCapExceeded(
                f"Zykov graph would have {total} vertices (cap {DEFAULT_SIZE_CAP})"
            )
        for t, choice in enumerate(product(*(range(len(sub)) for _, sub in graphs))):
            apex = offset + t
            labels.append(f"apex{t}")
            for j, c in enumerate(choice):
                arcs.append((offsets[j] + c, apex))
        graphs.append((arcs, labels))

    arcs, labels = graphs[-1]
    g = UndirectedGraph.build(len(labels), arcs, dict(enumerate(labels)))
    orientation = Orientation.build(g, arcs)
    if not verify_aop(orientation).ok:
        raise InternalInvariantError("Zykov orientation failed the one-path check")
    return g, orientation


def odd_girth_gadget(g: int) -> UndirectedGraph:
    """Cycle of odd length g plus one pendant-pair vertex per cycle vertex.

    Vertex i' (id g + i) is adjacent to the two cycle neighbors of vertex i.
    The result has odd-girth exactly g and admits no one-path acyclic
    orientation.
    """
    if g < 5 or g % 2 == 0:
        raise GraphError("gadget parameter must be odd and at least 5")
    if 3 * g > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(
            f"gadget would have {3 * g} edges > {DEFAULT_SIZE_CAP} (the size cap)"
        )
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


def _on_five_cycle(
    path: tuple[int, int, int, int], adj: Sequence[Set[int]]
) -> bool:
    """Whether the 3-edge path a-b-c-d closes into a 5-cycle through a common
    neighbor of a and d other than b and c."""
    a, b, c, d = path
    return any(x not in (b, c) for x in adj[a] & adj[d])


def uncovered_seed_paths(
    g0: UndirectedGraph, out: UndirectedGraph
) -> list[tuple[int, int, int, int]]:
    """The 3-edge paths of the seed ``g0`` that lie on no 5-cycle of ``out``."""
    adj = out.adjacency_sets
    return [p for p in _three_edge_paths(g0) if not _on_five_cycle(p, adj)]


def girth5_non_aop(g0: UndirectedGraph | None = None) -> UndirectedGraph:
    """Extend a 4-chromatic girth-5 graph so every 3-edge path of the seed
    lies on a 5-cycle, by adding degree-2 apex vertices.

    Any acyclic orientation of the result then contains a 5-cycle carrying a
    directed 3-edge path, which forces two disjoint directed paths between a
    vertex pair; so the output has girth 5 and no one-path orientation.
    """
    if g0 is None:
        g0 = brinkmann_graph()
    if girth(g0) != 5:
        raise GraphError("seed graph must have girth exactly 5")
    chi, _ = chromatic_number(g0)
    if chi < 4:
        raise GraphError("seed graph must have chromatic number at least 4")

    n = g0.n
    edges = list(g0.edges)
    adj: list[set[int]] = [set(s) for s in g0.adjacency_sets]
    for (a, b, c, d) in _three_edge_paths(g0):
        if not _on_five_cycle((a, b, c, d), adj):
            apex = n
            n += 1
            adj.append({a, d})
            adj[a].add(apex)
            adj[d].add(apex)
            edges.append((a, apex))
            edges.append((d, apex))
    out = UndirectedGraph.build(n, edges)

    if girth(out) != 5:
        raise InternalInvariantError("apex construction changed the girth")
    if uncovered_seed_paths(g0, out):
        raise InternalInvariantError("a seed 3-edge path is still uncovered")
    return out
