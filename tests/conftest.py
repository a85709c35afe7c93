import json
import math
import random
from itertools import product

import pytest

from shiftgraphs import constructors
from shiftgraphs.aop import verify_aop
from shiftgraphs.constructors import acyclic_tournament, line_digraph
from shiftgraphs.core import (
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    UndirectedGraph,
    orient,
    vertex_pairs,
)


def random_graph(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return UndirectedGraph.build(n, edges)


def random_graph_with(
    rng: random.Random, n: int, m: int, triangle_free: bool = False
) -> UndirectedGraph:
    """At most m edges on n vertices, taken in a shuffled pair order; with
    ``triangle_free`` an edge that would close a triangle is skipped."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if len(edges) == m:
            break
        if triangle_free and adj[u] & adj[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return UndirectedGraph.build(n, edges)


def random_dag(rng: random.Random, n: int, p: float) -> AcyclicDigraph:
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return AcyclicDigraph.build(n, arcs)


def digraph_from_arcs(n: int, arcs, topo, labels=None) -> AcyclicDigraph:
    """The digraph on sorted arc pairs ``arcs`` with topological order
    ``topo``, its adjacency grouped from the pairs."""
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    return AcyclicDigraph(n, tuple(map(tuple, out)), topo, labels)


def flagged_arcs(g: UndirectedGraph, forward) -> list[tuple[int, int]]:
    """The arcs of ``g`` with edge i pointing min -> max endpoint exactly
    when forward[i]."""
    return [e if f else e[::-1] for e, f in zip(g.edges, forward)]


def orient_by_index_and_flags(base: UndirectedGraph, arcs) -> AcyclicDigraph:
    """Reference ``orient``: each edge's index in a dict, a flag per edge set
    as its pair comes, then a scan for the first flag left unset."""
    pairs = vertex_pairs(base.n, arcs)
    edge_index = {e: i for i, e in enumerate(base.edges)}
    oriented = [False] * len(base.edges)
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        i = edge_index.get(key)
        if i is None:
            raise GraphError(f"oriented pair ({u}, {v}) is not an edge of the graph")
        if oriented[i]:
            raise GraphError(f"edge {key} oriented twice")
        oriented[i] = True
    for e, done in zip(base.edges, oriented):
        if not done:
            raise GraphError(f"edge {e} is not oriented")
    return AcyclicDigraph.build(base.n, pairs, base.labels)


def one_path(g: UndirectedGraph, arcs) -> bool:
    """Whether ``arcs`` orient ``g`` acyclically with at most one directed
    path per pair: a cycle refutes when ``orient`` raises, a doubled path
    when ``verify_aop`` fails."""
    try:
        d = orient(g, arcs)
    except DirectedCycleError:
        return False
    return verify_aop(d).ok


def brute_force_aop(g: UndirectedGraph) -> AcyclicDigraph | None:
    """Oracle: try all 2^|E| orientations, cyclic ones included, and return
    the first one-path one."""
    for forward in product((True, False), repeat=len(g.edges)):
        arcs = flagged_arcs(g, forward)
        if one_path(g, arcs):
            return orient(g, arcs)
    return None


def all_simple_directed_paths(out, s, t):
    paths = []

    def dfs(v, path):
        if v == t and len(path) > 1:
            paths.append(tuple(path))
            return
        for w in out[v]:
            if w not in path:
                dfs(w, path + [w])

    dfs(s, [s])
    return paths


def brute_violation(n, arcs):
    """Reference check on an arc set: "cycle", "double" or None."""
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    # Cycle detection by DFS colors.
    state = [0] * n

    def cyclic(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and cyclic(w)):
                return True
        state[v] = 2
        return False

    if any(state[v] == 0 and cyclic(v) for v in range(n)):
        return "cycle"
    if any(
        len(all_simple_directed_paths(out, s, t)) > 1
        for s in range(n)
        for t in range(n)
        if s != t
    ):
        return "double"
    return None


def brute_verify(g: UndirectedGraph, arcs) -> bool:
    """Reference check: explicit path enumeration plus cycle detection."""
    return brute_violation(g.n, arcs) is None


def brute_chromatic(g: UndirectedGraph) -> int:
    """Oracle: the least t for which some of the t^n colorings is proper."""
    if g.n == 0:
        return 0
    for t in range(1, g.n + 1):
        for assign in product(range(t), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges):
                return t
    raise AssertionError("unreachable")


def _bfs_dist(adj, start, skip=None) -> dict:
    """Distances from ``start`` over ``adj`` (a vertex -> neighbors map or
    sequence), never crossing the edge ``skip``."""
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in dist and {u, v} != skip:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def brute_girth(g: UndirectedGraph, odd: bool = False) -> int | float:
    """Oracle for girth and odd girth: a full BFS per edge or per vertex,
    with no cut-off and no vertex left out.

    The shortest cycle through an edge (u, v) is a shortest u-v path
    without that edge, plus the edge.  The shortest odd closed walk from v
    is a shortest path from (v, 0) to (v, 1) in the bipartite double cover;
    it contains an odd cycle no longer than itself, and an odd cycle is
    such a walk from each of its vertices.
    """
    best = math.inf
    if not odd:
        for u, v in g.edges:
            d = _bfs_dist(g.adjacency, u, skip={u, v}).get(v)
            if d is not None:
                best = min(best, d + 1)
        return best
    cover = {(v, s): [(w, 1 - s) for w in g.adjacency[v]] for v in range(g.n) for s in (0, 1)}
    for v in range(g.n):
        d = _bfs_dist(cover, (v, 0)).get((v, 1))
        if d is not None:
            best = min(best, d)
    return best


def try_color_by_scan(g: UndirectedGraph, t: int) -> list[int] | None:
    """DSATUR-ordered backtracking t-coloring with its pick as a scan of
    every vertex per node and neighbor colors as sets: the oracle for
    ``invariants._try_color``'s colorings."""
    adj = g.adjacency
    colors = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]

    def pick():
        keys = [(-len(neighbor_colors[v]), -len(adj[v]), v) for v in range(g.n) if colors[v] == -1]
        return min(keys)[2] if keys else None

    v = pick()
    if v is None:
        return colors
    stack = [[v, -1, -1, []]]
    while stack:
        frame = stack[-1]
        v, max_used, c, added = frame
        if c != -1:
            for w in added:
                neighbor_colors[w].discard(c)
            colors[v] = -1
        limit = min(max_used + 1, t - 1)
        c += 1
        while c <= limit and c in neighbor_colors[v]:
            c += 1
        if c > limit:
            stack.pop()
            continue
        colors[v] = c
        added = [w for w in adj[v] if colors[w] == -1 and c not in neighbor_colors[w]]
        for w in added:
            neighbor_colors[w].add(c)
        frame[2], frame[3] = c, added
        nxt = pick()
        if nxt is None:
            return colors
        stack.append([nxt, max(max_used, c), -1, []])
    return None


def chromatic_by_deepening(g: UndirectedGraph) -> tuple[int, tuple[int, ...]]:
    """Oracle for ``invariants.chromatic_number``: the least t for which
    the backtracking test finds a t-coloring, trying t = 1, 2, ... in turn,
    and that coloring."""
    if g.n == 0:
        return 0, ()
    t = 1
    while (witness := try_color_by_scan(g, t)) is None:
        t += 1
    return t, tuple(witness)


def brute_degeneracy(g: UndirectedGraph) -> int:
    """Oracle: the largest minimum degree over all 2^n - 1 induced subgraphs."""
    best = 0
    for mask in range(1, 1 << g.n):
        sub = [v for v in range(g.n) if mask >> v & 1]
        inside = set(sub)
        best = max(
            best, min(sum(1 for w in g.adjacency[v] if w in inside) for v in sub)
        )
    return best


def iterated_tuples(n: int, times: int) -> tuple[AcyclicDigraph, list[tuple[int, ...]]]:
    """Oracle for shift graphs: iterate the line digraph of the n-tournament,
    tracking the 1-based integer tuple each vertex corresponds to."""
    d = acyclic_tournament(n)
    tuples: list[tuple[int, ...]] = [(i + 1,) for i in range(n)]
    for _ in range(times):
        d, bd = line_digraph(d)
        tuples = [tuples[a] + (tuples[b][-1],) for a, b in bd.arcs]
    return d, tuples


def json_oracle(x: UndirectedGraph | AcyclicDigraph) -> str:
    """Oracle for ``to_json``: one ``json.dumps`` of the schema's dict."""
    directed = isinstance(x, AcyclicDigraph)
    obj: dict = {"n": x.n, "directed": directed, "edges": x.arcs if directed else x.edges}
    if x.labels:
        obj["labels"] = {str(k): x.labels[k] for k in sorted(x.labels)}
    return json.dumps(obj)


# Digraphs that repeated line digraphs empty: within n + 1 steps, since each
# step shortens the longest path by one arc.
FIXED_POINT_CASES = {
    "empty": AcyclicDigraph.build(0, []),
    "t5": acyclic_tournament(5),
    "path": AcyclicDigraph.build(6, [(i, i + 1) for i in range(5)]),
}


@pytest.fixture
def line_steps(monkeypatch) -> list[int]:
    """The vertex count of each digraph that ``iterate_line_digraph`` takes
    a line digraph of; a 51st step fails, so an iteration that runs on past
    the empty digraph fails instead of hanging."""
    counts: list[int] = []
    real = constructors._line_digraph

    def counted(g):
        counts.append(g.n)
        assert len(counts) <= 50, "iterated past the empty digraph"
        return real(g)

    monkeypatch.setattr(constructors, "_line_digraph", counted)
    return counts


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
