import json
import random
from itertools import product

import pytest

from shiftgraphs.aop import verify_aop
from shiftgraphs.constructors import acyclic_tournament, line_digraph
from shiftgraphs.core import AcyclicDigraph, Orientation, UndirectedGraph


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


def orient(g: UndirectedGraph, forward) -> Orientation:
    """``g`` with edge i pointing min -> max endpoint exactly when forward[i]."""
    return Orientation(g, tuple(e if f else e[::-1] for e, f in zip(g.edges, forward)))


def brute_force_aop(g: UndirectedGraph) -> Orientation | None:
    """Oracle: try all 2^|E| orientations, return the first verifying one."""
    for forward in product((True, False), repeat=len(g.edges)):
        o = orient(g, forward)
        if verify_aop(o).ok:
            return o
    return None


def iterated_tuples(n: int, times: int) -> tuple[AcyclicDigraph, list[tuple[int, ...]]]:
    """Oracle for shift graphs: iterate the line digraph of the n-tournament,
    tracking the 1-based integer tuple each vertex corresponds to."""
    d = acyclic_tournament(n)
    tuples: list[tuple[int, ...]] = [(i + 1,) for i in range(n)]
    for _ in range(times):
        d, bd = line_digraph(d)
        tuples = [tuples[a] + (tuples[b][-1],) for a, b in bd.arcs]
    return d, tuples


def json_oracle(x: UndirectedGraph | AcyclicDigraph | Orientation) -> str:
    """Oracle for ``to_json``: one ``json.dumps`` of the schema's dict."""
    if isinstance(x, Orientation):
        return json.dumps({"edges": [list(a) for a in x.arcs]})
    directed = isinstance(x, AcyclicDigraph)
    obj: dict = {"n": x.n, "directed": directed, "edges": x.arcs if directed else x.edges}
    if x.labels:
        obj["labels"] = {str(k): x.labels[k] for k in sorted(x.labels)}
    return json.dumps(obj)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
