import json
import math
import random
import re
import tempfile
import tracemalloc
from collections import deque
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from shiftgraphs.constructors import acyclic_tournament, iterate_line_digraph, line_digraph
from shiftgraphs.core import (
    DEFAULT_SIZE_CAP,
    JSON_CHUNK,
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    SizeCapExceeded,
    UndirectedGraph,
    biconnected_blocks,
    graph_from_json,
    orient,
    path_masks,
    read_graph,
    read_orientation,
    to_json,
    topological_order,
    underlying,
    write_dot,
    write_json,
    write_orientation,
)

from conftest import (
    digraph_from_arcs,
    json_oracle,
    orient_by_index_and_flags,
    random_dag,
    random_graph,
)


def induced(g, vertices):
    """Induced subgraph on the given vertices, relabeled densely, and the
    old-id -> new-id map."""
    vs = sorted(set(vertices))
    remap = {v: i for i, v in enumerate(vs)}
    edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    labels = {remap[v]: g.label(v) for v in vs} if g.labels else None
    return UndirectedGraph.build(len(vs), edges, labels), remap


def connected_components(g):
    """BFS components, each sorted ascending, ordered by minimum element."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


class TestUndirectedGraph:
    def test_canonical_edge_order(self):
        g = UndirectedGraph.build(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((0, 2), (1, 2), (1, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            UndirectedGraph.build(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            UndirectedGraph.build(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            UndirectedGraph.build(2, [(0, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((1, 1),), "self-loop"),
            (((0, 1), (0, 1)), "duplicate edge"),
            (((0, 3),), "out of range"),
            (((1, 0),), "min endpoint first"),
            (((1, 2), (0, 1)), "sorted order"),
            (((0, True),), "non-integer"),
            (((0, 1.0),), "non-integer"),
        ],
    )
    def test_constructor_reports_each_fault(self, edges, message):
        with pytest.raises(GraphError, match=message):
            UndirectedGraph(3, edges)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="vertex count must be a non-negative int"):
            UndirectedGraph(-1, ())

    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_labels_checked_alike_and_kept_as_given(self, cls):
        g = cls.build(3, [(0, 1)], {2: "7", 0: "a"})
        assert g.labels == {0: "a", 2: "7"} and list(g.labels) == [2, 0]
        assert [g.label(v) for v in range(3)] == ["a", "1", "7"]
        with pytest.raises(GraphError, match="label key 3 out of range"):
            cls.build(3, [], {3: "x"})
        with pytest.raises(GraphError, match="label of vertex 2 must be a string"):
            cls.build(3, [], {0: "a", 2: 7})

    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_labels_must_be_unicode_text(self, cls):
        # JSON can spell a lone surrogate, which no UTF-8 file can hold.
        with pytest.raises(GraphError, match="label of vertex 1 is not valid Unicode"):
            cls.build(3, [], {0: "\u00e9\U0001f600", 1: "a\ud800"})
        directed = "true" if cls is AcyclicDigraph else "false"
        with pytest.raises(GraphError, match="not valid Unicode"):
            graph_from_json(
                f'{{"n": 1, "directed": {directed}, "edges": [], "labels": {{"0": "\\udc00"}}}}'
            )

    @pytest.mark.parametrize("key", [True, False, "0", 1.0])
    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_label_keys_are_ints(self, cls, key):
        with pytest.raises(GraphError, match="label keys"):
            cls.build(3, [], {key: "x"})

    def test_adjacency(self, rng):
        g = UndirectedGraph.build(4, [(0, 1), (0, 2), (2, 3)])
        assert g.adjacency == ((1, 2), (0,), (0, 3), (2,))
        assert g.degree(0) == 2
        assert g.has_edge(2, 3) and not g.has_edge(1, 3)
        # Each neighbor tuple ascends without a sort; sparse graphs leave
        # some vertices isolated.
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 30), rng.uniform(0.02, 0.6))
            nbrs = [sorted({v for e in g.edges if u in e for v in e} - {u}) for u in range(g.n)]
            assert g.adjacency == tuple(map(tuple, nbrs))

    def test_induced(self):
        g = UndirectedGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, remap = induced(g, [0, 1, 4])
        assert sub.n == 3
        assert sub.edges == ((0, 1), (0, 2))
        assert remap == {0: 0, 1: 1, 4: 2}


class TestAcyclicDigraph:
    def test_rejects_cycle(self):
        with pytest.raises(DirectedCycleError):
            AcyclicDigraph.build(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_antiparallel_pair(self):
        with pytest.raises(DirectedCycleError) as exc:
            AcyclicDigraph.build(3, [(0, 1), (1, 0), (1, 2)])
        assert exc.value.cycle == [0, 1]

    def test_rejects_self_loop_as_cycle(self):
        with pytest.raises(DirectedCycleError) as exc:
            AcyclicDigraph.build(3, [(0, 1), (2, 2)])
        assert exc.value.cycle == [2]

    @pytest.mark.parametrize(
        "arcs", [[(0, 1.7)], [("1", 2)], [(0, 1), (1, 2), (0, 1)], [(True, 2)], [(0, 3)]]
    )
    def test_build_rejects_without_coercing(self, arcs):
        with pytest.raises(GraphError) as exc:
            AcyclicDigraph.build(3, arcs)
        assert not isinstance(exc.value, DirectedCycleError)

    # One shared head tuple: the memo of its lowest topo position must still
    # be compared against the position of every tail that uses it.
    SHARED = (1,)

    @pytest.mark.parametrize(
        "out, topo, message",
        [
            (((), (1,), ()), (0, 1, 2), r"arc \(1, 1\) does not point forward"),  # self-loop
            (((1,), (0,), ()), (0, 1, 2), r"arc \(1, 0\) does not point forward"),  # antiparallel
            (((1, 1), (), ()), (0, 1, 2), r"duplicate arc \(0, 1\)"),
            (((3,), (), ()), (0, 1, 2), "not a pair of vertex ids"),  # out of range
            (((-1,), (), ()), (0, 1, 2), "not a pair of vertex ids"),  # out of range
            (((1.0,), (), ()), (0, 1, 2), "not a pair of vertex ids"),  # non-integer head
            (((True,), (), ()), (0, 1, 2), "not a pair of vertex ids"),  # bool head
            (((1,), (), ()), (0, 1, 1), "topo is not a permutation"),  # topo repeats a vertex
            (((1,), (), ()), (0, 1), "topo is not a permutation"),  # topo too short
            (((1,), (), ()), (0, 1, 2, 3), "topo is not a permutation"),  # topo too long
            (((1,), (), ()), (0, 1.0, 2), "topo is not a permutation"),  # topo holds a float
            (((1,), (), ()), (1, 0, 2), r"arc \(0, 1\) does not point forward"),  # backward arc
            (((2, 1), (), ()), (0, 1, 2), "not in sorted order"),  # heads not sorted
            (([1], (), ()), (0, 1, 2), "heads of vertex 0 are a list"),  # a list, not a tuple
            (((1,), ()), (0, 1, 2), "not a tuple of 3 head tuples"),  # one head tuple short
            ([(1,), (), ()], (0, 1, 2), "not a tuple of 3 head tuples"),  # a list of them
            ((SHARED, (), SHARED), (0, 1, 2), r"arc \(2, 1\) does not point forward"),
            ((SHARED, (), SHARED), (2, 1, 0), r"arc \(0, 1\) does not point forward"),
        ],
    )
    def test_constructor_rejects(self, out, topo, message):
        with pytest.raises(GraphError, match=message):
            AcyclicDigraph(3, out, topo)

    def test_shared_head_tuples(self):
        d = AcyclicDigraph(4, ((1, 2), (3,), (3,), ()), (0, 2, 1, 3))
        assert d.arcs == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert d.in_adjacency == ((), (0,), (0,), (1, 2))
        assert d.underlying.edges == d.arcs

    def test_derived_structures_match_arc_pairs(self, rng):
        # The arcs, in-adjacency and underlying graph as they were derived
        # when the arc pairs were the stored field.
        for _ in range(50):
            n = rng.randint(0, 12)
            d = random_dag(rng, n, rng.uniform(0.1, 0.9))
            arcs = tuple(sorted((u, v) for u in range(n) for v in d.out_adjacency[u]))
            assert d.arcs == arcs
            inc: list[list[int]] = [[] for _ in range(n)]
            for u, v in arcs:
                inc[v].append(u)
            assert d.in_adjacency == tuple(tuple(sorted(a)) for a in inc)
            assert d.underlying.edges == tuple(sorted((min(a), max(a)) for a in arcs))
            assert d == digraph_from_arcs(n, arcs, d.topo)
            assert hash(d) == hash((n, arcs, None))

    def test_topo_respects_arcs(self):
        d = AcyclicDigraph.build(4, [(2, 0), (0, 3), (3, 1)])
        pos = {v: i for i, v in enumerate(d.topo)}
        for u, v in d.arcs:
            assert pos[u] < pos[v]

    def test_equality_ignores_topo(self):
        a = AcyclicDigraph(3, ((2,), (), ()), (0, 1, 2))
        b = AcyclicDigraph(3, ((2,), (), ()), (1, 0, 2))
        assert a == b and hash(a) == hash(b)
        assert a != AcyclicDigraph(4, ((2,), (), (), ()), (0, 1, 2, 3))
        assert a != AcyclicDigraph(3, ((1,), (), ()), (0, 1, 2))
        assert a != AcyclicDigraph(3, ((2,), (), ()), (0, 1, 2), {1: "x"})
        assert a != UndirectedGraph(3, ((0, 2),))


def strip_and_walk(n, arcs, order):
    """Reference cycle report: among the vertices Kahn's algorithm leaves,
    rescan until none lacks a surviving out-neighbor, then walk min
    out-neighbors among the rest."""
    if order is not None:
        return None
    out = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if not indeg[v]]
    while ready:
        for w in out[ready.pop()]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    remaining = {v for v in range(n) if indeg[v]}
    stripped = True
    while stripped:
        stripped = False
        for v in sorted(remaining):
            if not any(w in remaining for w in out[v]):
                remaining.discard(v)
                stripped = True
    path, v = [], min(remaining)
    while v not in path:
        path.append(v)
        v = min(w for w in out[v] if w in remaining)
    return path[path.index(v):]


def order_of(n, arcs):
    """``topological_order`` of the arcs grouped by tail, in input order, as
    (order, None), or as (None, cycle) where it raises DirectedCycleError."""
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    try:
        return topological_order(out), None
    except DirectedCycleError as exc:
        return None, exc.cycle


class ReadCounted(list):
    """A list that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class TestTopologicalOrder:
    def test_min_id_tie_break(self):
        order, cycle = order_of(4, [(3, 1)])
        assert cycle is None
        assert order == [0, 2, 3, 1]

    def test_cycle_witness_is_a_cycle(self):
        order, cycle = order_of(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert order is None
        assert sorted(cycle) == [0, 1, 2]

    def test_cycle_report_matches_repeated_strip(self, rng):
        for _ in range(300):
            n = rng.randint(1, 10)
            p = rng.random() * 0.4
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            order, cycle = order_of(n, arcs)
            assert cycle == strip_and_walk(n, arcs, order)

    def test_build_orders_alike_in_any_arc_order(self, rng):
        # ``build`` groups the arcs once and runs the same pass on them: its
        # order, or its cycle report, does not depend on the arcs' order.
        for _ in range(200):
            n = rng.randint(1, 9)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.2]
            order, cycle = order_of(n, arcs)
            rng.shuffle(arcs)
            if cycle is None:
                assert list(AcyclicDigraph.build(n, arcs).topo) == order
            else:
                with pytest.raises(DirectedCycleError) as exc:
                    AcyclicDigraph.build(n, arcs)
                assert exc.value.cycle == cycle

    def test_long_tail_after_cycle_is_linear(self):
        # The chain hanging off the 2-cycle is stripped one vertex at a time;
        # a rescan per stripped vertex would take minutes here.
        n = 20_000
        arcs = [(0, 1), (1, 0)] + [(i, i + 1) for i in range(1, n - 1)]
        assert order_of(n, arcs) == (None, [0, 1])

    def test_cycle_report_matches_strip_up_to_300_vertices(self, rng):
        # n forward arcs (low id to high) span at most 5 ids and up to n more
        # any two vertices; up to 4 back arcs span at most 20 ids, so they
        # often close a cycle with dead branches hanging off it.  Self-loops,
        # repeated arcs and shuffled out-lists are mixed in.
        cyclic = 0
        for _ in range(2000):
            n = rng.randint(2, 300)
            arcs = [(u, min(u + rng.randint(1, 5), n - 1)) for u in rng.choices(range(n - 1), k=n)]
            arcs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))]
            for u in rng.choices(range(n - 1), k=rng.randint(0, 4)):
                arcs.append((min(u + rng.randint(1, 20), n - 1), u))
            if rng.random() < 0.2:
                v = rng.randrange(n)
                arcs.append((v, v))
            arcs += rng.choices(arcs, k=3)
            rng.shuffle(arcs)
            order, cycle = order_of(n, arcs)
            assert cycle == strip_and_walk(n, arcs, order)
            cyclic += cycle is not None
        assert 800 < cyclic < 1900

    def test_wide_fan_reads_each_out_list_twice(self):
        # Vertex 0 has 20,000 dead leaves before 20,001, the other vertex of
        # its 2-cycle.  Each out-list is read once for the in-degrees and
        # once by the search; reading 0's again after each dead leaf would
        # be quadratic here.
        n = 20_002
        out = [ReadCounted(range(1, n)), *(ReadCounted() for _ in range(n - 2)), ReadCounted([0])]
        with pytest.raises(DirectedCycleError) as exc:
            topological_order(out)
        assert exc.value.cycle == [0, n - 1]
        assert max(heads.reads for heads in out) == 2

    def test_exhaustive_small_digraphs(self):
        # All digraphs on 4 vertices with one arc per pair: the witness,
        # when present, must be a genuine directed cycle.
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        for choice in product((0, 1, None), repeat=len(pairs)):
            arcs = [
                (u, v) if b == 0 else (v, u)
                for (u, v), b in zip(pairs, choice)
                if b is not None
            ]
            order, cycle = order_of(4, arcs)
            arc_set = set(arcs)
            if order is not None:
                pos = {v: i for i, v in enumerate(order)}
                assert all(pos[u] < pos[v] for u, v in arcs)
            else:
                assert len(cycle) == len(set(cycle)) >= 2
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert (a, b) in arc_set


class TestOrient:
    PATH = UndirectedGraph.build(3, [(0, 1), (1, 2)], {1: "mid"})

    def test_arcs_and_labels(self):
        d = orient(self.PATH, [(1, 2), (1, 0)])
        assert d.arcs == ((1, 0), (1, 2))
        assert d.underlying == self.PATH and d.labels == {1: "mid"}

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 2)], "oriented pair (0, 2) is not an edge of the graph"),
            ([(1, 1)], "oriented pair (1, 1) is not an edge of the graph"),
            ([(0, 1), (0, 1)], "edge (0, 1) oriented twice"),
            ([(2, 1), (1, 2)], "edge (1, 2) oriented twice"),
            ([(0, 1), (1, 0), (1, 2)], "edge (0, 1) oriented twice"),
            ([(True, 1)], "non-integer endpoint"),
            ([(0, 1.0)], "non-integer endpoint"),
            ([("1", 2)], "non-integer endpoint"),
            ([(0, 3)], "endpoint out of range"),
            ([(-1, 0)], "endpoint out of range"),
            ([(2, 1)], "edge (0, 1) is not oriented"),
            ([(1, 0)], "edge (1, 2) is not oriented"),
            ([], "edge (0, 1) is not oriented"),
        ],
    )
    def test_rejects(self, arcs, message):
        with pytest.raises(GraphError, match=re.escape(message)) as exc:
            orient(self.PATH, arcs)
        assert not isinstance(exc.value, DirectedCycleError)

    def test_rejects_arc_outside_base(self):
        d = AcyclicDigraph.build(3, [(0, 1), (0, 2)])
        with pytest.raises(GraphError, match="not an edge"):
            orient(self.PATH, d.arcs)

    def test_checks_come_before_the_cycle(self):
        # A doubled edge is reported as such, not as the 2-cycle it makes;
        # a total orientation with a cycle raises DirectedCycleError.
        triangle = UndirectedGraph.build(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError, match=re.escape("edge (0, 1) oriented twice")):
            orient(triangle, [(0, 1), (1, 0), (1, 2), (0, 2)])
        with pytest.raises(DirectedCycleError) as exc:
            orient(triangle, [(1, 2), (2, 0), (0, 1)])
        assert exc.value.cycle == [0, 1, 2]

    def test_arcs_round_trip(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            d = random_dag(rng, g.n, 0.5)  # its topo orders g's edges
            pos = {v: i for i, v in enumerate(d.topo)}
            arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges]
            expected = AcyclicDigraph.build(g.n, arcs)
            rng.shuffle(arcs)  # orient takes the arcs in any order
            got = orient(g, arcs)
            assert got == expected and got.underlying == g
            assert orient(g, got.arcs) == got


    def test_matches_index_and_flags(self, rng):
        # Seeded orientations with missing, repeated, reversed-repeated,
        # non-edge and self-loop pairs give the digraph, or the GraphError
        # message, of the index-and-flags reference.
        kinds = set()
        for _ in range(5000):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
            for _ in range(rng.randint(0, 2)):
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                fault = rng.choice(["missing", "repeated", "reversed", "pair", "self-loop"])
                if fault == "missing" and arcs:
                    arcs.pop(rng.randrange(len(arcs)))
                elif fault == "repeated" and arcs:
                    arcs.append(rng.choice(arcs))
                elif fault == "reversed" and arcs:
                    arcs.append(rng.choice(arcs)[::-1])
                elif fault == "pair":
                    arcs.append((u, v))
                elif fault == "self-loop":
                    arcs.append((u, u))
                kinds.add(fault)
            rng.shuffle(arcs)
            try:
                expected = orient_by_index_and_flags(g, arcs)
            except GraphError as exc:
                with pytest.raises(type(exc)) as got:
                    orient(g, arcs)
                assert str(got.value) == str(exc)
            else:
                assert orient(g, arcs) == expected
        assert len(kinds) == 5

def path_bits(d, s, t):
    """(at least one, at least two) directed s -> t paths, read off path_masks."""
    one, many = path_masks(d)
    return bool(one[t] >> s & 1), bool(many[t] >> s & 1)


class TestPathCounts:
    def test_diamond_counts_two(self):
        d = AcyclicDigraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert path_bits(d, 0, 3) == (True, True)
        assert path_bits(d, 0, 1) == (True, False)
        assert path_bits(d, 3, 0) == (False, False)

    def test_counts_saturate(self):
        # Chain of diamonds: true count 4, saturated to "two or more".
        d = AcyclicDigraph.build(
            7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]
        )
        assert path_bits(d, 0, 6) == (True, True)

    def test_matches_enumeration(self, rng):
        for _ in range(50):
            d = random_dag(rng, rng.randint(2, 6), 0.5)
            out = d.out_adjacency
            for s in range(d.n):
                for t in range(d.n):
                    count = 0
                    stack = [s]

                    def dfs(v):
                        nonlocal count
                        if v == t and len(stack) > 1:
                            count += 1
                            return
                        for w in out[v]:
                            stack.append(w)
                            dfs(w)
                            stack.pop()

                    dfs(s)
                    assert path_bits(d, s, t) == (count >= 1, count >= 2)


class TestJson:
    def test_roundtrip_undirected(self):
        g = UndirectedGraph.build(3, [(0, 2), (1, 2)], {0: "a"})
        assert graph_from_json(to_json(g)) == g

    def test_roundtrip_directed(self):
        d = AcyclicDigraph.build(3, [(2, 0), (2, 1)])
        assert graph_from_json(to_json(d)) == d

    def test_exact_bytes(self):
        g = UndirectedGraph.build(3, [(0, 2), (1, 2)])
        assert to_json(g) == '{"n": 3, "directed": false, "edges": [[0, 2], [1, 2]]}'
        d = AcyclicDigraph.build(2, [(1, 0)], {1: "x"})
        assert (
            to_json(d)
            == '{"n": 2, "directed": true, "edges": [[1, 0]], "labels": {"1": "x"}}'
        )

    def test_empty_graph(self):
        g = UndirectedGraph.build(0, [])
        assert to_json(g) == '{"n": 0, "directed": false, "edges": []}'
        assert graph_from_json(to_json(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            '{"n": 2, "edges": []}',
            '{"n": -1, "directed": false, "edges": []}',
            '{"n": true, "directed": false, "edges": []}',
            '{"n": 2, "directed": "no", "edges": []}',
            '{"n": 2, "directed": false, "edges": [[0]]}',
            '{"n": 2, "directed": false, "edges": [[0, 0]]}',
            '{"n": 2, "directed": false, "edges": [], "labels": {"x": "y"}}',
            # Label keys in any form but plain decimal, and non-string values.
            *(
                f'{{"n": 11, "directed": {d}, "edges": [], "labels": {labels}}}'
                for d in ("false", "true")
                for labels in (
                    '{"1_0": "x"}', '{"0": "a", "00": "b"}', '{" 1": "x"}', '{"+1": "x"}',
                    '{"-0": "x"}', '{"\\u0661": "x"}', '{"0": null}', '{"0": 7}',
                )
            ),
            "not json at all",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphError):
            graph_from_json(text)

    @pytest.mark.parametrize(
        "edges",
        [
            '[["0", 1]]',
            "[[1.0, 2]]",
            "[[0, 1], [1, 2], [0, 1]]",
            "[[0, 3]]",
            "[[0, true]]",
            "[[true, 2]]",
        ],
    )
    @pytest.mark.parametrize("directed", ["true", "false"])
    def test_directed_and_undirected_reject_alike(self, directed, edges):
        with pytest.raises(GraphError) as exc:
            graph_from_json(f'{{"n": 3, "directed": {directed}, "edges": {edges}}}')
        assert not isinstance(exc.value, DirectedCycleError)

    def test_labels_read_back(self):
        g = graph_from_json('{"n": 11, "directed": false, "edges": [], "labels": {"10": "x", "0": ""}}')
        assert g.labels == {0: "", 10: "x"}

    @pytest.mark.parametrize("directed", ["true", "false"])
    @pytest.mark.parametrize("n", [DEFAULT_SIZE_CAP + 1, 10**30])
    def test_vertex_count_past_cap(self, directed, n):
        with pytest.raises(SizeCapExceeded):
            graph_from_json(f'{{"n": {n}, "directed": {directed}, "edges": []}}')

    def test_vertex_count_at_cap(self):
        text = f'{{"n": {DEFAULT_SIZE_CAP}, "directed": false, "edges": []}}'
        assert graph_from_json(text).n == DEFAULT_SIZE_CAP

    def test_directed_json_rejects_cycle(self):
        with pytest.raises(DirectedCycleError):
            graph_from_json('{"n": 2, "directed": true, "edges": [[0, 1], [1, 0]]}')


# Pair counts on both sides of each chunk boundary, and label texts that
# json.dumps must escape: quotes, backslashes, control and non-ASCII characters.
C = JSON_CHUNK
PAIR_COUNTS = (0, 1, C - 1, C, C + 1, 2 * C + 1)
LABEL_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x08\n\x1f\x7f\u2028\u00e9\u20ac\U0001f600'),
        st.characters(exclude_categories=("Cs",)),  # a graph rejects lone surrogates
    ),
    max_size=6,
)


@st.composite
def chunked_graphs(draw):
    """A graph with one of PAIR_COUNTS edges or arcs, on k or more vertices
    (k the fewest that hold them), with no, some or all vertices labeled."""
    m = draw(st.sampled_from(PAIR_COUNTS))
    k = next(k for k in range(2, 100) if k * (k - 1) // 2 >= m)
    n = draw(st.sampled_from((k, C + 1, 2 * C + 1)))
    rng = draw(st.randoms(use_true_random=False))
    spots = rng.sample(range(n), k)  # vertex i of K_k becomes spots[i]
    pairs = [(spots[i], spots[j]) for i, j in rng.sample(list(combinations(range(k), 2)), m)]
    mode = draw(st.sampled_from(("none", "some", "all")))
    if mode == "some":
        labels = draw(st.dictionaries(st.integers(0, n - 1), LABEL_TEXT, max_size=8))
    elif mode == "all":
        text = draw(LABEL_TEXT)
        labels = {v: f"{text}{v}" for v in range(n)}
    else:
        labels = None
    if draw(st.booleans()):
        return AcyclicDigraph.build(n, pairs, labels)  # i < j orders spots[i] first
    return UndirectedGraph.build(n, pairs, labels)


# One tail, or one first endpoint, with 2 * JSON_CHUNK + 1 heads: its pairs
# take three pieces.
STAR = [(0, v) for v in range(1, 2 * C + 2)]


class TestJsonChunks:
    # No shrink phase: with no example database (as in CI), shrinking a
    # failure of this test took longer than 300 s; without it, the failing
    # example is reported in about a second.
    @settings(
        max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
    )
    @given(g=chunked_graphs(), rng=st.randoms(use_true_random=False))
    @example(g=AcyclicDigraph.build(2 * C + 2, STAR), rng=random.Random(0))
    @example(g=UndirectedGraph.build(2 * C + 3, STAR + [(1, 2 * C + 2)]), rng=random.Random(1))
    def test_bytes_match_oracle(self, g, rng):
        if isinstance(g, AcyclicDigraph):
            d = g
        else:  # g oriented along a random vertex order
            rank = list(range(g.n))
            rng.shuffle(rank)
            d = orient(g, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.json"
            text = to_json(g)
            assert text == json_oracle(g)
            write_json(g, str(path))
            assert path.read_bytes() == (text + "\n").encode()
            # An orientation file lists the arcs in (tail, head) order.
            write_orientation(d, str(path))
            expected = json.dumps({"edges": [list(a) for a in d.arcs]}) + "\n"
            assert path.read_bytes() == expected.encode()
            write_dot(g, str(path))
            assert path.read_bytes() == dot_oracle(g).encode()

    @staticmethod
    def write_peak(n: int, path: Path) -> int:
        """The tracemalloc peak of writing L(L(T_n)) to ``path``."""
        g = iterate_line_digraph(acyclic_tournament(n), 2)
        tracemalloc.start()
        try:
            write_json(g, str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_memory_is_bounded(self, tmp_path):
        # L(L(T30)) has 27,405 arcs and L(L(T40)) 91,390; writing the whole
        # document at once peaks at 3.2 MB and 5.1 MB.
        small = self.write_peak(30, tmp_path / "l2t30.json")
        large = self.write_peak(40, tmp_path / "l2t40.json")
        assert large < 1_000_000
        assert large <= 1.5 * small


def test_orientation_file_lists_arcs_by_tail(tmp_path):
    # (tail, head) order, not the order of the edges they orient.
    g = UndirectedGraph.build(3, [(0, 1), (0, 2), (1, 2)])
    path = tmp_path / "o.json"
    write_orientation(orient(g, [(2, 0), (1, 2), (1, 0)]), str(path))
    assert path.read_text() == '{"edges": [[1, 0], [1, 2], [2, 0]]}\n'


def test_files_read_back(tmp_path):
    g = UndirectedGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], {3: "x"})
    d = orient(g, [(1, 0), (1, 2), (3, 2), (0, 3)])
    gpath, opath = str(tmp_path / "g.json"), str(tmp_path / "o.json")
    write_json(g, gpath)
    write_orientation(d, opath)
    assert read_graph(gpath) == read_graph(gpath, directed=False) == g
    assert read_orientation(opath, g) == d
    with pytest.raises(GraphError, match="expected a directed graph"):
        read_graph(gpath, directed=True)


def dot_oracle(g: UndirectedGraph | AcyclicDigraph) -> str:
    """Oracle for ``write_dot``: the whole rendering as one string."""
    directed = isinstance(g, AcyclicDigraph)
    lines = ["digraph G {" if directed else "graph G {"]
    for v in sorted(g.labels or {}):
        text = g.labels[v].replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        lines.append(f'  {v} [label="{text}"];')
    op = "->" if directed else "--"
    lines += [f"  {u} {op} {v};" for u, v in (g.arcs if directed else g.edges)]
    return "\n".join(lines) + "\n}\n"


class TestDot:
    @staticmethod
    def dot(g, tmp_path) -> str:
        path = tmp_path / "g.dot"
        write_dot(g, str(path))
        return path.read_text(encoding="utf-8")

    def test_undirected(self, tmp_path):
        g = UndirectedGraph.build(3, [(0, 1), (1, 2)], {1: "mid"})
        assert self.dot(g, tmp_path) == 'graph G {\n  1 [label="mid"];\n  0 -- 1;\n  1 -- 2;\n}\n'

    def test_directed(self, tmp_path):
        d = AcyclicDigraph.build(2, [(1, 0)])
        assert self.dot(d, tmp_path) == "digraph G {\n  1 -> 0;\n}\n"

    def test_empty(self, tmp_path):
        assert self.dot(UndirectedGraph.build(0, []), tmp_path) == "graph G {\n}\n"

    @pytest.mark.parametrize("k", (4, 7, 12))
    def test_shared_head_tuples_match_oracle(self, tmp_path, k):
        # Every line vertex (a, b) of L(L(T_k)) with one head b has the one
        # head tuple of b's out-arcs.
        d = iterate_line_digraph(acyclic_tournament(k), 2)
        assert len({id(heads) for heads in d.out_adjacency}) < d.n
        assert self.dot(d, tmp_path) == dot_oracle(d)

    def test_labels_are_escaped(self, tmp_path):
        g = UndirectedGraph.build(2, [(0, 1)], {0: 'say "hi"', 1: "a\\b\nc"})
        assert self.dot(g, tmp_path) == (
            'graph G {\n  0 [label="say \\"hi\\""];\n  1 [label="a\\\\b\\nc"];\n  0 -- 1;\n}\n'
        )


def test_connected_components():
    g = UndirectedGraph.build(6, [(0, 3), (1, 4), (4, 5)])
    assert connected_components(g) == [[0, 3], [1, 4, 5], [2]]


class TestBiconnectedBlocks:
    @staticmethod
    def same_block(g, e, f):
        """Reference: distinct edges share a block iff deleting no single
        vertex x cuts the rest of e from the rest of f."""
        for x in range(g.n):
            keep = [v for v in range(g.n) if v != x]
            sub, remap = induced(g, keep)
            comp = {v: i for i, c in enumerate(connected_components(sub)) for v in c}
            if not {comp[remap[v]] for v in e if v != x} & {comp[remap[v]] for v in f if v != x}:
                return False
        return True

    def test_matches_cut_vertex_reference(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.6))
            blocks = biconnected_blocks(g)
            assert sorted(i for b in blocks for i in b) == list(range(len(g.edges)))
            where = {i: k for k, b in enumerate(blocks) for i in b}
            for i, e in enumerate(g.edges):
                for j in range(i + 1, len(g.edges)):
                    assert (where[i] == where[j]) == self.same_block(g, e, g.edges[j])

    def test_long_path_is_all_bridges(self):
        g = UndirectedGraph.build(20_000, [(i, i + 1) for i in range(19_999)])
        assert sorted(biconnected_blocks(g)) == [[i] for i in range(19_999)]

    def test_cycles_through_cut_vertices(self):
        # Triangles 0-1-2 and 2-3-4 share vertex 2; the bridge 4-5 is alone.
        g = UndirectedGraph.build(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
        blocks = sorted(sorted(g.edges[i] for i in b) for b in biconnected_blocks(g))
        assert blocks == [[(0, 1), (0, 2), (1, 2)], [(2, 3), (2, 4), (3, 4)], [(4, 5)]]


class TestLabels:
    """A graph keeps the labels dict it is given; ``build`` copies outside
    input once."""

    def test_derived_graphs_share_labels(self):
        d = AcyclicDigraph.build(3, [(0, 1), (1, 2)], {0: "a", 2: "c"})
        assert d.underlying.labels is d.labels
        line, _ = line_digraph(d)
        assert line.underlying.labels is line.labels
        assert line.labels == {0: "(a,1)", 1: "(1,c)"}

    def test_constructor_keeps_the_dict(self):
        labels = {1: "b", 0: "a"}
        assert UndirectedGraph(2, ((0, 1),), labels).labels is labels

    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_build_copies_outside_labels(self, cls):
        labels = {0: "a"}
        g = cls.build(2, [(0, 1)], labels)
        labels[0] = "changed"
        labels[1] = "b"
        assert g.labels == {0: "a"}

    def test_values_are_not_coerced(self):
        with pytest.raises(GraphError, match="label of vertex 0 must be a string"):
            UndirectedGraph.build(3, [], {0: 7})
        with pytest.raises(GraphError, match="label of vertex 0 must be a string"):
            graph_from_json('{"n": 3, "directed": false, "edges": [], "labels": {"0": 7}}')


def test_underlying_keeps_labels():
    d = AcyclicDigraph.build(3, [(2, 0)], {2: "root"})
    g = underlying(d)
    assert g.edges == ((0, 2),)
    assert g.labels == {2: "root"}
