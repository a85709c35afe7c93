import math
import re
import tempfile
import tracemalloc
from collections import deque
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftgraphs.constructors import acyclic_tournament, iterate_line_digraph
from shiftgraphs.core import (
    DEFAULT_SIZE_CAP,
    JSON_CHUNK,
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    Orientation,
    SizeCapExceeded,
    UndirectedGraph,
    biconnected_blocks,
    graph_from_json,
    path_masks,
    to_dot,
    to_json,
    topological_order,
    underlying,
    write_dot,
    write_json,
)

from conftest import json_oracle, orient, random_dag, random_graph


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

    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_labels_checked_and_normalized_alike(self, cls):
        g = cls.build(3, [(0, 1)], {2: 7, 0: "a"})
        assert g.labels == {0: "a", 2: "7"} and list(g.labels) == [0, 2]
        assert [g.label(v) for v in range(3)] == ["a", "1", "7"]
        with pytest.raises(GraphError):
            cls.build(3, [], {3: "x"})

    @pytest.mark.parametrize("key", [True, False, "0", 1.0])
    @pytest.mark.parametrize("cls", [UndirectedGraph, AcyclicDigraph])
    def test_label_keys_are_ints(self, cls, key):
        with pytest.raises(GraphError, match="label keys"):
            cls.build(3, [], {key: "x"})

    def test_adjacency(self):
        g = UndirectedGraph.build(4, [(0, 1), (0, 2), (2, 3)])
        assert g.adjacency == ((1, 2), (0,), (0, 3), (2,))
        assert g.degree(0) == 2
        assert g.has_edge(2, 3) and not g.has_edge(1, 3)

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

    @pytest.mark.parametrize(
        "arcs, topo",
        [
            (((1, 1),), (0, 1, 2)),  # self-loop
            (((0, 1), (1, 0)), (0, 1, 2)),  # antiparallel pair
            (((0, 1), (0, 1)), (0, 1, 2)),  # duplicate arc
            (((0, 3),), (0, 1, 2)),  # out of range
            (((0, -1),), (0, 1, 2)),  # out of range
            (((0, 1.0),), (0, 1, 2)),  # non-integer endpoint
            (((0, 1),), (0, 1, 1)),  # topo repeats a vertex
            (((0, 1),), (0, 1)),  # topo too short
            (((0, 1),), (0, 1, 2, 3)),  # topo too long
            (((0, 1),), (0, 1.0, 2)),  # topo holds a float
            (((0, 1),), (1, 0, 2)),  # arc points backward in topo
            (((1, 2), (0, 1)), (0, 1, 2)),  # arcs not sorted
        ],
    )
    def test_constructor_rejects(self, arcs, topo):
        with pytest.raises(GraphError):
            AcyclicDigraph(3, arcs, topo)

    def test_topo_respects_arcs(self):
        d = AcyclicDigraph.build(4, [(2, 0), (0, 3), (3, 1)])
        pos = {v: i for i, v in enumerate(d.topo)}
        for u, v in d.arcs:
            assert pos[u] < pos[v]

    def test_equality_ignores_topo(self):
        a = AcyclicDigraph(3, ((0, 2),), (0, 1, 2))
        b = AcyclicDigraph(3, ((0, 2),), (1, 0, 2))
        assert a == b and hash(a) == hash(b)
        assert a != AcyclicDigraph(4, ((0, 2),), (0, 1, 2, 3))
        assert a != AcyclicDigraph(3, ((0, 1),), (0, 1, 2))
        assert a != AcyclicDigraph(3, ((0, 2),), (0, 1, 2), {1: "x"})
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


class TestTopologicalOrder:
    def test_min_id_tie_break(self):
        order, cycle = topological_order(4, [(3, 1)])
        assert cycle is None
        assert order == [0, 2, 3, 1]

    def test_cycle_witness_is_a_cycle(self):
        order, cycle = topological_order(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert order is None
        assert sorted(cycle) == [0, 1, 2]

    def test_cycle_report_matches_repeated_strip(self, rng):
        for _ in range(300):
            n = rng.randint(1, 10)
            p = rng.random() * 0.4
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            order, cycle = topological_order(n, arcs)
            assert cycle == strip_and_walk(n, arcs, order)

    def test_long_tail_after_cycle_is_linear(self):
        # The chain hanging off the 2-cycle is stripped one vertex at a time;
        # a rescan per stripped vertex would take minutes here.
        n = 20_000
        arcs = [(0, 1), (1, 0)] + [(i, i + 1) for i in range(1, n - 1)]
        assert topological_order(n, arcs) == (None, [0, 1])

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
            order, cycle = topological_order(4, arcs)
            arc_set = set(arcs)
            if order is not None:
                pos = {v: i for i, v in enumerate(order)}
                assert all(pos[u] < pos[v] for u, v in arcs)
            else:
                assert len(cycle) == len(set(cycle)) >= 2
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert (a, b) in arc_set


class TestOrientation:
    def test_arcs_and_digraph(self):
        g = UndirectedGraph.build(3, [(0, 1), (1, 2)])
        o = Orientation(g, ((1, 0), (1, 2)))
        assert o.to_digraph().arcs == ((1, 0), (1, 2))

    @pytest.mark.parametrize(
        "arcs, message",
        [
            (((0, 1),), "arc list does not match the base edge set"),
            (((0, 1), (1, 2), (0, 2)), "arc list does not match the base edge set"),
            (((0, 1), (0, 2)), "arc (0, 2) does not orient edge (1, 2)"),
            (((1, 2), (0, 1)), "arc (1, 2) does not orient edge (0, 1)"),
        ],
    )
    def test_arcs_must_orient_each_base_edge(self, arcs, message):
        g = UndirectedGraph.build(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match=re.escape(message)):
            Orientation(g, arcs)

    def test_roundtrip_with_digraph(self):
        d = AcyclicDigraph.build(4, [(2, 0), (0, 3), (3, 1), (2, 3)])
        o = Orientation.build(underlying(d), d.arcs)
        assert sorted(o.arcs) == sorted(d.arcs)


class TestOrientationBuild:
    PATH = UndirectedGraph.build(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 2)], "oriented pair (0, 2) is not an edge of the graph"),
            ([(1, 1)], "oriented pair (1, 1) is not an edge of the graph"),
            ([(0, 1), (0, 1)], "edge (0, 1) oriented twice"),
            ([(2, 1), (1, 2)], "edge (1, 2) oriented twice"),
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
        with pytest.raises(GraphError, match=re.escape(message)):
            Orientation.build(self.PATH, arcs)

    def test_rejects_arc_outside_base(self):
        d = AcyclicDigraph.build(3, [(0, 1), (0, 2)])
        with pytest.raises(GraphError, match="not an edge"):
            Orientation.build(self.PATH, d.arcs)

    def test_arcs_round_trip(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
            o = Orientation(g, tuple(arcs))
            rng.shuffle(arcs)  # build takes the arcs in any order
            assert Orientation.build(g, arcs) == o


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
    st.one_of(st.sampled_from('"\\\x00\x08\n\x1f\x7f\u2028\u00e9\u20ac\U0001f600'), st.characters()),
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


class TestJsonChunks:
    @settings(max_examples=60, deadline=None)
    @given(g=chunked_graphs(), rng=st.randoms(use_true_random=False))
    def test_bytes_match_oracle(self, g, rng):
        docs = [g]
        if isinstance(g, UndirectedGraph):
            docs.append(orient(g, [rng.random() < 0.5 for _ in g.edges]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.json"
            for x in docs:
                text = to_json(x)
                assert text == json_oracle(x)
                write_json(x, str(path))
                assert path.read_bytes() == (text + "\n").encode()
            write_dot(g, str(path))
            assert path.read_bytes() == to_dot(g).encode()

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


class TestDot:
    def test_undirected(self):
        g = UndirectedGraph.build(3, [(0, 1), (1, 2)], {1: "mid"})
        assert to_dot(g) == 'graph G {\n  1 [label="mid"];\n  0 -- 1;\n  1 -- 2;\n}\n'

    def test_directed(self):
        d = AcyclicDigraph.build(2, [(1, 0)])
        assert to_dot(d) == "digraph G {\n  1 -> 0;\n}\n"

    def test_empty(self):
        assert to_dot(UndirectedGraph.build(0, [])) == "graph G {\n}\n"

    def test_labels_are_escaped(self):
        g = UndirectedGraph.build(2, [(0, 1)], {0: 'say "hi"', 1: "a\\b\nc"})
        assert to_dot(g) == (
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


def test_underlying_keeps_labels():
    d = AcyclicDigraph.build(3, [(2, 0)], {2: "root"})
    g = underlying(d)
    assert g.edges == ((0, 2),)
    assert g.labels == {2: "root"}
