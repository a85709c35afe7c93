import hashlib
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftgraphs import constructors, invariants, repro
from shiftgraphs.core import SizeCapExceeded, UndirectedGraph, underlying

from conftest import (
    brute_chromatic,
    brute_degeneracy,
    brute_girth,
    chromatic_by_deepening,
    random_dag,
    random_graph,
    try_color_by_scan,
)


def cycle_graph(k: int) -> UndirectedGraph:
    return UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> UndirectedGraph:
    return UndirectedGraph.build(k, combinations(range(k), 2))


def cocktail_party(k: int) -> UndirectedGraph:
    """K_2k minus the perfect matching {2i, 2i + 1}: clique number k, and
    every greedy color class has two members, so the search goes k deep."""
    return UndirectedGraph.build(
        2 * k, [(u, v) for u, v in combinations(range(2 * k), 2) if v != u + 1 or u % 2]
    )


def complete_bipartite(a: int, b: int) -> UndirectedGraph:
    return UndirectedGraph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen() -> UndirectedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return UndirectedGraph.build(10, outer + spokes + inner)


def degeneracy_by_scan(g: UndirectedGraph) -> invariants.DegeneracyCertificate:
    """Minimum-degree removal by a full scan per step, as ``degeneracy`` did
    before its bucket queue: the oracle for its certificates."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    removal = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        removal.append((v, deg[v]))
        alive.remove(v)
        for w in g.adjacency[v]:
            if w in alive:
                deg[w] -= 1
    order = tuple(v for v, _ in reversed(removal))
    backs = tuple(d for _, d in reversed(removal))
    return invariants.DegeneracyCertificate(order, backs, max(backs, default=0))


def back_degree_certificate(
    g: UndirectedGraph, order: tuple[int, ...]
) -> invariants.DegeneracyCertificate:
    """Back-degrees along a prescribed vertex order (an upper-bound witness)."""
    assert sorted(order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(order)}
    backs = tuple(sum(1 for w in g.adjacency[v] if pos[w] < pos[v]) for v in order)
    return invariants.DegeneracyCertificate(order, backs, max(backs, default=0))


def disjoint_union(*graphs: UndirectedGraph) -> UndirectedGraph:
    edges, offset = [], 0
    for h in graphs:
        edges.extend((u + offset, v + offset) for u, v in h.edges)
        offset += h.n
    return UndirectedGraph.build(offset, edges)


def tangled_graph(rng: random.Random) -> UndirectedGraph:
    """A seeded disjoint union of two to four parts (cycles of length 3 to
    25, sparse random graphs, trees, and long odd cycles with a chord), with
    pendant paths hung on random vertices and the vertex ids shuffled, so
    that the components interleave in id order."""
    parts = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(cycle_graph(rng.randint(3, 25)))
        elif kind == 1:
            parts.append(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.4)))
        elif kind == 2:
            k = rng.randint(1, 10)
            parts.append(UndirectedGraph.build(k, [(v, rng.randrange(v)) for v in range(1, k)]))
        else:
            k = 2 * rng.randint(4, 12) + 1
            chord = (0, rng.randrange(2, k - 1))
            parts.append(UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)] + [chord]))
    g = disjoint_union(*parts)
    n, edges = g.n, list(g.edges)
    for _ in range(rng.randint(0, 4)):
        end = rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            edges.append((end, n))
            end, n = n, n + 1
    ids = list(range(n))
    rng.shuffle(ids)
    return UndirectedGraph.build(n, [(ids[u], ids[v]) for u, v in edges])


class TestGirth:
    def test_known_graphs(self):
        assert invariants.girth(cycle_graph(7)) == 7
        assert invariants.girth(complete_graph(4)) == 3
        assert invariants.girth(petersen()) == 5

    def test_forest_is_infinite(self):
        tree = UndirectedGraph.build(4, [(0, 1), (1, 2), (1, 3)])
        assert invariants.girth(tree) == math.inf
        assert invariants.girth(UndirectedGraph.build(3, [])) == math.inf

    def test_against_brute_force(self, rng):
        graphs = [random_graph(rng, rng.randint(3, 7), 0.4) for _ in range(40)]
        graphs += [tangled_graph(rng) for _ in range(200)]
        for g in graphs:
            assert invariants.girth(g) == brute_girth(g)

    def test_shift_graphs(self):
        for n in range(5, 13):
            assert invariants.girth(constructors.shift_graph(n, 2)) == 4

    def test_girth_cycle_in_a_later_component(self):
        # The first component's long cycle sets a loose bound first.
        g = disjoint_union(cycle_graph(15), complete_graph(1), cycle_graph(4))
        assert invariants.girth(g) == 4
        assert invariants.girth(disjoint_union(cycle_graph(9), cycle_graph(8))) == 8


class TestOddGirth:
    def test_known_graphs(self):
        assert invariants.odd_girth(cycle_graph(9)) == 9
        assert invariants.odd_girth(cycle_graph(8)) == math.inf
        assert invariants.odd_girth(petersen()) == 5
        assert invariants.odd_girth(complete_graph(5)) == 3

    def test_c6_with_even_chord_stays_bipartite(self):
        # The chord 0-3 joins opposite bipartition classes of C6.
        g = UndirectedGraph.build(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert invariants.odd_girth(g) == math.inf

    def test_c6_with_odd_chord(self):
        g = UndirectedGraph.build(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
        assert invariants.odd_girth(g) == 3

    def test_forests_and_bipartite_graphs_are_infinite(self):
        tree = UndirectedGraph.build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert invariants.odd_girth(tree) == math.inf
        assert invariants.odd_girth(UndirectedGraph.build(3, [])) == math.inf
        assert invariants.odd_girth(UndirectedGraph.build(0, [])) == math.inf
        grid = UndirectedGraph.build(
            9,
            [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
            + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)],
        )
        assert invariants.odd_girth(grid) == math.inf
        cube = UndirectedGraph.build(
            8, [(v, v ^ (1 << i)) for v in range(8) for i in range(3) if v < v ^ (1 << i)]
        )
        assert invariants.odd_girth(cube) == math.inf

    def test_odd_cycle_in_a_later_longer_component(self):
        # The girth cycle (a 4-cycle) comes first; the only odd cycle is a
        # 21-cycle in a later component, far beyond any cut-off the first
        # component could set.
        g = disjoint_union(cycle_graph(4), complete_graph(2), cycle_graph(21))
        assert invariants.girth(g) == 4
        assert invariants.odd_girth(g) == 21
        g = disjoint_union(cycle_graph(6), cycle_graph(15), cycle_graph(9))
        assert invariants.odd_girth(g) == 9

    def test_shift_graphs(self):
        for n in range(5, 13):
            assert invariants.odd_girth(constructors.shift_graph(n, 2)) == 5

    def test_gadgets(self):
        for g in range(5, 14, 2):
            assert invariants.odd_girth(constructors.odd_girth_gadget(g)) == g

    def test_against_brute_force(self, rng):
        graphs = [
            random_graph(rng, rng.randint(3, 8), rng.choice((0.2, 0.35, 0.5))) for _ in range(60)
        ]
        graphs += [tangled_graph(rng) for _ in range(200)]
        for g in graphs:
            assert invariants.odd_girth(g) == brute_girth(g, odd=True)

    def test_at_least_girth(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), 0.4)
            og = invariants.odd_girth(g)
            if og is not math.inf:
                assert og % 2 == 1
                assert og >= invariants.girth(g)


class TestCliqueNumber:
    def test_known_graphs(self):
        assert invariants.clique_number(complete_graph(6)) == 6
        assert invariants.clique_number(cycle_graph(5)) == 2
        assert invariants.clique_number(petersen()) == 2
        assert invariants.clique_number(UndirectedGraph.build(3, [])) == 1
        assert invariants.clique_number(UndirectedGraph.build(0, [])) == 0

    def test_edgeless_graph_is_linear(self):
        # Every vertex joins the first color class; testing each candidate
        # against every member of a class would take ~2 * 10^8 steps here.
        g = UndirectedGraph.build(20_000, [])
        start = time.perf_counter()
        assert invariants.clique_number(g) == 1
        assert time.perf_counter() - start < 1

    def test_against_brute_force(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            brute = max(
                (
                    size
                    for size in range(1, g.n + 1)
                    for c in combinations(range(g.n), size)
                    if all(g.has_edge(u, v) for u, v in combinations(c, 2))
                ),
                default=0,
            )
            assert invariants.clique_number(g) == brute

    def test_complete_graph_takes_one_coloring(self, monkeypatch):
        # One color per candidate: the candidates are a clique, found without
        # branching.  Coloring again at each of the 50 levels is cubic time.
        calls = []
        real = invariants._color_sorted

        def counted(adj, cands):
            calls.append(len(cands))
            return real(adj, cands)

        monkeypatch.setattr(invariants, "_color_sorted", counted)
        assert invariants.clique_number(complete_graph(50)) == 50
        assert calls == [50]

    def test_deep_search_memory_is_quadratic(self):
        # n frames of at most n (color, vertex) pairs, O(n^2); color classes
        # kept alive in every frame would hold O(n^3).
        g = cocktail_party(100)
        g.adjacency_sets  # cached; not the search's own memory
        tracemalloc.start()
        try:
            assert invariants.clique_number(g) == 100
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_clique_needs_no_recursion(self):
        # One level per clique vertex, but no Python frame per level.
        g = cocktail_party(120)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            assert invariants.clique_number(g) == 120
        finally:
            sys.setrecursionlimit(limit)


class TestDegeneracy:
    def test_known_graphs(self):
        assert invariants.degeneracy(complete_graph(5)).degeneracy == 4
        assert invariants.degeneracy(cycle_graph(6)).degeneracy == 2
        tree = UndirectedGraph.build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert invariants.degeneracy(tree).degeneracy == 1

    def test_certificate_is_consistent(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), 0.4)
            cert = invariants.degeneracy(g)
            recheck = back_degree_certificate(g, cert.order)
            assert recheck.back_degrees == cert.back_degrees
            assert recheck.degeneracy == cert.degeneracy

    def test_against_brute_force(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            assert invariants.degeneracy(g).degeneracy == brute_degeneracy(g)

    def test_certificate_matches_scan(self):
        rng = random.Random(184)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 40), rng.uniform(0.02, 0.6))
            assert invariants.degeneracy(g) == degeneracy_by_scan(g)

    def test_long_path_is_fast(self):
        path = UndirectedGraph.build(3000, [(v, v + 1) for v in range(2999)])
        start = time.perf_counter()
        cert = invariants.degeneracy(path)
        assert time.perf_counter() - start < 0.1
        # Vertices leave in id order, each with one neighbor left but the last.
        assert cert.order == tuple(range(2999, -1, -1))
        assert cert.back_degrees == (0,) + (1,) * 2999


class TestChromaticNumber:
    def test_colorings_match_scan(self):
        # Seeded DAGs with their line digraphs, as the benchmark's corpus
        # draws them, random graphs on which DSATUR backtracks before it
        # succeeds, paths and G(n, 3); t runs from below chi to above it, so
        # failed levels are compared too, and takes the values n (the
        # descent), 3 and 2.  The oracle's pick scans every vertex per node
        # in the tie order that the saturation-level masks keep.
        rng = random.Random(1000)
        graphs = []
        for _ in range(120):
            d = random_dag(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            graphs += [underlying(d), underlying(constructors.line_digraph(d)[0])]
        for _ in range(200):
            graphs.append(random_graph(rng, rng.randint(10, 22), rng.uniform(0.2, 0.6)))
        graphs += [petersen(), constructors.shift_graph(8, 2)]
        paths = [UndirectedGraph.build(n, [(v, v + 1) for v in range(n - 1)]) for n in (2, 3, 50, 400)]
        graphs += paths + [constructors.shift_graph(n, 3) for n in range(7, 11)]
        for g in graphs:
            if not g.edges:
                continue
            chi, _ = invariants.chromatic_number(g, cap=g.n)
            for t in {*range(max(chi - 2, 1), chi + 2), g.n, 3, 2}:
                assert invariants._try_color(g, t) == try_color_by_scan(g, t)

    def test_colorings_on_the_benchmark_corpus_are_pinned(self):
        # The graphs the benchmark's build workload colors: each seeded DAG's
        # underlying graph and line graph.  The digest pins chi, the witness
        # coloring and the 3- and 2-colorability tests pick for pick,
        # backtracking levels included.
        rows = []
        for d in repro.random_acyclic_digraphs(1000, 12, 1, min_n=4):
            for g in (underlying(d), underlying(constructors.line_digraph(d)[0])):
                if g.n:
                    chi, col = invariants.chromatic_number(g)
                    three, two = invariants._try_color(g, 3), invariants._try_color(g, 2)
                    rows.append(f"{chi} {col.color} {three} {two}")
        assert len(rows) == 1989
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
            "5994110e789344a7b7caf49934a600001e7a14e9d3a1565c72895085c84ec7e6"
        )

    def test_long_path_descent_is_fast(self):
        # A pick that scans every vertex makes the descent quadratic: 13 s
        # here.  Vertex 1 is the first pick, so it gets color 0.
        path = UndirectedGraph.build(20000, [(v, v + 1) for v in range(19999)])
        start = time.perf_counter()
        chi, col = invariants.chromatic_number(path, cap=20000)
        assert time.perf_counter() - start < 2
        assert chi == 2 and col.color == tuple((v + 1) % 2 for v in range(20000))

    def test_matches_deepening(self):
        # Seeded DAGs and their line digraphs, as the benchmark draws them,
        # plus denser random graphs: the same chromatic number and the same
        # coloring as deepening t = 1, 2, ... with the scan oracle.
        rng = random.Random(2100)
        graphs = []
        for _ in range(300):
            d = random_dag(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            graphs += [underlying(d), underlying(constructors.line_digraph(d)[0])]
        graphs += [random_graph(rng, rng.randint(0, 14), rng.uniform(0.1, 0.7)) for _ in range(100)]
        for g in graphs:
            chi, col = invariants.chromatic_number(g)
            assert (chi, col.color, col.palette) == (*chromatic_by_deepening(g), chi)

    def test_bipartite_graph_needs_no_clique_search(self, monkeypatch):
        # DSATUR 2-colors a bipartite graph, which meets the lower bound 2;
        # an odd cycle 3-colored meets the lower bound 3.
        def refuse(g):
            raise AssertionError("clique_number called")

        monkeypatch.setattr(invariants, "clique_number", refuse)
        rng = random.Random(2101)
        cases = [(cycle_graph(8), 2), (cycle_graph(9), 3), (complete_bipartite(3, 5), 2)]
        for _ in range(40):
            k = rng.randint(2, 20)
            left = set(rng.sample(range(k), rng.randint(1, k - 1)))
            g = UndirectedGraph.build(k, [
                (u, v) for u, v in combinations(range(k), 2)
                if (u in left) != (v in left) and rng.random() < 0.4
            ])
            cases.append((g, 2 if g.edges else 1))
        for g, chi in cases:
            assert invariants.chromatic_number(g)[0] == chi

    def test_odd_cycle_needs_no_two_coloring_pass(self, monkeypatch):
        # The descent's own color count proves the odd cycle.
        def refuse(adj):
            raise AssertionError("_components called")

        monkeypatch.setattr(invariants, "_components", refuse)
        for k in (3, 5, 7, 9):
            chi, col = invariants.chromatic_number(cycle_graph(k))
            assert (chi, col.palette) == (3, 3)

    def test_descent_uses_two_colors_exactly_when_bipartite(self):
        # The fact the lower bound min(u, 3) rests on, checked on disconnected
        # graphs and isolated vertices: the first DSATUR descent uses at most
        # 2 colors iff the graph has no odd cycle (1 iff it has no edge).
        rng = random.Random(2102)
        graphs = [tangled_graph(rng) for _ in range(150)]
        for _ in range(150):
            k = rng.randint(1, 24)
            left = set(rng.sample(range(k), rng.randint(0, k)))
            # Edges across the two sides, a few within one, and vertices
            # left isolated.
            graphs.append(UndirectedGraph.build(k, [
                (u, v) for u, v in combinations(range(k), 2)
                if rng.random() < (0.25 if (u in left) != (v in left) else 0.01)
            ]))
        kinds = Counter()
        for g in graphs:
            used = max(invariants._try_color(g, g.n)) + 1
            bipartite = brute_girth(g, odd=True) == math.inf
            assert (used <= 2) == bipartite
            assert (used == 1) == (not g.edges)
            kinds[min(used, 3), not all(g.adjacency)] += 1
        # Graphs with an odd cycle, edgeless graphs, and bipartite graphs with
        # an edge and an isolated vertex (so disconnected) all occur.
        assert min(kinds[3, False] + kinds[3, True], kinds[1, True], kinds[2, True]) >= 5, kinds

    def test_known_graphs(self):
        assert invariants.chromatic_number(complete_graph(5))[0] == 5
        assert invariants.chromatic_number(cycle_graph(7))[0] == 3
        assert invariants.chromatic_number(cycle_graph(8))[0] == 2
        assert invariants.chromatic_number(petersen())[0] == 3
        assert invariants.chromatic_number(UndirectedGraph.build(4, []))[0] == 1
        assert invariants.chromatic_number(UndirectedGraph.build(0, []))[0] == 0

    def test_witness_is_proper_and_tight(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            chi, col = invariants.chromatic_number(g)
            assert col.palette == chi
            assert col.used <= chi  # propriety enforced by the Coloring type

    def test_against_brute_force(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            assert invariants.chromatic_number(g)[0] == brute_chromatic(g)

    def test_cap(self):
        g = UndirectedGraph.build(5, [])
        with pytest.raises(SizeCapExceeded):
            invariants.chromatic_number(g, cap=4)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_matches_brute(self, data):
        n = data.draw(st.integers(1, 6))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = UndirectedGraph.build(n, [p for p, keep in zip(pairs, mask) if keep])
        assert invariants.chromatic_number(g)[0] == brute_chromatic(g)
