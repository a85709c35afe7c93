import gc
import hashlib
import math
import random
import time
import tracemalloc
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftgraphs import constructors, core, invariants
from shiftgraphs.aop import verify_aop
from shiftgraphs.core import (
    AcyclicDigraph,
    GraphError,
    SizeCapExceeded,
    UndirectedGraph,
    underlying,
)

from conftest import FIXED_POINT_CASES, digraph_from_arcs, labeled_dag, random_dag


def line_digraph_by_sort(g: AcyclicDigraph):
    """The line digraph built with a tuple-keyed arc id dict and a final
    sort: the construction ``line_digraph`` replaced, kept as its oracle."""
    pos = {v: i for i, v in enumerate(g.topo)}
    arcs_sorted = sorted(g.arcs, key=lambda arc: (pos[arc[0]], arc))
    arc_id = {arc: i for i, arc in enumerate(arcs_sorted)}
    line_arcs = []
    for (a, b) in arcs_sorted:
        for c in g.out_adjacency[b]:
            line_arcs.append((arc_id[(a, b)], arc_id[(b, c)]))
    m = len(arcs_sorted)
    labels = {i: f"({g.label(u)},{g.label(v)})" for i, (u, v) in enumerate(arcs_sorted)}
    line = digraph_from_arcs(m, sorted(line_arcs), tuple(range(m)), labels)
    bag_lists: list[list[int]] = [[] for _ in range(max(g.n - 1, 0))]
    index = []
    for i, (u, _) in enumerate(arcs_sorted):
        bag_lists[pos[u]].append(i)
        index.append(pos[u] + 1)
    bags = tuple(tuple(b) for b in bag_lists)
    return line, constructors.BagDecomposition(g, bags, tuple(index), tuple(arcs_sorted))


def bag_clause_messages_by_scan(line: AcyclicDigraph, bd) -> list[str]:
    """The five clauses of ``structure_violations`` by per-element
    membership scans over every pair, as they were before the bitmask
    tests: the oracle for their messages and order."""
    sigma = bd.parent.topo
    lg = underlying(line)
    adj = lg.adjacency_sets
    gu = underlying(bd.parent)
    out = []
    for i, bag in enumerate(bd.bags, start=1):
        for u, v in combinations(bag, 2):
            if v in adj[u]:
                out.append(f"(i) bag {i} vertices {u},{v} adjacent")
    for u1, u2 in lg.edges:
        a = sigma[bd.index[u1] - 1]
        c = sigma[bd.index[u2] - 1]
        if not gu.has_edge(a, c):
            out.append(f"(ii) edge ({u1},{u2}) projects to non-edge ({a},{c})")
        lo, hi = (u1, u2) if bd.index[u1] < bd.index[u2] else (u2, u1)
        if (lo, hi) not in line.arcs:
            out.append(f"(ii) arc between {u1},{u2} not directed up the index")
    for u in range(line.n):
        highs = [w for w in adj[u] if bd.index[w] >= bd.index[u]]
        if len({bd.index[w] for w in highs}) > 1:
            out.append(f"(iii) vertex {u} has higher-index neighbors in two bags")
    nbags = len(bd.bags)
    for i in range(1, nbags + 1):
        for j in range(i + 1, nbags + 1):
            if not gu.has_edge(sigma[i - 1], sigma[j - 1]):
                continue
            bag_j = bd.bags[j - 1]
            if not bag_j:
                continue
            touching = [u for u in bd.bags[i - 1] if any(w in adj[u] for w in bag_j)]
            full = [u for u in touching if all(w in adj[u] for w in bag_j)]
            if len(touching) != 1 or len(full) != 1:
                out.append(f"(iv) bags {i},{j}: touching={touching} full={full}")
    for u1 in range(line.n):
        lows = [w for w in adj[u1] if bd.index[w] < bd.index[u1]]
        bag = bd.bags[bd.index[u1] - 1]
        for u2, u3 in combinations(lows, 2):
            if u3 in adj[u2]:
                out.append(f"(v) lower neighbors {u2},{u3} of {u1} adjacent")
            for w in (u2, u3):
                if not all(x in adj[w] for x in bag):
                    out.append(f"(v) vertex {w} misses part of bag {bd.index[u1]}")
    return out


def perturbed(bd, rng: random.Random):
    """``bd`` with one line vertex moved to another bag, or two line vertices
    swapped between their bags; ``index`` follows the bags."""
    bags = [list(b) for b in bd.bags]
    index = list(bd.index)
    u, w = rng.sample(range(len(index)), 2)
    if rng.random() < 0.5:
        bags[index[u] - 1].remove(u)
        index[u] = rng.randrange(len(bags)) + 1
        bags[index[u] - 1].append(u)
    else:
        bu, bw = index[u] - 1, index[w] - 1
        bags[bu][bags[bu].index(u)] = w
        bags[bw][bags[bw].index(w)] = u
        index[u], index[w] = bw + 1, bu + 1
    return constructors.BagDecomposition(
        bd.parent, tuple(tuple(b) for b in bags), tuple(index), bd.arcs
    )


class TestTournament:
    def test_t4(self):
        t = constructors.acyclic_tournament(4)
        assert t.n == 4
        assert t.arcs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            constructors.acyclic_tournament(0)

    def test_size_cap_before_allocation(self):
        constructors._check_binomial_cap(1414, 2, "arcs")  # C(1414, 2) = 998,991
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded):
            constructors.acyclic_tournament(1415)
        with pytest.raises(SizeCapExceeded):
            constructors.acyclic_tournament(10**12)
        assert time.perf_counter() - start < 0.1


class TestLineDigraph:
    def test_t3(self):
        line, bd = constructors.line_digraph(constructors.acyclic_tournament(3))
        # Arcs of T3 sorted by tail position: (0,1), (0,2), (1,2).
        assert bd.arcs == ((0, 1), (0, 2), (1, 2))
        assert line.arcs == ((0, 2),)
        assert bd.bags == ((0, 1), (2,))
        assert bd.index == (1, 1, 2)

    def test_labels_compose(self):
        d = AcyclicDigraph.build(3, [(0, 1), (1, 2)], {0: "a", 1: "b", 2: "c"})
        line, _ = constructors.line_digraph(d)
        assert line.labels == {0: "(a,b)", 1: "(b,c)"}

    def test_arc_counts(self, rng):
        # |V(L)| = |A(G)| and |A(L)| = number of 2-arc walks.
        for _ in range(30):
            d = random_dag(rng, rng.randint(2, 8), 0.5)
            line, bd = constructors.line_digraph(d)
            assert line.n == len(d.arcs)
            walks = sum(len(d.out_adjacency[v]) for _, v in d.arcs)
            assert len(line.arcs) == walks

    def test_bags_partition(self, rng):
        for _ in range(30):
            d = random_dag(rng, rng.randint(2, 8), 0.5)
            line, bd = constructors.line_digraph(d)
            everything = sorted(u for bag in bd.bags for u in bag)
            assert everything == list(range(line.n))
            for u in range(line.n):
                assert u in bd.bags[bd.index[u] - 1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_structure_clauses_property(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        d = AcyclicDigraph.build(n, [p for p, keep in zip(pairs, mask) if keep])
        line, bd = constructors.line_digraph(d)
        assert constructors.structure_violations(line, bd) == []

    def test_matches_sorting_construction(self):
        rng = random.Random(2026)
        for _ in range(60):
            d = labeled_dag(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            line, bd = constructors.line_digraph(d)
            ref_line, ref_bd = line_digraph_by_sort(d)
            assert line.arcs == ref_line.arcs
            assert (line.n, line.topo, line.labels) == (ref_line.n, ref_line.topo, ref_line.labels)
            assert (bd.bags, bd.index, bd.arcs) == (ref_bd.bags, ref_bd.index, ref_bd.arcs)
            assert bd.parent is d

    def test_built_once_per_digraph(self):
        d = constructors.acyclic_tournament(5)
        assert constructors.line_digraph(d) is constructors.line_digraph(d)
        assert underlying(d) is underlying(d)

    def test_line_vertices_share_head_tuples(self):
        # L(L(T40)) has 91,390 arcs; as 2-tuples they alone would take about
        # 5.8 MB (64 B each), and the whole build peaked at 8.9 MB when it
        # stored them.  Its out-adjacency holds 9,880 pointers to 780 tuples.
        l1, _ = constructors.line_digraph(constructors.acyclic_tournament(40))
        l1.out_adjacency, l1.topo
        gc.collect()
        tracemalloc.start()
        try:
            l2, bd = constructors._line_digraph(l1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert sum(map(len, l2.out_adjacency)) == 91_390
        assert len({id(heads) for heads in l2.out_adjacency}) <= l1.n
        bag_of = dict(zip(l1.topo, bd.bags))  # the last vertex has no bag
        for (_, b), heads in zip(bd.arcs, l2.out_adjacency):
            assert heads is bag_of.get(b, ())

    def test_bag_clause_messages_match_scan(self):
        rng = random.Random(77)
        fired = 0
        clauses = set()
        for _ in range(150):
            d = random_dag(rng, rng.randint(4, 9), 0.6)
            line, bd = constructors.line_digraph(d)
            if line.n < 2 or len(bd.bags) < 2:
                continue
            broken = perturbed(bd, rng)
            expected = bag_clause_messages_by_scan(line, broken)
            assert constructors.structure_violations(line, broken) == expected
            fired += bool(expected)
            clauses.update(msg.split(" ", 1)[0] for msg in expected)
        assert fired >= 50
        assert clauses == {"(i)", "(ii)", "(iii)", "(iv)", "(v)"}

    def test_structure_catches_broken_bags(self):
        line, bd = constructors.line_digraph(constructors.acyclic_tournament(4))
        broken = constructors.BagDecomposition(
            bd.parent, ((0, 1, 2, 3, 4, 5), (), ()), (1,) * 6, bd.arcs
        )
        assert constructors.structure_violations(line, broken)


    def test_size_cap_counts_line_arcs_before_allocation(self, monkeypatch):
        rng = random.Random(611)
        for _ in range(30):
            d = random_dag(rng, rng.randint(2, 9), rng.random())
            size = len(constructors._line_digraph(d)[0].arcs)
            monkeypatch.setattr(core, "DEFAULT_SIZE_CAP", size - 1)
            with pytest.raises(SizeCapExceeded):
                constructors._line_digraph(d)
            monkeypatch.undo()
        # A bowtie: k arcs into the hub k and k out of it, so k * k line arcs.
        k = 1001
        bowtie = AcyclicDigraph.build(
            2 * k + 1, [(i, k) for i in range(k)] + [(k, k + 1 + i) for i in range(k)]
        )
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match="1002001 arcs"):
            constructors.line_digraph(bowtie)
        assert time.perf_counter() - start < 0.1


class TestShiftGraph:
    def test_g52(self):
        g = constructors.shift_graph(5, 2)
        assert (g.n, len(g.edges)) == (10, 10)
        # (1,2) ~ (2,l) for l in {3,4,5}
        assert g.label(0) == "(1,2)"
        nbrs = {g.label(v) for v in g.adjacency[0]}
        assert nbrs == {"(2,3)", "(2,4)", "(2,5)"}

    def test_g92(self):
        g = constructors.shift_graph(9, 2)
        assert (g.n, len(g.edges)) == (36, 84)

    def test_g73(self):
        g = constructors.shift_graph(7, 3)
        assert (g.n, len(g.edges)) == (35, 35)

    def test_vertex_and_edge_counts(self):
        for n in range(3, 11):
            g = constructors.shift_graph(n, 2)
            assert g.n == math.comb(n, 2)
            assert len(g.edges) == sum(
                (n - b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
            )

    def test_rejects_small(self):
        with pytest.raises(GraphError):
            constructors.shift_graph(2, 2)
        with pytest.raises(GraphError):
            constructors.shift_graph(6, 3)

    def test_triangle_free(self):
        assert invariants.clique_number(constructors.shift_graph(8, 2)) == 2

    def test_size_cap_before_allocation(self):
        constructors._check_binomial_cap(182, 3, "edges")  # G(182, 2): 988,260 edges
        start = time.perf_counter()
        for n, k in ((183, 2), (72, 3), (1415, 2), (10**9, 4 * 10**8), (10**6, 3)):
            with pytest.raises(SizeCapExceeded):
                constructors.shift_graph(n, k)
        assert time.perf_counter() - start < 0.1


class TestIterate:
    def test_iterate_matches_repeated_line(self, rng):
        d = random_dag(rng, 6, 0.6)
        twice = constructors.iterate_line_digraph(d, 2)
        step, _ = constructors.line_digraph(d)
        step, _ = constructors.line_digraph(step)
        assert twice == step

    def test_zero_times_is_identity(self):
        d = constructors.acyclic_tournament(4)
        assert constructors.iterate_line_digraph(d, 0) == d

    @pytest.mark.parametrize("name", sorted(FIXED_POINT_CASES))
    def test_stops_at_the_empty_digraph(self, name, line_steps):
        # The empty digraph is its own line digraph, so a count past the
        # steps that empty the input gives the same graph, at once.
        d = FIXED_POINT_CASES[name]
        out = constructors.iterate_line_digraph(d, 10**30)
        steps = len(line_steps)
        assert out.n == 0 and steps <= d.n + 1
        assert all(line_steps)  # no step was taken from the empty digraph
        assert out == constructors.iterate_line_digraph(d, steps)

    def test_frees_intermediate_levels(self, monkeypatch):
        built = []
        real = constructors._line_digraph

        def recording(g):
            line, bd = real(g)
            built.append(weakref.ref(line))
            return line, bd

        monkeypatch.setattr(constructors, "_line_digraph", recording)
        d = constructors.acyclic_tournament(6)
        out = constructors.iterate_line_digraph(d, 2)
        gc.collect()
        assert [ref() is None for ref in built] == [True, False]
        assert built[-1]() is out

    def test_cap(self, monkeypatch):
        # One cap for every line digraph: T8 has 28 arcs, so each level
        # would have more vertices than a cap of 27 allows.
        d = constructors.acyclic_tournament(8)
        monkeypatch.setattr(core, "DEFAULT_SIZE_CAP", 27)
        with pytest.raises(SizeCapExceeded, match="28 vertices"):
            constructors.line_digraph(d)
        with pytest.raises(SizeCapExceeded, match="28 vertices"):
            constructors.iterate_line_digraph(d, 2)
        monkeypatch.setattr(core, "DEFAULT_SIZE_CAP", 28)
        assert constructors.iterate_line_digraph(d, 0) is d
        with pytest.raises(SizeCapExceeded, match="56 arcs"):
            constructors.iterate_line_digraph(d, 1)
        with pytest.raises(GraphError):
            constructors.iterate_line_digraph(d, -1)


class TestZykov:
    def test_small_sizes(self):
        g1, g2, g3, g4 = (constructors.zykov(n).underlying for n in range(1, 5))
        assert (g1.n, len(g1.edges)) == (1, 0)
        assert (g2.n, len(g2.edges)) == (2, 1)
        assert (g3.n, len(g3.edges)) == (5, 5)  # the 5-cycle
        assert (g4.n, len(g4.edges)) == (18, 36)

    def test_triangle_free_and_chromatic(self):
        for n in range(1, 5):
            g = constructors.zykov(n).underlying
            assert invariants.clique_number(g) <= 2
            chi, _ = invariants.chromatic_number(g)
            assert chi == n

    def test_orientation_verifies(self):
        d = constructors.zykov(4)
        assert verify_aop(d).ok
        # Every arc points to a higher id, so (tail, head) order is the
        # order of the underlying graph's edges.
        assert d.arcs == d.underlying.edges

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            constructors.zykov(7)


class TestGadget:
    def test_counts(self):
        g = constructors.odd_girth_gadget(5)
        assert (g.n, len(g.edges)) == (10, 15)
        g = constructors.odd_girth_gadget(9)
        assert (g.n, len(g.edges)) == (18, 27)

    def test_odd_girth(self):
        for k in (5, 7, 9):
            assert invariants.odd_girth(constructors.odd_girth_gadget(k)) == k

    def test_pendant_structure(self):
        g = constructors.odd_girth_gadget(7)
        for i in range(7):
            assert set(g.adjacency[7 + i]) == {(i - 1) % 7, (i + 1) % 7}

    def test_rejects_bad_parameter(self):
        for k in (3, 4, 6):
            with pytest.raises(GraphError):
                constructors.odd_girth_gadget(k)

    def test_size_cap_before_allocation(self, monkeypatch):
        start = time.perf_counter()
        for k in (333335, 10**12 + 1):
            with pytest.raises(SizeCapExceeded):
                constructors.odd_girth_gadget(k)
        assert time.perf_counter() - start < 0.1
        monkeypatch.setattr(core, "DEFAULT_SIZE_CAP", 21)
        assert len(constructors.odd_girth_gadget(7).edges) == 21
        with pytest.raises(SizeCapExceeded):
            constructors.odd_girth_gadget(9)


class TestBrinkmann:
    def test_invariants(self):
        g = constructors.brinkmann_graph()
        assert g.n == 21
        assert len(g.edges) == 42
        assert all(g.degree(v) == 4 for v in range(21))
        assert invariants.girth(g) == 5
        chi, _ = invariants.chromatic_number(g)
        assert chi == 4


class TestGirth5:
    def test_construction(self):
        g0 = constructors.brinkmann_graph()
        out = constructors.girth5_non_aop(g0)
        assert invariants.girth(out) == 5
        # Seed is untouched, every new vertex is a degree-2 apex.
        assert out.n > g0.n
        assert set(g0.edges) <= set(out.edges)
        for v in range(g0.n, out.n):
            assert out.degree(v) == 2
            a, d = out.adjacency[v]
            assert a < g0.n and d < g0.n

    def test_every_seed_path_covered(self):
        g0 = constructors.brinkmann_graph()
        out = constructors.girth5_non_aop(g0)
        adj = out.adjacency_sets
        for a, b, c, d in constructors._three_edge_paths(g0):
            assert any(x not in (b, c) for x in adj[a] & adj[d])

    def test_rejects_bad_seed(self):
        with pytest.raises(GraphError):
            constructors.girth5_non_aop(constructors.shift_graph(5, 2))

    def test_pinned_bytes(self):
        # The search benchmark's girth5 job and the pinned search counts in
        # test_aop depend on this vertex numbering.
        text = core.to_json(constructors.girth5_non_aop())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f94f772fa6d798740248e80f143626cf438407cfb1792274281f51557530b06a"
        )

    def test_matches_one_apex_per_path_still_uncovered(self, rng):
        # Walk the seed's 3-edge paths in order, adding an apex for each one
        # that the graph built so far leaves off every 5-cycle.
        def one_by_one(g0):
            adj = [set(s) for s in g0.adjacency_sets]
            edges = list(g0.edges)
            for a, b, c, d in constructors._three_edge_paths(g0):
                if adj[a] & adj[d] <= {b, c}:
                    apex = len(adj)
                    adj.append({a, d})
                    adj[a].add(apex)
                    adj[d].add(apex)
                    edges += [(a, apex), (d, apex)]
            return UndirectedGraph.build(len(adj), edges)

        g0 = constructors.brinkmann_graph()
        seeds = [g0]
        for _ in range(3):
            perm = list(range(g0.n))
            rng.shuffle(perm)
            seeds.append(UndirectedGraph.build(g0.n, [(perm[u], perm[v]) for u, v in g0.edges]))
        for seed in seeds:
            assert constructors.girth5_non_aop(seed) == one_by_one(seed)
