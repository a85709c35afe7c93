import random
import time
from itertools import product
from pathlib import Path

import pytest

from shiftgraphs import aop, constructors, repro
from shiftgraphs.core import (
    DirectedCycleError,
    GraphError,
    UndirectedGraph,
    orient,
    read_orientation,
)

from conftest import (
    all_simple_directed_paths,
    brute_force_aop,
    brute_verify,
    brute_violation,
    flagged_arcs,
    one_path,
    random_graph,
    random_graph_with,
)

PARENT_CORPUS_VERDICTS = (
    "NHNHNHNHNHNHNHNHNHNHNHNHNHNHNHNHHHNNNHNHNHNHNHNHHH"
    "NHNHNHNHNHNHNHHHNHNHNHNHNHNHNHNHHHHHNHNHNHNHNHNHNH"
    "NHHHNHNHNHNHNNNNNHNHNHNHNHNNNHNNNHNHNHNHHNHHNHNHNH"
    "NNNHNHNHNHNHNHNNNHNHNHNHNNNHNHNHNHNHNHHHNNNNNHNHNH"
)


def replay(n, arcs):
    """First violation met while inserting arcs into a fresh kernel."""
    kernel = aop.OnePathKernel(n)
    for u, v in arcs:
        bad = kernel.add_arc(u, v)
        if bad is not None:
            return bad
    return None


class TestVerifyAop:
    def test_path_ok(self):
        g = UndirectedGraph.build(3, [(0, 1), (1, 2)])
        assert aop.verify_aop(orient(g, [(0, 1), (1, 2)])).ok

    def test_cycle_detected(self):
        # A cyclic orientation is refuted where it is read, by ``orient``.
        g = UndirectedGraph.build(3, [(0, 1), (0, 2), (1, 2)])
        arcs = [(0, 1), (2, 0), (1, 2)]
        with pytest.raises(DirectedCycleError) as exc:
            orient(g, arcs)
        cyc = exc.value.cycle
        assert cyc == [0, 1, 2]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (a, b) in arcs
        assert not one_path(g, arcs)

    def test_double_path_detected(self):
        g = UndirectedGraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        res = aop.verify_aop(orient(g, g.edges))
        assert not res.ok
        assert res.pair == (0, 3)
        p1, p2 = res.paths
        assert p1 != p2
        assert p1[0] == p2[0] == 0 and p1[-1] == p2[-1] == 3

    def test_long_doubled_path_refuted(self):
        # Two internally disjoint 0 -> 1 paths of 1,100 arcs each.
        first = (0, *range(2, 1101), 1)
        second = (0, *range(1101, 2200), 1)
        arcs = {(a, b) for path in (first, second) for a, b in zip(path, path[1:])}
        g = UndirectedGraph.build(2200, arcs)
        res = aop.verify_aop(orient(g, arcs))
        assert not res.ok
        assert res.pair == (0, 1)
        assert res.paths == (first, second)

    def test_matches_brute_force(self, rng):
        # Oracle equivalence on every orientation of small random graphs,
        # cyclic ones included.
        cyclic = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5), 0.6)
            if len(g.edges) > 10:
                continue
            for forward in product((True, False), repeat=len(g.edges)):
                arcs = flagged_arcs(g, forward)
                assert one_path(g, arcs) == brute_verify(g, arcs)
                cyclic += brute_violation(g.n, arcs) == "cycle"
        assert cyclic > 0


class TestDecideAop:
    def test_empty_and_tree(self):
        assert aop.decide_aop(UndirectedGraph.build(3, [])).status == "has_aop"
        tree = UndirectedGraph.build(4, [(0, 1), (1, 2), (1, 3)])
        v = aop.decide_aop(tree)
        assert v.status == "has_aop"
        assert aop.verify_aop(v.witness).ok

    def test_witness_orients_the_graph(self):
        # The witness is a digraph whose underlying graph, labels included,
        # is the input graph.
        g = UndirectedGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], {0: "a", 3: "d"})
        v = aop.decide_aop(g)
        assert v.status == "has_aop" and v.witness.underlying == g

    def test_triangle_fast_path(self):
        g = UndirectedGraph.build(3, [(0, 1), (0, 2), (1, 2)])
        v = aop.decide_aop(g)
        assert v.status == "no_aop"
        assert v.stats.nodes == 0

    def test_even_cycles_have_aop(self):
        for k in (4, 6, 8):
            g = UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)])
            v = aop.decide_aop(g)
            assert v.status == "has_aop"
            assert aop.verify_aop(v.witness).ok

    def test_gadget_refuted(self):
        v = aop.decide_aop(constructors.odd_girth_gadget(5))
        assert v.status == "no_aop"

    def test_timeout(self):
        v = aop.decide_aop(constructors.girth5_non_aop(), max_nodes=100)
        assert v.status == "timeout"
        assert v.stats.nodes == 100
        assert v.witness is None

    def test_matches_exhaustive_oracle(self, rng):
        # Every second graph is triangle-free, so the 4- and 5-cycle clauses
        # and the kernel decide it, not the triangle check.
        verdicts = set()
        forced = 0
        for trial in range(100):
            triangle_free = trial % 2 == 1
            g = random_graph_with(rng, rng.randint(2, 8), rng.randint(0, 14), triangle_free)
            verdict = aop.decide_aop(g)
            oracle = brute_force_aop(g)
            assert verdict.status == ("has_aop" if oracle is not None else "no_aop"), g
            if verdict.status == "has_aop":
                assert aop.verify_aop(verdict.witness).ok
            verdicts.add(verdict.status)
            forced += verdict.stats.forced if triangle_free else 0
        assert verdicts == {"has_aop", "no_aop"} and forced > 0

    def test_matches_parent_search_on_seeded_corpus(self):
        # Verdicts of the search before cycle-lemma propagation and the block
        # split (H = has_aop, N = no_aop), on 200 seeded graphs with
        # 4..12 vertices; every second graph is triangle-free.
        rng = random.Random(20261018)
        got = ""
        for trial in range(200):
            n = rng.randint(4, 12)
            g = random_graph_with(rng, n, rng.randint(n - 1, 3 * n), triangle_free=trial % 2 == 1)
            got += aop.decide_aop(g).status[0].upper()
        assert got == PARENT_CORPUS_VERDICTS

    def test_long_path_has_aop(self):
        # Every edge is a bridge, so no block is searched.
        g = UndirectedGraph.build(3000, [(i, i + 1) for i in range(2999)])
        start = time.perf_counter()
        v = aop.decide_aop(g)
        assert time.perf_counter() - start < 0.5
        assert v.status == "has_aop" and v.stats.nodes == 0
        assert aop.verify_aop(v.witness).ok

    def test_blocks_joined_at_cut_vertices(self):
        # Two 4-cycles and a 6-cycle joined at the cut vertices 3 and 6, plus
        # a pendant path: each block is searched alone, and the joined
        # witness verifies.
        cycles = [(0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9, 10, 11)]
        edges = {(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))}
        g = UndirectedGraph.build(14, edges | {(11, 12), (12, 13)})
        v = aop.decide_aop(g)
        assert v.status == "has_aop"
        assert aop.verify_aop(v.witness).ok

    def test_gadget_behind_cut_vertex_refuted(self):
        # Gadget 11 hangs off a tree at its vertex 0, a cut vertex: the
        # tree's bridges need no search, and the gadget's block is refuted
        # in as many nodes as the gadget alone.
        gadget = constructors.odd_girth_gadget(11)
        tree = [(22, 23), (23, 24), (23, 25), (25, 26), (26, 0)]
        g = UndirectedGraph.build(27, list(gadget.edges) + tree)
        v = aop.decide_aop(g)
        assert v.status == "no_aop"
        assert v.stats.nodes == aop.decide_aop(gadget).stats.nodes


def cycle_prune_graph() -> UndirectedGraph:
    """A triangle-free graph on 11 vertices with a one-path orientation,
    whose search takes one cycle prune."""
    edges = [
        (0, 5), (0, 10), (1, 6), (1, 7), (2, 4), (3, 7),
        (3, 8), (4, 9), (5, 6), (6, 8), (8, 9), (9, 10),
    ]
    return UndirectedGraph.build(11, edges)


class TestPinnedSearchCounts:
    # Node, prune and propagation counts are deterministic; a change to the
    # branching order, to pruning or to propagation has to restate them.
    @pytest.mark.parametrize(
        "make, max_nodes, expected",
        [
            (cycle_prune_graph, None, ("has_aop", 18, 1, 6, 3, 0)),
            (lambda: constructors.shift_graph(8, 2), None, ("has_aop", 3, 0, 0, 51, 0)),
            (lambda: constructors.shift_graph(9, 2), None, ("no_aop", 5, 0, 0, 156, 3)),
            (lambda: constructors.odd_girth_gadget(5), None, ("no_aop", 1, 0, 1, 11, 0)),
            (lambda: constructors.odd_girth_gadget(7), None, ("no_aop", 1, 0, 1, 13, 0)),
            (lambda: constructors.odd_girth_gadget(9), None, ("no_aop", 1, 0, 1, 17, 0)),
            (lambda: constructors.odd_girth_gadget(11), None, ("no_aop", 1, 0, 1, 21, 0)),
            (constructors.girth5_non_aop, 25_000, ("no_aop", 111, 0, 52, 2651, 4)),
            # The shift graphs one level up; README tabulates the rest.
            (lambda: constructors.shift_graph(16, 3), None, ("has_aop", 915, 0, 378, 2053, 0)),
            (lambda: constructors.shift_graph(17, 3), None, ("has_aop", 425, 0, 120, 2502, 0)),
            (lambda: constructors.shift_graph(13, 4), None, ("has_aop", 335, 0, 39, 891, 0)),
            (lambda: constructors.shift_graph(14, 4), None, ("has_aop", 482, 0, 62, 1461, 0)),
        ],
        ids=[
            "cycle_prune", "g82", "g92", "gadget5", "gadget7", "gadget9", "gadget11", "girth5",
            "g163", "g173", "g134", "g144",
        ],
    )
    def test_counts(self, make, max_nodes, expected):
        kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
        v = aop.decide_aop(make(), **kwargs)
        s = v.stats
        counts = (s.nodes, s.prunes_cycle, s.prunes_double_path, s.forced, s.prunes_clause)
        assert (v.status, *counts) == expected
        if v.status == "has_aop":
            assert aop.verify_aop(v.witness).ok

    def test_cycle_prune_graph_has_aop_by_brute_force(self):
        assert brute_force_aop(cycle_prune_graph()) is not None

    def test_committed_g163_witness(self):
        # The G(16,3) witness that the search found, checked with no search.
        path = Path(__file__).with_name("shift_16_3.orient.json")
        d = read_orientation(str(path), constructors.shift_graph(16, 3))
        assert aop.verify_aop(d).ok


class TestOnePathKernel:
    def test_matches_brute_force(self, rng):
        # Insert the arcs of a random orientation in random order; each
        # verdict must match brute force on the kept arcs plus the new one,
        # the arc and reach masks must match the kept arcs and brute-force
        # reachability, and undo must restore every earlier state exactly.
        def state(kernel):
            masks = (kernel.out, kernel.inn, kernel.desc, kernel.anc)
            return len(kernel), [list(m) for m in masks]

        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
            rng.shuffle(arcs)
            kernel = aop.OnePathKernel(g.n)
            kept = []
            states = []
            for arc in arcs:
                before = state(kernel)
                verdict = kernel.add_arc(*arc)
                assert verdict == brute_violation(g.n, kept + [arc])
                if verdict is not None:
                    assert state(kernel) == before
                    continue
                kept.append(arc)
                states.append(before)
                assert len(kernel) == len(kept)
                out = [[] for _ in range(g.n)]
                for u, v in kept:
                    out[u].append(v)
                for a in range(g.n):
                    assert kernel.out[a] == sum(1 << b for b in out[a])
                    assert kernel.inn[a] == sum(1 << u for u, v in kept if v == a)
                    for b in range(g.n):
                        joined = a != b and bool(all_simple_directed_paths(out, a, b))
                        assert bool(kernel.desc[a] >> b & 1) == joined
                        assert bool(kernel.anc[b] >> a & 1) == joined
            # Undo one arc at a time, then several at once back to the start.
            for before in reversed(states[len(states) // 2:]):
                kernel.undo(before[0])
                assert state(kernel) == before
            if states:
                kernel.undo(0)
                assert state(kernel) == states[0]


class TestMonotonePruning:
    def test_partial_violations_survive_extension(self, rng):
        # If a partial orientation already has a cycle or doubled path, so
        # does every total extension.
        for _ in range(40):
            g = random_graph(rng, 5, 0.7)
            m = len(g.edges)
            if m == 0 or m > 8:
                continue
            k = rng.randint(1, m)
            idx = sorted(rng.sample(range(m), k))
            bits = [rng.random() < 0.5 for _ in idx]
            arcs = [g.edges[i] if f else g.edges[i][::-1] for i, f in zip(idx, bits)]
            if replay(g.n, arcs) is None:
                continue
            rest = [i for i in range(m) if i not in idx]
            for ext in product((True, False), repeat=len(rest)):
                forward = [False] * m
                for i, f in zip(idx, bits):
                    forward[i] = f
                for i, f in zip(rest, ext):
                    forward[i] = f
                assert not one_path(g, flagged_arcs(g, forward))

    def test_partial_violation_labels(self):
        assert replay(3, [(0, 1), (1, 2), (2, 0)]) == "cycle"
        assert replay(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == "double"
        assert replay(4, [(0, 1), (1, 3)]) is None


class TestLineDigraphPreservesAop:
    def test_zykov_pipeline(self):
        for n, g in ((3, 1), (3, 2), (4, 1)):
            results = repro.recipe_zykov_aop(n, g)
            assert [passed for _, passed, _ in results] == [True, True], results

    def test_one_path_orientations_stay_one_path(self, rng):
        # The natural orientation of the line digraph of a one-path digraph
        # is again one-path.
        from shiftgraphs.constructors import line_digraph

        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 6), 0.4)
            verdict = aop.decide_aop(g)
            if verdict.status != "has_aop":
                continue
            line, _ = line_digraph(verdict.witness)
            assert aop.verify_aop(line).ok


def cycle_orientation(k, rot):
    """C_k and its arcs, edge i -- i+1 (mod k) pointing i -> i+1 exactly
    when rot[i]."""
    g = UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)])
    return g, [(i, (i + 1) % k) if r else ((i + 1) % k, i) for i, r in enumerate(rot)]


def longest_directed_run(rot):
    """Most cyclically consecutive edges pointing the same way round."""
    k = len(rot)
    if len(set(rot)) == 1:
        return k
    return max(
        next(j for j in range(k) if rot[(s + j) % k] != rot[s]) for s in range(k)
    )


class TestCycleLemma:
    def test_holds_up_to_ten(self):
        for k in range(4, 11):
            assert aop.cycle_orientation_lemma_check(k)

    def test_rejects_small(self):
        with pytest.raises(GraphError):
            aop.cycle_orientation_lemma_check(3)

    def test_windowed_orientations_all_fail(self):
        # Every orientation with a directed path of k-2 edges is refuted by
        # the path-enumerating reference, which shares no code with
        # verify_aop; the counts pin how many orientations the lemma covers.
        counts = {}
        for k in range(4, 11):
            windowed = [rot for rot in product((True, False), repeat=k)
                        if longest_directed_run(rot) >= k - 2]
            counts[k] = len(windowed)
            for rot in windowed:
                g, arcs = cycle_orientation(k, rot)
                assert brute_violation(k, arcs) is not None
                assert not one_path(g, arcs)
        assert counts == {4: 14, 5: 22, 6: 26, 7: 30, 8: 34, 9: 38, 10: 42}

    def test_converse_exact_to_five_and_not_at_six(self):
        for k in (4, 5):
            for rot in product((True, False), repeat=k):
                g, arcs = cycle_orientation(k, rot)
                assert one_path(g, arcs) == (longest_directed_run(rot) < k - 2)
        # On C6, 0->1->2->3 and 0->5->4->3 double the pair (0, 3), though the
        # longest directed path has 3 edges, not 4.
        rot = (True, True, True, False, False, False)
        g, arcs = cycle_orientation(6, rot)
        assert longest_directed_run(rot) == 3
        assert aop.verify_aop(orient(g, arcs)).pair == (0, 3)
        assert brute_violation(6, arcs) == "double"

    def test_check_catches_a_wrong_verifier(self, monkeypatch):
        # A verifier that passes everything breaks "window => fails"; one
        # that fails everything breaks the converse at k = 4.
        for verdict in (aop.VerifyResult(True), aop.VerifyResult(False)):
            monkeypatch.setattr(aop, "verify_aop", lambda o, v=verdict: v)
            assert not aop.cycle_orientation_lemma_check(4)
