from itertools import product

import pytest

from shiftgraphs import aop, constructors, repro
from shiftgraphs.core import (
    EdgeDir,
    GraphError,
    Orientation,
    UndirectedGraph,
    underlying,
)

from conftest import random_graph


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


def brute_verify(o: Orientation) -> bool:
    """Reference check: explicit path enumeration plus cycle detection."""
    return brute_violation(o.base.n, o.arcs()) is None


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
        o = Orientation(g, (EdgeDir.FORWARD, EdgeDir.FORWARD))
        assert aop.verify_aop(o).ok

    def test_cycle_detected(self):
        g = UndirectedGraph.build(3, [(0, 1), (0, 2), (1, 2)])
        o = Orientation(g, (EdgeDir.FORWARD, EdgeDir.BACKWARD, EdgeDir.FORWARD))
        res = aop.verify_aop(o)
        assert not res.ok
        assert res.cycle is not None
        arc_set = set(o.arcs())
        cyc = res.cycle
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (a, b) in arc_set

    def test_double_path_detected(self):
        g = UndirectedGraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        o = Orientation(g, (EdgeDir.FORWARD,) * 4)
        res = aop.verify_aop(o)
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
        dirs = tuple(EdgeDir.FORWARD if e in arcs else EdgeDir.BACKWARD for e in g.edges)
        res = aop.verify_aop(Orientation(g, dirs))
        assert not res.ok
        assert res.pair == (0, 1)
        assert res.paths == (first, second)

    def test_rejects_partial(self):
        g = UndirectedGraph.build(2, [(0, 1)])
        with pytest.raises(GraphError):
            aop.verify_aop(Orientation(g, (EdgeDir.UNSET,)))

    def test_matches_brute_force(self, rng):
        # Oracle equivalence on every orientation of small random graphs.
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5), 0.6)
            if len(g.edges) > 10:
                continue
            for bits in product((EdgeDir.FORWARD, EdgeDir.BACKWARD), repeat=len(g.edges)):
                o = Orientation(g, bits)
                assert aop.verify_aop(o).ok == brute_verify(o)


class TestDecideAop:
    def test_empty_and_tree(self):
        assert aop.decide_aop(UndirectedGraph.build(3, [])).status == "has_aop"
        tree = UndirectedGraph.build(4, [(0, 1), (1, 2), (1, 3)])
        v = aop.decide_aop(tree)
        assert v.status == "has_aop"
        assert aop.verify_aop(v.witness).ok

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
        g = constructors.shift_graph(9, 2)
        v = aop.decide_aop(g, max_nodes=100)
        assert v.status == "timeout"
        assert v.witness is None

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            if len(g.edges) > 16:
                continue
            verdict = aop.decide_aop(g)
            oracle = aop.brute_force_aop(g)
            assert verdict.status == ("has_aop" if oracle is not None else "no_aop")
            if verdict.status == "has_aop":
                assert aop.verify_aop(verdict.witness).ok

    def test_long_path_has_aop(self):
        g = UndirectedGraph.build(1200, [(i, i + 1) for i in range(1199)])
        v = aop.decide_aop(g)
        assert v.status == "has_aop"
        assert aop.verify_aop(v.witness).ok


class TestPinnedSearchCounts:
    # Node and prune counts are deterministic; a change to the branching
    # order or to pruning has to restate them.
    @pytest.mark.parametrize(
        "make, max_nodes, expected",
        [
            (lambda: constructors.shift_graph(8, 2), None, ("has_aop", 9449, 296, 4413)),
            (lambda: constructors.shift_graph(9, 2), None, ("no_aop", 105695, 3352, 49496)),
            (lambda: constructors.odd_girth_gadget(5), None, ("no_aop", 601, 24, 277)),
            (lambda: constructors.odd_girth_gadget(7), None, ("no_aop", 5167, 316, 2268)),
            (lambda: constructors.odd_girth_gadget(9), None, ("no_aop", 25645, 1732, 11091)),
            (lambda: constructors.odd_girth_gadget(11), None, ("no_aop", 110387, 7724, 47470)),
            (constructors.girth5_non_aop, 25_000, ("timeout", 25000, 2, 12476)),
        ],
        ids=["g82", "g92", "gadget5", "gadget7", "gadget9", "gadget11", "girth5"],
    )
    def test_counts(self, make, max_nodes, expected):
        kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
        v = aop.decide_aop(make(), **kwargs)
        s = v.stats
        assert (v.status, s.nodes, s.prunes_cycle, s.prunes_double_path) == expected
        if v.status == "has_aop":
            assert aop.verify_aop(v.witness).ok


class TestOnePathKernel:
    def test_matches_brute_force(self, rng):
        # Insert the arcs of a random orientation in random order; each
        # verdict must match brute force on the kept arcs plus the new one,
        # the masks must match brute-force reachability, and undo must
        # restore every earlier state exactly.
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
            rng.shuffle(arcs)
            kernel = aop.OnePathKernel(g.n)
            kept = []
            states = []
            for arc in arcs:
                before = (list(kernel.desc), list(kernel.anc))
                verdict = kernel.add_arc(*arc)
                assert verdict == brute_violation(g.n, kept + [arc])
                if verdict is not None:
                    assert (kernel.desc, kernel.anc) == before
                    continue
                kept.append(arc)
                states.append(before)
                out = [[] for _ in range(g.n)]
                for u, v in kept:
                    out[u].append(v)
                for a in range(g.n):
                    for b in range(g.n):
                        joined = a != b and bool(all_simple_directed_paths(out, a, b))
                        assert bool(kernel.desc[a] >> b & 1) == joined
                        assert bool(kernel.anc[b] >> a & 1) == joined
            for before in reversed(states):
                kernel.undo()
                assert (kernel.desc, kernel.anc) == before


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
            bits = [rng.choice((EdgeDir.FORWARD, EdgeDir.BACKWARD)) for _ in idx]
            arcs = []
            for i, d in zip(idx, bits):
                u, v = g.edges[i]
                arcs.append((u, v) if d is EdgeDir.FORWARD else (v, u))
            if replay(g.n, arcs) is None:
                continue
            rest = [i for i in range(m) if i not in idx]
            for ext in product((EdgeDir.FORWARD, EdgeDir.BACKWARD), repeat=len(rest)):
                dirs = [EdgeDir.UNSET] * m
                for i, d in zip(idx, bits):
                    dirs[i] = d
                for i, d in zip(rest, ext):
                    dirs[i] = d
                assert not aop.verify_aop(Orientation(g, tuple(dirs))).ok

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
            d = verdict.witness.to_digraph()
            line, _ = line_digraph(d)
            assert aop.verify_aop(Orientation.build(underlying(line), line.arcs)).ok


def cycle_orientation(k, rot):
    """C_k with edge i -- i+1 (mod k) pointing i -> i+1 exactly when rot[i]."""
    g = UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)])
    arcs = {(i, (i + 1) % k) if r else ((i + 1) % k, i) for i, r in enumerate(rot)}
    return Orientation(
        g, tuple(EdgeDir.FORWARD if e in arcs else EdgeDir.BACKWARD for e in g.edges)
    )


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
                o = cycle_orientation(k, rot)
                assert brute_violation(k, o.arcs()) is not None
                assert not aop.verify_aop(o).ok
        assert counts == {4: 14, 5: 22, 6: 26, 7: 30, 8: 34, 9: 38, 10: 42}

    def test_converse_exact_to_five_and_not_at_six(self):
        for k in (4, 5):
            for rot in product((True, False), repeat=k):
                o = cycle_orientation(k, rot)
                assert aop.verify_aop(o).ok == (longest_directed_run(rot) < k - 2)
        # On C6, 0->1->2->3 and 0->5->4->3 double the pair (0, 3), though the
        # longest directed path has 3 edges, not 4.
        rot = (True, True, True, False, False, False)
        o = cycle_orientation(6, rot)
        assert longest_directed_run(rot) == 3
        assert aop.verify_aop(o).pair == (0, 3)
        assert brute_violation(6, o.arcs()) == "double"

    def test_check_catches_a_wrong_verifier(self, monkeypatch):
        # A verifier that passes everything breaks "window => fails"; one
        # that fails everything breaks the converse at k = 4.
        for verdict in (aop.VerifyResult(True), aop.VerifyResult(False)):
            monkeypatch.setattr(aop, "verify_aop", lambda o, v=verdict: v)
            assert not aop.cycle_orientation_lemma_check(4)
