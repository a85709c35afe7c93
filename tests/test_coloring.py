from itertools import combinations
from math import comb

import pytest

from shiftgraphs import coloring, constructors, invariants, repro
from shiftgraphs.core import (
    AcyclicDigraph,
    GraphError,
    ImproperColoringError,
    UndirectedGraph,
    underlying,
)

from conftest import random_dag, random_graph


def exact(g: UndirectedGraph) -> coloring.Coloring:
    return invariants.chromatic_number(g)[1]


class TestColoringType:
    def test_rejects_improper(self):
        g = UndirectedGraph.build(2, [(0, 1)])
        with pytest.raises(ImproperColoringError):
            coloring.Coloring(g, (0, 0), 1)

    def test_rejects_out_of_palette(self):
        g = UndirectedGraph.build(2, [(0, 1)])
        with pytest.raises(GraphError):
            coloring.Coloring(g, (0, 5), 2)

    def test_used(self):
        g = UndirectedGraph.build(3, [(0, 1)])
        c = coloring.Coloring(g, (0, 2, 0), 3)
        assert c.used == 2


class TestKStar:
    def test_small_values(self):
        # C(k, floor(k/2)): 1, 2, 3, 6, 10, 20, 35, 70
        assert coloring.k_star(0) == 0
        assert coloring.k_star(1) == 1
        assert coloring.k_star(2) == 2
        assert coloring.k_star(3) == 3
        assert coloring.k_star(4) == 4
        assert coloring.k_star(6) == 4
        assert coloring.k_star(7) == 5
        assert coloring.k_star(10) == 5
        assert coloring.k_star(11) == 6
        assert coloring.k_star(20) == 6
        assert coloring.k_star(70) == 8

    def test_definition(self):
        for c in range(1, 200):
            k = coloring.k_star(c)
            assert comb(k, k // 2) >= c
            assert k == 1 or comb(k - 1, (k - 1) // 2) < c

    def test_subset_palette_is_antichain(self):
        for k in range(1, 7):
            masks = coloring._subset_masks(k)
            assert len(masks) == comb(k, k // 2)
            for a, b in combinations(masks, 2):
                assert a & ~b and b & ~a  # no containment either way


class TestLogColoring:
    def test_tournament(self):
        t = constructors.acyclic_tournament(5)
        base = exact(underlying(t))
        col = coloring.log_color_line_digraph(t, base)
        assert col.palette == coloring.k_star(5) == 4

    def test_proper_on_random_dags(self, rng):
        for _ in range(40):
            d = random_dag(rng, rng.randint(2, 9), 0.5)
            base = exact(underlying(d))
            col = coloring.log_color_line_digraph(d, base)
            # Propriety is enforced by the Coloring constructor; also pin the
            # palette to exactly k*(colors actually used).
            assert col.palette == coloring.k_star(base.used)

    def test_rejects_foreign_base(self):
        t = constructors.acyclic_tournament(4)
        other = exact(UndirectedGraph.build(4, []))
        with pytest.raises(GraphError):
            coloring.log_color_line_digraph(t, other)


class TestLift:
    def test_palette_bound(self, rng):
        for _ in range(40):
            d = random_dag(rng, rng.randint(2, 9), 0.5)
            base = exact(underlying(d))
            line_col = coloring.log_color_line_digraph(d, base)
            lifted = coloring.lift_coloring(d, line_col)
            assert lifted.graph == underlying(d)
            assert lifted.palette <= 2 ** line_col.palette - 1 + 1

    def test_builds_the_line_digraph_once(self, monkeypatch):
        built = []
        real = constructors._line_digraph

        def counting(g):
            built.append(g)
            return real(g)

        monkeypatch.setattr(constructors, "_line_digraph", counting)
        d = constructors.acyclic_tournament(6)
        line_col = coloring.log_color_line_digraph(d, exact(underlying(d)))
        lifted = coloring.lift_coloring(d, line_col)
        assert built == [d]
        line, _ = constructors.line_digraph(d)
        assert line_col.graph is underlying(line)
        assert lifted.graph is underlying(d)

    def test_accepts_any_line_coloring(self, rng):
        d = random_dag(rng, 6, 0.6)
        line, _ = constructors.line_digraph(d)
        line_col = exact(underlying(line))
        lifted = coloring.lift_coloring(d, line_col)
        assert lifted.palette <= 2 ** line_col.palette - 1 + 1

    def test_rejects_wrong_graph(self):
        t = constructors.acyclic_tournament(4)
        with pytest.raises(GraphError):
            coloring.lift_coloring(t, exact(underlying(t)))


class TestKabPipeline:
    def test_full_tournament_witness(self):
        final, rep = coloring.color_kab_free(constructors.acyclic_tournament(9), 2, 2)
        assert rep.witness is not None
        self._check_witness(constructors.acyclic_tournament(9), rep.witness, 2, 2)

    def test_sparse_subdigraph_promise(self):
        # A directed path has out-degrees <= 1, so with b = 2 everything sits
        # on the low side and two base colors suffice.
        d = AcyclicDigraph.build(6, [(i, i + 1) for i in range(5)])
        final, rep = coloring.color_kab_free(d, 1, 2)
        assert rep.witness is None
        assert rep.right_size == 0
        assert rep.left_colors <= 2
        assert final.palette <= coloring.k_star(3)

    def test_random_subdigraphs(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            arcs = [
                (u, v)
                for u, v in combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            d = AcyclicDigraph.build(n, arcs)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            final, rep = coloring.color_kab_free(d, a, b)
            assert rep.left_colors <= b
            host = underlying(constructors.line_digraph(d)[0])
            if coloring.is_kab_free(host, a, b):
                assert rep.right_colors <= a
                assert rep.palette <= coloring.k_star(a + b)
            if rep.witness is not None:
                self._check_witness(d, rep.witness, a, b)

    def test_builds_the_line_digraph_once(self, monkeypatch):
        calls = []
        real = constructors.line_digraph

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(constructors, "line_digraph", counting)
        d = constructors.acyclic_tournament(9)
        for ab, has_witness in ((5, False), (2, True)):
            calls.clear()
            _, rep = coloring.color_kab_free(d, ab, ab)
            assert (rep.witness is not None) == has_witness
            assert len(calls) == 1
        calls.clear()
        repro.kab_promise(d, 2, 2)
        assert len(calls) == 1
        monkeypatch.undo()
        self._check_witness(d, rep.witness, 2, 2)

    def test_rejects_bad_input(self):
        d = AcyclicDigraph.build(3, [(2, 1)])
        with pytest.raises(GraphError):
            coloring.color_kab_free(d, 2, 2)
        with pytest.raises(GraphError):
            coloring.color_kab_free(constructors.acyclic_tournament(3), 0, 1)

    @staticmethod
    def _check_witness(d, witness, a, b):
        host = underlying(constructors.line_digraph(d)[0])
        left, right = witness.left, witness.right
        assert len(left) == a and len(right) == b
        assert len(set(left) | set(right)) == a + b
        for x in left:
            for y in right:
                assert host.has_edge(x, y)
        for side in (left, right):
            for x, y in combinations(side, 2):
                assert not host.has_edge(x, y)


class TestIsKabFree:
    def test_complete_bipartite(self):
        edges = [(u, 3 + v) for u in range(3) for v in range(2)]
        g = UndirectedGraph.build(5, edges)
        assert not coloring.is_kab_free(g, 3, 2)
        assert not coloring.is_kab_free(g, 2, 3)
        assert coloring.is_kab_free(g, 3, 3)

    def test_cycle(self):
        c5 = UndirectedGraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not coloring.is_kab_free(c5, 1, 2)  # any path u-v-w
        assert coloring.is_kab_free(c5, 2, 2)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            brute = not any(
                all(g.has_edge(x, y) for x in left for y in right)
                and not any(g.has_edge(x, y) for x, y in combinations(left, 2))
                and not any(g.has_edge(x, y) for x, y in combinations(right, 2))
                for left in combinations(range(g.n), a)
                for right in combinations(
                    [v for v in range(g.n) if v not in left], b
                )
            )
            assert coloring.is_kab_free(g, a, b) == brute


class TestGallaiRoy:
    def test_roundtrip_bound(self, rng):
        # Orienting by colors bounds the longest path, so recoloring by
        # longest path never needs more colors than we started with.
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            c = exact(g)
            d = coloring.coloring_to_orientation(g, c)
            back = coloring.orientation_to_coloring(d)
            assert back.graph == g and back.palette <= c.palette

    def test_orientation_is_acyclic(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.6)
            c = exact(g)
            d = coloring.coloring_to_orientation(g, c)  # an AcyclicDigraph
            assert d.underlying == g
            assert all(c.color[u] < c.color[v] for u, v in d.arcs)

    def test_path_graph(self):
        g = UndirectedGraph.build(4, [(0, 1), (1, 2), (2, 3)])
        c = coloring.Coloring(g, (0, 1, 0, 1), 2)
        d = coloring.coloring_to_orientation(g, c)
        assert d.arcs == ((0, 1), (2, 1), (2, 3))
        back = coloring.orientation_to_coloring(d)
        assert back.palette == 2

    def test_rejects_foreign_coloring(self):
        g = UndirectedGraph.build(2, [(0, 1)])
        other = coloring.Coloring(UndirectedGraph.build(2, []), (0, 0), 1)
        with pytest.raises(GraphError):
            coloring.coloring_to_orientation(g, other)
