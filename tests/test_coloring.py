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


def reference_color_kab_free(t_prime: AcyclicDigraph, a: int, b: int):
    """The K_{a,b} pipeline as two first-fit loops, one per side, each
    skipping neighbors not yet colored, with the witness checked on the
    whole line graph's adjacency: the oracle for ``color_kab_free``."""
    if a < 1 or b < 1:
        raise GraphError("both side bounds must be at least 1")
    for u, v in t_prime.arcs:
        if u >= v:
            raise GraphError(f"arc ({u}, {v}) violates the tournament order")
    n = t_prime.n
    out_adj, in_adj = t_prime.out_adjacency, t_prime.in_adjacency
    left = [v for v in range(n) if len(out_adj[v]) <= b - 1]
    right = [v for v in range(n) if len(out_adj[v]) >= b]
    in_left = [v in left for v in range(n)]
    base_color = [-1] * n
    left_used = 0
    for v in sorted(left, reverse=True):
        taken = {base_color[w] for w in out_adj[v] if in_left[w] and base_color[w] != -1}
        c = 0
        while c in taken:
            c += 1
        base_color[v] = c
        left_used = max(left_used, c + 1)
    right_used = 0
    overloaded = None
    for v in sorted(right):
        prior = [w for w in in_adj[v] if not in_left[w] and base_color[w] != -1]
        taken = {base_color[w] - left_used for w in prior}
        c = 0
        while c in taken:
            c += 1
        base_color[v] = left_used + c
        right_used = max(right_used, c + 1)
        if c >= a and overloaded is None:
            overloaded = (v, prior)
    combined = coloring.Coloring(underlying(t_prime), tuple(base_color), left_used + right_used)
    line, bd = constructors.line_digraph(t_prime)
    final = coloring.log_color_line_digraph(t_prime, combined)
    witness = None
    if overloaded is not None:
        v, prior = overloaded
        lg = underlying(line)
        arc_id = {arc: i for i, arc in enumerate(bd.arcs)}
        wl = tuple(arc_id[(w, v)] for w in sorted(prior)[:a])
        wr = tuple(sorted(arc_id[(v, w)] for w in out_adj[v])[:b])
        assert len(wl) == a and len(wr) == b
        assert all(lg.has_edge(x, y) for x in wl for y in wr)
        for side in (wl, wr):
            assert not any(lg.has_edge(x, y) for x, y in combinations(side, 2))
        witness = coloring.KabWitness(wl, wr)
    report = coloring.KabReport(
        len(left), len(right), left_used, right_used, coloring.k_star(combined.used),
        final.palette, witness,
    )
    return final, report


def reference_lift(g: AcyclicDigraph, line_coloring: coloring.Coloring) -> coloring.Coloring:
    """The bag-set lift with sinks and the last vertex marked ``None`` and
    given one extra color after every set: the oracle for ``lift_coloring``."""
    _, bd = constructors.line_digraph(g)
    color_sets = [None] * g.n
    for v, bag in zip(g.topo, bd.bags):
        color_sets[v] = frozenset(line_coloring.color[u] for u in bag) or None
    distinct = sorted({s for s in color_sets if s is not None}, key=sorted)
    ids = {s: i for i, s in enumerate(distinct)}
    colors = tuple(len(distinct) if s is None else ids[s] for s in color_sets)
    any_sink = None in color_sets
    return coloring.Coloring(underlying(g), colors, len(distinct) + any_sink)


class TestKabMatchesReference:
    def test_tournament_subdigraphs(self, rng):
        witnesses = 0
        for _ in range(600):
            n = rng.randint(1, 14)
            p = rng.random()
            arcs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            d = AcyclicDigraph.build(n, arcs)
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            final, rep = coloring.color_kab_free(d, a, b)
            ref_final, ref_rep = reference_color_kab_free(
                AcyclicDigraph.build(n, arcs), a, b
            )
            assert final.color == ref_final.color
            assert final.palette == ref_final.palette
            assert rep == ref_rep
            witnesses += rep.witness is not None
        assert 100 < witnesses < 500  # both branches are exercised

    def test_order_error_messages(self, rng):
        raised = 0
        for _ in range(200):
            d = random_dag(rng, rng.randint(2, 9), 0.5)
            try:
                reference_color_kab_free(d, 2, 2)
            except GraphError as e:
                raised += 1
                with pytest.raises(GraphError) as got:
                    coloring.color_kab_free(d, 2, 2)
                assert str(got.value) == str(e)
            else:
                coloring.color_kab_free(d, 2, 2)
        assert raised > 100

    def test_lift(self, rng):
        sinks = AcyclicDigraph.build(6, [(0, 3), (1, 3), (2, 4), (0, 1)])
        cases = [AcyclicDigraph.build(0, []), AcyclicDigraph.build(1, []), sinks]
        cases += [random_dag(rng, rng.randint(2, 9), 0.3) for _ in range(60)]
        for d in cases:
            lg = underlying(constructors.line_digraph(d)[0])
            for line_col in (
                exact(lg), coloring.Coloring(lg, tuple(range(lg.n)), lg.n)
            ):
                assert coloring.lift_coloring(d, line_col) == reference_lift(d, line_col)
        # The sinks 3, 4 and 5 share the empty bag's color, the last one.
        line_col = exact(underlying(constructors.line_digraph(sinks)[0]))
        lifted = coloring.lift_coloring(sinks, line_col)
        assert lifted.color[3] == lifted.color[4] == lifted.color[5] == lifted.palette - 1 > 0

    def test_witness_builds_no_line_graph_adjacency(self):
        t_prime = constructors.acyclic_tournament(9)
        final, rep = coloring.color_kab_free(t_prime, 2, 2)
        assert rep.witness is not None
        assert "adjacency" not in final.graph.__dict__
        assert "adjacency_sets" not in final.graph.__dict__
        assert "arcs" not in t_prime.__dict__


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
