"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The printed line reflects the real outcome of the checks; a FAIL line is
always accompanied by a failing assertion.
"""

import random
from itertools import combinations, product

from shiftgraphs import aop, constructors, invariants, repro
from shiftgraphs.core import (
    AcyclicDigraph,
    UndirectedGraph,
    underlying,
)

from conftest import (
    brute_chromatic,
    brute_degeneracy,
    brute_force_aop,
    brute_verify,
    flagged_arcs,
    iterated_tuples,
    one_path,
)


def announce(capsys, criterion: int, title: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {criterion:2d}: {title} ({detail})")
    assert ok, f"criterion {criterion}: {title}: {detail}"


def outcome(results: list[repro.Assertion]) -> tuple[bool, str]:
    """Whether every assertion of a recipe passed, and their details."""
    ok = all(passed for _, passed, _ in results)
    return ok, "; ".join(detail for _, _, detail in results)


def test_criterion_01_shift_graph_identity(capsys):
    # shift_graph(n, k) builds G(n, k) from the tuple definition alone; here
    # each of its labels must name exactly one vertex of L^{k-1}(T_n) by
    # that vertex's tuple, and the relabeled arcs must be its edges.
    cases = (
        [(n, 2) for n in range(3, 13)]
        + [(n, 3) for n in range(7, 12)]
        + [(n, 4) for n in range(9, 12)]
    )
    bad = []
    for n, k in cases:
        g = constructors.shift_graph(n, k)
        d, tuples = iterated_tuples(n, k - 1)
        vid = {label: v for v, label in g.labels.items()}
        relabel = [vid.get("(" + ",".join(map(str, t)) + ")", -1) for t in tuples]
        relabeled = sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in d.arcs)
        if sorted(relabel) != list(range(g.n)) or tuple(relabeled) != g.edges:
            bad.append((n, k))
    announce(
        capsys, 1, "G(n, k) equals the iterated line digraph of the tournament",
        not bad, f"k = 2: n = 3..12, k = 3: n = 7..11, k = 4: n = 9..11; mismatches: {bad}",
    )


def test_criterion_02_structure_observations(capsys):
    ok, detail = outcome(repro.recipe_structure_obs())
    announce(capsys, 2, "bag structure clauses (i)-(v)", ok, detail)


def test_criterion_03_odd_girth_lift(capsys):
    ok, detail = outcome(repro.recipe_odd_girth_lemma())
    announce(capsys, 3, "odd-girth grows through the line digraph", ok, detail)


def test_criterion_04_chromatic_sandwich(capsys):
    ok, detail = outcome(repro.recipe_chromatic_sandwich())
    announce(capsys, 4, "log2(chi) <= chi(line) <= k*(chi)", ok, detail)


def test_criterion_05_constructive_log_coloring(capsys):
    ok, detail = outcome(repro.recipe_log_color())
    announce(capsys, 5, "log-coloring palette k*(c), lift within 2^t-1+1", ok, detail)


def test_criterion_06_kab_pipeline(capsys):
    rng = random.Random(4242)
    t7_pairs = list(combinations(range(7), 2))
    samples = []
    for _ in range(1000):
        arcs = [p for p in t7_pairs if rng.random() < rng.uniform(0.2, 0.9)]
        samples.append(AcyclicDigraph.build(7, arcs))
    for n in range(1, 10):
        samples.append(constructors.acyclic_tournament(n))

    def genuine(d: AcyclicDigraph, left, right, a: int, b: int) -> bool:
        host = underlying(constructors.line_digraph(d)[0])
        return (
            len(left) == a
            and len(right) == b
            and len(set(left) | set(right)) == a + b
            and all(host.has_edge(x, y) for x in left for y in right)
            and not any(
                host.has_edge(x, y)
                for side in (left, right)
                for x, y in combinations(side, 2)
            )
        )

    violations = []
    checked = 0
    for d in samples:
        for a, b in product((1, 2, 3), repeat=2):
            checked += 1
            results, rep = repro.kab_promise(d, a, b)
            failed = [name for name, passed, _ in results if not passed]
            if failed:
                violations.append((d.n, len(d.arcs), a, b, failed))
            w = rep.witness
            if w is not None and not genuine(d, w.left, w.right, a, b):
                violations.append((d.n, len(d.arcs), a, b, "bogus witness"))
    announce(
        capsys, 6, "K_{a,b}-free pipeline bounds and witnesses",
        not violations, f"{checked} runs, violations: {violations[:3]}",
    )


def test_criterion_07_cycle_lemma(capsys):
    ok, detail = outcome(repro.recipe_cycle_lemma())  # k = 4..8
    beyond = {k: aop.cycle_orientation_lemma_check(k) for k in (9, 10)}
    ok = ok and all(beyond.values())
    detail += "; " + "; ".join(f"k={k}: {'holds' if v else 'fails'}" for k, v in beyond.items())
    announce(capsys, 7, "cycle lemma, k = 4..10 (exact for k <= 5)", ok, detail)


def test_criterion_08_gadget_non_aop(capsys):
    ok, detail = outcome(repro.recipe_gadget())
    oracle5 = brute_force_aop(constructors.odd_girth_gadget(5))
    announce(
        capsys, 8, "gadget refutation matches exhaustive enumeration",
        ok and oracle5 is None,
        f"{detail}; oracle g=5 {'none' if oracle5 is None else 'found'}",
    )


def test_criterion_09_zykov_pipeline(capsys):
    problems = []
    for n, g in [(n, 0) for n in range(1, 6)] + [(3, 1), (3, 2), (4, 1)]:
        ok, detail = outcome(repro.recipe_zykov_aop(n, g))
        if not ok:
            problems.append(f"pipeline({n},{g}): {detail}")
    chi_z4, chi_line, sandwiched = repro.chromatic_sandwich(constructors.zykov(4))
    if not (chi_z4 == 4 and sandwiched):
        problems.append(f"chi(Z4) = {chi_z4}, chi(L(Z4)) = {chi_line}")
    announce(
        capsys, 9, "Zykov orientations stay one-path through iteration",
        not problems, f"chi(L(Z4)) = {chi_line}, problems: {problems}",
    )


def test_criterion_10_girth5_construction(capsys):
    ok, detail = outcome(repro.recipe_girth5())
    announce(capsys, 10, "girth-5 construction has no one-path orientation", ok, detail)


def test_criterion_11_g92_stretch(capsys):
    ok, detail = outcome(repro.recipe_g92_aop())
    announce(capsys, 11, "G(8, 2) is one-path, G(n, 2) for n = 9..12 is not", ok, detail)


def test_criterion_12_oracle_equivalences(capsys):
    rng = random.Random(999)
    mismatches = []

    verify_checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        edges = [p for p in combinations(range(n), 2) if rng.random() < 0.7]
        if len(edges) > 10:
            continue
        g = UndirectedGraph.build(n, edges)
        for bits in product((True, False), repeat=len(edges)):
            # Every orientation, cyclic ones included.
            arcs = flagged_arcs(g, bits)
            verify_checked += 1
            if one_path(g, arcs) != brute_verify(g, arcs):
                mismatches.append(("verify", edges, bits))

    chi_checked = 0
    for _ in range(25):
        n = rng.randint(1, 8)
        g = UndirectedGraph.build(
            n, [p for p in combinations(range(n), 2) if rng.random() < 0.5]
        )
        chi_checked += 1
        if invariants.chromatic_number(g)[0] != brute_chromatic(g):
            mismatches.append(("chi", g.edges))

    deg_checked = 0
    for _ in range(8):
        n = rng.randint(1, 15)
        g = UndirectedGraph.build(
            n, [p for p in combinations(range(n), 2) if rng.random() < 0.3]
        )
        deg_checked += 1
        if invariants.degeneracy(g).degeneracy != brute_degeneracy(g):
            mismatches.append(("degeneracy", g.edges))

    announce(
        capsys, 12, "oracle equivalences",
        not mismatches,
        f"{verify_checked} orientations, {chi_checked} chromatic, "
        f"{deg_checked} degeneracy; mismatches: {mismatches[:2]}",
    )
