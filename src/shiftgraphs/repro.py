"""Reproduction recipes: deterministic, seeded check suites binding the
constructors, invariants, coloring and orientation modules together.

Every recipe returns a list of (assertion, passed, detail) triples; the CLI
prints one line per assertion.  All randomness is seeded and fixed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from itertools import combinations

from . import aop, coloring, constructors, invariants
from .core import AcyclicDigraph, Orientation, UndirectedGraph, underlying

Assertion = tuple[str, bool, str]


def random_acyclic_digraphs(
    count: int, max_n: int, seed: int, min_n: int = 2
) -> Iterator[AcyclicDigraph]:
    """Seeded stream of random DAGs: arcs drawn along a random vertex order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        perm = list(range(n))
        rng.shuffle(perm)
        p = rng.uniform(0.2, 0.8)
        arcs = [
            (perm[i], perm[j])
            for i, j in combinations(range(n), 2)
            if rng.random() < p
        ]
        yield AcyclicDigraph.build(n, arcs)


def exact_coloring(g: UndirectedGraph) -> coloring.Coloring:
    _, c = invariants.chromatic_number(g)
    return c


def recipe_structure_obs(count: int = 500, max_n: int = 12, seed: int = 2024) -> list[Assertion]:
    bad = 0
    for d in random_acyclic_digraphs(count, max_n, seed):
        line, bd = constructors.line_digraph(d)
        if constructors.structure_violations(line, bd):
            bad += 1
    return [
        (
            f"bag structure clauses hold on {count} random digraphs",
            bad == 0,
            f"{bad} digraphs with violations",
        )
    ]

def recipe_log_color(count: int = 100, max_n: int = 10, seed: int = 7) -> list[Assertion]:
    palette_bad = 0
    lift_bad = 0
    for d in random_acyclic_digraphs(count, max_n, seed):
        base = exact_coloring(underlying(d))
        col = coloring.log_color_line_digraph(d, base)
        if col.palette != coloring.k_star(base.used):
            palette_bad += 1
        lifted = coloring.lift_coloring(d, col)
        if lifted.palette > 2 ** col.palette - 1 + 1:
            lift_bad += 1
    return [
        (
            "line coloring palette equals k*(base colors)",
            palette_bad == 0,
            f"{palette_bad} mismatches over {count} digraphs",
        ),
        (
            "bag-set lift palette within 2^t - 1 + 1",
            lift_bad == 0,
            f"{lift_bad} violations",
        ),
    ]


def recipe_odd_girth_lemma(
    count: int = 200, max_n: int = 12, seed: int = 99, iterate_depth: int = 3
) -> list[Assertion]:
    lift_bad = 0
    found = 0
    rng_seed = seed
    while found < count:
        for d in random_acyclic_digraphs(count, max_n, rng_seed):
            og = invariants.odd_girth(underlying(d))
            if og is math.inf:
                continue
            found += 1
            line, _ = constructors.line_digraph(d)
            if invariants.odd_girth(underlying(line)) < og + 2:
                lift_bad += 1
            if found >= count:
                break
        rng_seed += 1
    iter_bad = 0
    checked = 0
    for d in random_acyclic_digraphs(20, 6, seed + 1):
        cur = d
        for g in range(1, iterate_depth + 1):
            cur, _ = constructors.line_digraph(cur)
            checked += 1
            if invariants.odd_girth(underlying(cur)) < 2 * g + 1:
                iter_bad += 1
    return [
        (
            f"odd-girth grows by 2 through the line digraph ({count} samples)",
            lift_bad == 0,
            f"{lift_bad} violations",
        ),
        (
            f"iterated odd-girth >= 2g+1 ({checked} samples)",
            iter_bad == 0,
            f"{iter_bad} violations",
        ),
    ]


def chromatic_sandwich(d: AcyclicDigraph) -> tuple[int, int, bool]:
    """chi(G), chi(L) and whether log2(chi(G)) <= chi(L) <= k*(chi(G)), where
    G and L are the underlying graphs of ``d`` and of its line digraph."""
    chi_g, _ = invariants.chromatic_number(underlying(d))
    line, _ = constructors.line_digraph(d)
    chi_l, _ = invariants.chromatic_number(underlying(line))
    lo = math.log2(chi_g) if chi_g else 0.0
    return chi_g, chi_l, lo <= chi_l <= coloring.k_star(chi_g)


def recipe_chromatic_sandwich(
    count: int = 100, max_n: int = 10, seed: int = 31
) -> list[Assertion]:
    bad = sum(
        not chromatic_sandwich(d)[2]
        for d in random_acyclic_digraphs(count, max_n, seed)
    )
    return [
        (
            f"log2(chi) <= chi(line) <= k*(chi) on {count} digraphs",
            bad == 0,
            f"{bad} violations",
        )
    ]


def kab_promise(
    d: AcyclicDigraph, a: int, b: int
) -> tuple[list[Assertion], coloring.KabReport]:
    """The K_{a,b} pipeline's promise on one tournament subdigraph ``d``.

    The low side always fits in b colors, and the high side fits in a colors
    unless a complete bipartite witness is emitted.  If the line graph of
    ``d`` is K_{a,b}-free, the high side fits and the final palette is
    within k*(a + b).  The pipeline's coloring is proper by construction.
    """
    final, rep = coloring.color_kab_free(d, a, b)
    fits = rep.right_colors <= a
    out: list[Assertion] = [
        (
            f"low side within b = {b} colors",
            rep.left_colors <= b,
            f"{rep.left_colors} colors for {rep.left_size} vertices",
        ),
        (
            f"high side within a = {a} colors unless a K_{{{a},{b}}} witness is emitted",
            fits == (rep.witness is None),
            f"{rep.right_colors} colors, witness {rep.witness}",
        ),
    ]
    if coloring.is_kab_free(final.graph, a, b):  # the underlying line graph
        bound = coloring.k_star(a + b)
        out.append(
            (
                f"line graph is K_{{{a},{b}}}-free: palette within k*(a+b) = {bound}",
                fits and rep.palette <= bound,
                f"palette {rep.palette}",
            )
        )
    return out, rep


def recipe_kab(n: int = 9, a: int = 2, b: int = 2) -> list[Assertion]:
    return kab_promise(constructors.acyclic_tournament(n), a, b)[0]


def recipe_cycle_lemma(k_max: int = 8) -> list[Assertion]:
    return [
        (
            f"cycle lemma, k={k}: a directed {k - 2}-edge path refutes"
            + (", and only it" if k <= 5 else ""),
            aop.cycle_orientation_lemma_check(k),
            f"all {2 ** k} orientations",
        )
        for k in range(4, k_max + 1)
    ]


def recipe_gadget(gs: tuple[int, ...] = tuple(range(5, 22, 2))) -> list[Assertion]:
    out: list[Assertion] = []
    for g in gs:
        gadget = constructors.odd_girth_gadget(g)
        og = invariants.odd_girth(gadget)
        out.append((f"gadget({g}) odd-girth equals {g}", og == g, f"measured {og}"))
        verdict = aop.decide_aop(gadget)
        out.append(
            (
                f"gadget({g}) has no one-path orientation",
                verdict.status == "no_aop",
                f"{verdict.status} after {verdict.stats.nodes} nodes",
            )
        )
    return out


def recipe_girth5() -> list[Assertion]:
    g0 = constructors.brinkmann_graph()
    chi, _ = invariants.chromatic_number(g0)
    g0_girth = invariants.girth(g0)
    out = constructors.girth5_non_aop(g0)
    g = invariants.girth(out)
    uncovered = len(constructors.uncovered_seed_paths(g0, out))
    apex_degrees_ok = all(out.degree(v) == 2 for v in range(g0.n, out.n))
    verdict = aop.decide_aop(out)
    return [
        (
            "seed has chromatic number 4 and girth 5",
            chi == 4 and g0_girth == 5,
            f"chi {chi}, girth {g0_girth}",
        ),
        ("output girth is exactly 5", g == 5, f"measured {g}"),
        ("every seed 3-edge path lies on a 5-cycle", uncovered == 0, f"{uncovered} uncovered"),
        ("every added apex has degree 2", apex_degrees_ok, f"{out.n - g0.n} apexes"),
        (
            "output has no one-path orientation",
            verdict.status == "no_aop",
            f"{verdict.status} after {verdict.stats.nodes} nodes",
        ),
    ]


def recipe_zykov_aop(n: int = 4, g: int = 1) -> list[Assertion]:
    """The natural orientation of the g-th iterated line digraph of the
    oriented Zykov graph stays one-path, with odd-girth at least 2g + 3."""
    _, orientation = constructors.zykov(n)
    d = constructors.iterate_line_digraph(orientation.to_digraph(), g)
    und = underlying(d)
    og = invariants.odd_girth(und)
    return [
        (
            f"iterated line digraph of oriented Zykov({n}) stays one-path",
            aop.verify_aop(Orientation.build(und, d.arcs)).ok,
            f"{und.n} vertices",
        ),
        (f"odd-girth at least {2 * g + 3}", og >= 2 * g + 3, f"measured {og}"),
    ]


def recipe_g92_aop() -> list[Assertion]:
    """The one-path threshold of the pair shift graphs: G(8, 2) has a
    one-path orientation, with a witness that ``verify_aop`` accepts, and
    G(n, 2) for n = 9..12 has none."""
    out: list[Assertion] = []
    for n in range(8, 13):
        verdict = aop.decide_aop(constructors.shift_graph(n, 2))
        if n == 8:
            claim = "has a verified one-path orientation"
            ok = verdict.status == "has_aop" and aop.verify_aop(verdict.witness).ok
        else:
            claim = "has no one-path orientation"
            ok = verdict.status == "no_aop"
        detail = f"{verdict.status} after {verdict.stats.nodes} nodes"
        out.append((f"pair shift graph on {n} symbols {claim}", ok, detail))
    return out


RECIPES: dict[str, Callable[..., list[Assertion]]] = {
    "structure-obs": recipe_structure_obs,
    "log-color": recipe_log_color,
    "odd-girth-lemma": recipe_odd_girth_lemma,
    "chromatic-sandwich": recipe_chromatic_sandwich,
    "kab": recipe_kab,
    "cycle-lemma": recipe_cycle_lemma,
    "gadget": recipe_gadget,
    "girth5": recipe_girth5,
    "zykov-aop": recipe_zykov_aop,
    "g92-aop": recipe_g92_aop,
}

# The integer parameters of each recipe that ``shiftgraphs repro`` exposes as
# flags of the same name; a recipe not listed takes none.
RECIPE_FLAGS: dict[str, tuple[str, ...]] = {
    "kab": ("n", "a", "b"),
    "zykov-aop": ("n", "g"),
}
