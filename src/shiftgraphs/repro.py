"""Reproduction recipes: deterministic, seeded check suites binding the
constructors, invariants, coloring and orientation modules together.

Every recipe returns a list of (assertion, passed, detail) triples; the CLI
prints one line per assertion.  All randomness is seeded and fixed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, combinations, count, islice

from . import aop, coloring, constructors, invariants
from .core import AcyclicDigraph

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


def arcs_digest(ds: Iterable[AcyclicDigraph]) -> str:
    """Eight hex digits that pin a sample of digraphs, so a recipe's output
    changes with its inputs: the vertex counts and arcs as text, read as
    one base-256 number modulo the largest prime below 2^32 (a Rabin-Karp
    fingerprint)."""
    text = ";".join(f"{d.n}:{d.arcs}" for d in ds)
    return f"{int.from_bytes(text.encode(), 'big') % 4294967291:08x}"


def recipe_structure_obs() -> list[Assertion]:
    samples = list(random_acyclic_digraphs(500, 12, 2024))
    bad = 0
    for d in samples:
        line, bd = constructors.line_digraph(d)
        if constructors.structure_violations(line, bd):
            bad += 1
    return [
        (
            "bag structure clauses hold on 500 random digraphs",
            bad == 0,
            f"{bad} digraphs with violations, arcs {arcs_digest(samples)}",
        )
    ]


def recipe_log_color() -> list[Assertion]:
    palette_bad = 0
    lift_bad = 0
    samples = list(random_acyclic_digraphs(100, 10, 7))
    for d in samples:
        _, base = invariants.chromatic_number(d.underlying)
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
            f"{palette_bad} mismatches over 100 digraphs, arcs {arcs_digest(samples)}",
        ),
        (
            "bag-set lift palette within 2^t - 1 + 1",
            lift_bad == 0,
            f"{lift_bad} violations",
        ),
    ]


def recipe_odd_girth_lemma() -> list[Assertion]:
    samples = 200  # digraphs with an odd cycle, from seeded batches of 200
    batches = (random_acyclic_digraphs(samples, 12, seed) for seed in count(99))
    measured = ((d, invariants.odd_girth(d.underlying)) for d in chain.from_iterable(batches))
    odd = list(islice(((d, og) for d, og in measured if og is not math.inf), samples))
    lift_bad = sum(
        invariants.odd_girth(constructors.line_digraph(d)[0].underlying) < og + 2
        for d, og in odd
    )
    iter_bad = 0
    checked = 0
    bases = list(random_acyclic_digraphs(20, 6, 100))
    for d in bases:
        cur = d
        for g in range(1, 4):
            cur, _ = constructors.line_digraph(cur)
            checked += 1
            if invariants.odd_girth(cur.underlying) < 2 * g + 1:
                iter_bad += 1
    return [
        (
            f"odd-girth grows by 2 through the line digraph ({samples} samples)",
            lift_bad == 0,
            f"{lift_bad} violations, arcs {arcs_digest(d for d, _ in odd)}",
        ),
        (
            f"iterated odd-girth >= 2g+1 ({checked} samples)",
            iter_bad == 0,
            f"{iter_bad} violations, arcs {arcs_digest(bases)}",
        ),
    ]


def chromatic_sandwich(d: AcyclicDigraph) -> tuple[int, int, bool]:
    """chi(G), chi(L) and whether log2(chi(G)) <= chi(L) <= k*(chi(G)), where
    G and L are the underlying graphs of ``d`` and of its line digraph."""
    chi_g, _ = invariants.chromatic_number(d.underlying)
    line, _ = constructors.line_digraph(d)
    chi_l, _ = invariants.chromatic_number(line.underlying)
    lo = math.log2(chi_g) if chi_g else 0.0
    return chi_g, chi_l, lo <= chi_l <= coloring.k_star(chi_g)


def recipe_chromatic_sandwich() -> list[Assertion]:
    samples = list(random_acyclic_digraphs(100, 10, 31))
    bad = sum(not chromatic_sandwich(d)[2] for d in samples)
    return [
        (
            "log2(chi) <= chi(line) <= k*(chi) on 100 digraphs",
            bad == 0,
            f"{bad} violations, arcs {arcs_digest(samples)}",
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


def recipe_cycle_lemma() -> list[Assertion]:
    return [
        (
            f"cycle lemma, k={k}: a directed {k - 2}-edge path refutes"
            + (", and only it" if k <= 5 else ""),
            aop.cycle_orientation_lemma_check(k),
            f"all {2 ** k} orientations",
        )
        for k in range(4, 9)
    ]


def recipe_gadget() -> list[Assertion]:
    out: list[Assertion] = []
    for g in range(5, 22, 2):
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


def recipe_zykov_aop(n: int = 5, g: int = 1) -> list[Assertion]:
    """The natural orientation of the g-th iterated line digraph of the
    oriented Zykov graph stays one-path, with odd-girth at least 2g + 3."""
    d = constructors.iterate_line_digraph(constructors.zykov(n), g)
    und = d.underlying
    og = invariants.odd_girth(und)
    return [
        (
            f"iterated line digraph of oriented Zykov({n}) stays one-path",
            aop.verify_aop(d).ok,
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
