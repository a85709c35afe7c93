"""The benchmark's workloads: inputs, job lists and output checks.

A workload builds its inputs from the seed in ``setup`` and lists its jobs.
A pass runs the jobs in order, one child process at a time, each through
``launch.py``.  After the pass, outside the timed region, each job's
``check`` raises ``CheckFailed`` on a wrong result and otherwise returns a
fingerprint of the output; the harness requires the same fingerprint in every
pass of a run.  ``post`` jobs run once after the last pass, untimed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from shiftgraphs import constructors, core, repro


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # launcher mode ("cli" or "small-graphs") and its arguments
    check: Callable[[Path, Outcome], str]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], None]
    jobs: tuple[Job, ...]
    post: tuple[Job, ...] = ()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _k_star(c: int) -> int:
    """Smallest k >= 1 with C(k, floor(k/2)) >= c, and 0 for c = 0."""
    if c == 0:
        return 0
    k = 1
    while math.comb(k, k // 2) < c:
        k += 1
    return k


def _write_graph(path: Path, g) -> None:
    path.write_text(core.to_json(g) + "\n")


# --- search ------------------------------------------------------------------
#
# The instances keep their canonical labels and ignore the seed: the search
# follows the edge order, and one seeded relabeling of G(9,2) moved it from
# 105,695 to 759,611 nodes, which would make pass time depend on the seed.

SEARCH_LINE = re.compile(
    r"(has_aop|no_aop|timeout): (\d+) nodes, (\d+) cycle prunes, (\d+) double-path prunes, "
)
GIRTH5_BUDGET = 25_000


def _setup_search(seed: int, d: Path) -> None:
    _write_graph(d / "g82.json", constructors.shift_graph(8, 2))
    _write_graph(d / "g92.json", constructors.shift_graph(9, 2))
    _write_graph(d / "gadget11.json", constructors.odd_girth_gadget(11))
    _write_graph(d / "girth5.json", constructors.girth5_non_aop())


def _verdict(allowed: dict[str, int], witness: str | None = None):
    """Accept the verdicts in ``allowed``, each with its exit code.

    The fingerprint is the stats line without its timing, so node and prune
    counts must repeat exactly; they are recorded, not pinned.
    """

    def check(d: Path, out: Outcome) -> str:
        m = SEARCH_LINE.match(out.stdout)
        _expect(m is not None, f"unparsable output {out.stdout[:200]!r}")
        verdict = m.group(1)
        _expect(verdict in allowed, f"verdict {verdict}, expected one of {sorted(allowed)}")
        _expect(out.rc == allowed[verdict], f"exit code {out.rc} for verdict {verdict}")
        if witness is None:
            return m.group(0)
        return m.group(0) + _sha(d / witness)

    return check


def _verified(d: Path, out: Outcome) -> str:
    _expect(out.rc == 0 and out.stdout.startswith("verified:"), f"not verified: {out.stdout!r}")
    return out.stdout


SEARCH = Workload(
    name="search",
    setup=_setup_search,
    jobs=(
        Job("g82", ("cli", "aop", "decide", "--in", "g82.json", "--orient-out", "g82.orient.json"),
            _verdict({"has_aop": 0}, witness="g82.orient.json")),
        Job("g92", ("cli", "aop", "decide", "--in", "g92.json"), _verdict({"no_aop": 1})),
        Job("gadget11", ("cli", "aop", "decide", "--in", "gadget11.json"), _verdict({"no_aop": 1})),
        # The paper proves girth5 has no one-path orientation, so has_aop fails.
        Job("girth5", ("cli", "aop", "decide", "--in", "girth5.json", "--budget", str(GIRTH5_BUDGET)),
            _verdict({"timeout": 2, "no_aop": 1})),
    ),
    post=(
        Job("g82-witness", ("cli", "aop", "verify", "--in", "g82.json", "--orient", "g82.orient.json"),
            _verified),
    ),
)


# --- build -------------------------------------------------------------------
#
# sha256 of each canonical JSON output.  Equal graphs serialize to equal
# bytes, so any change here is a change of the output contract.

PINNED_SHA = {
    "z5.json": "974c408e1db907676892c2010f9e9f83f3298d59b811edabe3b51baf7c3ad510",
    "z5.orient.json": "5dcf6d058f3873eaf9406c350a12a489410cb9b3960a076832b6cb86a87808e9",
    "t60.json": "b2f0c208cead3541c93aa842623b9e5d2cfb30301bfd39bc667804080237cffc",
    "l1.json": "b8450e9a7f963ad7c769b8c40664ab13710a966bb3102a253496e672ccba4c0e",
    "l2.json": "fd51abc481199ccee257696cc6baa91dfcd8d958d433067160d170b15232bafe",
    "g30.json": "a0338fec63fea08abb02a00260c2e80425a8f110c0af234cdfb862d648e88eb1",
}
PINNED_ZYKOV_AOP = (
    "[PASS] iterated line digraph of oriented Zykov(5) stays one-path (762 vertices)\n"
    "[PASS] odd-girth at least 5 (measured 9)\n"
)
PINNED_CHECK_G30 = {
    "n": 435, "edges": 4060, "girth": 4, "odd_girth": 5, "omega": 2,
    "degeneracy": 14, "triangle_free": True,
}
KAB_N, KAB_DENSITY, KAB_A, KAB_B = 60, 0.5, 3, 3


def _setup_build(seed: int, d: Path) -> None:
    rng = random.Random(seed)
    arcs = [(u, v) for u, v in combinations(range(KAB_N), 2) if rng.random() < KAB_DENSITY]
    _write_graph(d / "t60sub.json", core.AcyclicDigraph.build(KAB_N, arcs))
    with open(d / "dags.jsonl", "w") as fh:
        for dag in repro.random_acyclic_digraphs(SMALL_COUNT, SMALL_MAX_N, seed, min_n=SMALL_MIN_N):
            fh.write(core.to_json(dag) + "\n")


def _pinned_files(*names: str):
    def check(d: Path, out: Outcome) -> str:
        _expect(out.rc == 0, f"exit code {out.rc}")
        shas = [_sha(d / name) for name in names]
        for name, sha in zip(names, shas):
            _expect(sha == PINNED_SHA[name], f"{name} sha256 {sha} differs from the pinned value")
        return " ".join(shas)

    return check


def _pinned_stdout(expected: str):
    def check(d: Path, out: Outcome) -> str:
        _expect(out.rc == 0 and out.stdout == expected, f"exit {out.rc}, output {out.stdout!r}")
        return out.stdout

    return check


def _check_report(d: Path, out: Outcome) -> str:
    _expect(out.rc == 0, f"exit code {out.rc}")
    _expect(json.loads(out.stdout) == PINNED_CHECK_G30, f"report {out.stdout!r}")
    return out.stdout


def _check_kabfree(d: Path, out: Outcome) -> str:
    """Check the K_{a,b} pipeline report against its input, without the library.

    Line vertex i is the i-th arc of the input in sorted order (the input is a
    subdigraph of the tournament, so its topological order is the identity);
    two line vertices are adjacent when the head of one is the tail of the
    other.
    """
    _expect(out.rc == 0, f"exit code {out.rc}")
    rep = json.loads(out.stdout)
    graph = json.loads((d / "t60sub.json").read_text())
    _expect(rep["left_size"] + rep["right_size"] == graph["n"], "sides do not cover the vertices")
    _expect(rep["left_colors"] <= KAB_B, f"low side uses {rep['left_colors']} > b colors")
    _expect(rep["k_star"] == _k_star(rep["left_colors"] + rep["right_colors"]), "k* mismatch")
    _expect(rep["palette"] == rep["k_star"], "final palette is not k*")
    wit = rep["witness"]
    _expect((wit is not None) == (rep["right_colors"] > KAB_A), "witness presence mismatch")
    if wit is not None:
        arcs = sorted(tuple(a) for a in graph["edges"])

        def adjacent(x: int, y: int) -> bool:
            return arcs[x][1] == arcs[y][0] or arcs[y][1] == arcs[x][0]

        left, right = wit["left"], wit["right"]
        _expect(len(left) == KAB_A and len(right) == KAB_B, "witness side sizes")
        _expect(all(adjacent(x, y) for x in left for y in right), "witness sides not joined")
        for side in (left, right):
            _expect(not any(adjacent(x, y) for x, y in combinations(side, 2)), "witness side not independent")
    return out.stdout


# The build workload's last job runs the library on a seeded stream of tiny
# DAGs in one child: per-call overhead, at the opposite size extreme from the
# CLI jobs, and the only real chromatic-number and coloring work.  It is a job
# of build rather than a workload of its own so that each of the two
# workloads gets a longer run in the same total benchmark time.

SMALL_COUNT, SMALL_MIN_N, SMALL_MAX_N = 1000, 4, 12


def _check_small(d: Path, out: Outcome) -> str:
    """The paper's relations, per DAG: bag clauses, the chromatic sandwich
    log2 chi <= chi(L) <= k*(chi), palette k* for the log-coloring, a lift
    within 2^t colors, and odd-girth growing by at least 2 (None = infinite)."""
    _expect(out.rc == 0, f"exit code {out.rc}")
    path = d / "results.json"
    records = json.loads(path.read_text())
    _expect(len(records) == SMALL_COUNT, f"{len(records)} records for {SMALL_COUNT} DAGs")
    for i, (_n, _m, violations, chi, used, chi_l, palette, lift, og, og_l) in enumerate(records):
        og = math.inf if og is None else og
        og_l = math.inf if og_l is None else og_l
        _expect(violations == 0, f"DAG {i}: {violations} bag-clause violations")
        _expect(used == chi, f"DAG {i}: exact coloring uses {used} colors, chi {chi}")
        _expect(math.log2(chi) <= chi_l <= _k_star(chi), f"DAG {i}: sandwich fails, chi {chi}, chi(L) {chi_l}")
        _expect(palette == _k_star(chi), f"DAG {i}: log-coloring palette {palette}, k* {_k_star(chi)}")
        _expect(lift <= 2 ** palette, f"DAG {i}: lift palette {lift} > 2^{palette}")
        _expect(og_l >= og + 2, f"DAG {i}: odd-girth {og} -> {og_l}")
    return _sha(path)


BUILD = Workload(
    name="build",
    setup=_setup_build,
    jobs=(
        Job("zykov", ("cli", "gen", "zykov", "--n", "5", "-o", "z5.json", "--orient-out", "z5.orient.json"),
            _pinned_files("z5.json", "z5.orient.json")),
        Job("zykov-verify", ("cli", "aop", "verify", "--in", "z5.json", "--orient", "z5.orient.json"),
            _verified),
        Job("zykov-aop", ("cli", "repro", "zykov-aop", "--n", "5", "--g", "1"),
            _pinned_stdout(PINNED_ZYKOV_AOP)),
        Job("tournament", ("cli", "gen", "tournament", "--n", "60", "-o", "t60.json"),
            _pinned_files("t60.json")),
        Job("line1", ("cli", "derive", "line", "--in", "t60.json", "-o", "l1.json"),
            _pinned_files("l1.json")),
        Job("line2", ("cli", "derive", "line", "--in", "l1.json", "-o", "l2.json"),
            _pinned_files("l2.json")),
        Job("shift", ("cli", "gen", "shift", "--n", "30", "-o", "g30.json"),
            _pinned_files("g30.json")),
        Job("check", ("cli", "check", "--in", "g30.json", "--json"), _check_report),
        Job("kabfree", ("cli", "color", "kabfree", "--in", "t60sub.json",
                        "--a", str(KAB_A), "--b", str(KAB_B), "--json"), _check_kabfree),
        Job("dags", ("small-graphs", "dags.jsonl", "results.json"), _check_small),
    ),
)


WORKLOADS = {w.name: w for w in (SEARCH, BUILD)}
