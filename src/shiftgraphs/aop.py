"""Acyclic one-path orientations: verification and exhaustive decision.

A graph has the one-path property if it can be oriented acyclically with at
most one directed path between any ordered vertex pair.  ``verify_aop``
checks a given total orientation; ``decide_aop`` searches over orientations
with monotone pruning (a directed cycle or a doubled path in a partial
orientation survives in every extension).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

from .core import (
    EdgeDir,
    GraphError,
    InternalInvariantError,
    Orientation,
    UndirectedGraph,
    path_masks,
    topological_order,
)

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    cycle: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    paths: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass
class SearchStats:
    nodes: int = 0
    prunes_cycle: int = 0
    prunes_double_path: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class AopVerdict:
    status: str  # "has_aop" | "no_aop" | "timeout"
    witness: Orientation | None
    stats: SearchStats


def verify_aop(o: Orientation) -> VerifyResult:
    """Check a total orientation for acyclicity and path uniqueness.

    On failure the result carries either a directed cycle or the first vertex
    pair (u, v) with two distinct directed paths between them.
    """
    if not o.total:
        raise GraphError("orientation is not total")
    arcs = o.arcs()
    order, cycle = topological_order(o.base.n, arcs)
    if cycle is not None:
        return VerifyResult(False, cycle=tuple(cycle))
    one, many = path_masks(o.base.n, arcs, order)
    # The least source doubled into each target; their minimum is the first pair.
    doubled = [((mask & -mask).bit_length() - 1, v) for v, mask in enumerate(many) if mask]
    if not doubled:
        return VerifyResult(True)
    u, v = min(doubled)
    out: list[list[int]] = [[] for _ in range(o.base.n)]
    for a, b in arcs:
        out[a].append(b)
    return VerifyResult(False, pair=(u, v), paths=_two_paths(out, u, v, one[v]))


def _two_paths(
    out: list[list[int]], s: int, t: int, reach_t: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First two directed s -> t paths in lexicographic order; the search
    enters only vertices in ``reach_t`` (those with a path to t)."""
    found: list[tuple[int, ...]] = []
    path = [s]
    branches = [iter(sorted(out[s]))]
    while branches:
        w = next(branches[-1], None)
        if w is None:
            branches.pop()
            path.pop()
        elif w == t:
            found.append((*path, t))
            if len(found) == 2:
                return found[0], found[1]
        elif reach_t >> w & 1:
            path.append(w)
            branches.append(iter(sorted(out[w])))
    raise InternalInvariantError("saturated count disagreed with enumeration")


class OnePathKernel:
    """Reachability of a growing one-path partial orientation, with undo.

    ``desc[v]`` / ``anc[v]`` mask the vertices reachable from / reaching v.
    An arc that ``add_arc`` refuses leaves the state unchanged.
    """

    def __init__(self, n: int):
        self.desc = [0] * n
        self.anc = [0] * n
        self._log: list[tuple[list[int], int, list[int], int]] = []

    def add_arc(self, u: int, v: int) -> str | None:
        """Insert u -> v; return "cycle" or "double" instead if it violates."""
        desc, anc = self.desc, self.anc
        dst = desc[v] | (1 << v)
        if dst >> u & 1:
            return "cycle"
        # Every new path runs a -> u -> v -> b with a in src and b in dst, and
        # is the only new one for its pair because the orientation is still
        # one-path; so a path doubles iff some such pair was already joined.
        src = anc[u] | (1 << u)
        tails = _bits(src)
        for a in tails:
            if desc[a] & dst:
                return "double"
        heads = _bits(dst)
        for a in tails:
            desc[a] |= dst
        for b in heads:
            anc[b] |= src
        self._log.append((tails, dst, heads, src))
        return None

    def undo(self) -> None:
        """Remove the most recently inserted arc."""
        tails, dst, heads, src = self._log.pop()
        desc, anc = self.desc, self.anc
        # add_arc only inserts when no tail already reached a head, so the
        # bits it set were all clear before.
        for a in tails:
            desc[a] ^= dst
        for b in heads:
            anc[b] ^= src


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def decide_aop(
    g: UndirectedGraph,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
) -> AopVerdict:
    """Backtracking search for a one-path acyclic orientation.

    Edges are branched in decreasing endpoint-degree-sum order (ties by the
    canonical edge order); the first branched edge is fixed forward, since
    reversing every edge preserves both pruning conditions.  The verdict is
    "timeout" once the node or time budget is exhausted.
    """
    stats = SearchStats()
    start = time.monotonic()
    m = len(g.edges)
    if _find_triangle(g) is not None:
        stats.seconds = time.monotonic() - start
        return AopVerdict("no_aop", None, stats)

    order = sorted(
        range(m),
        key=lambda i: (-(g.degree(g.edges[i][0]) + g.degree(g.edges[i][1])), g.edges[i]),
    )
    # dirs[i] is the last direction tried for edge i; the edges order[:depth]
    # are oriented by dirs and their arcs are in the kernel.
    dirs: list[EdgeDir] = [EdgeDir.UNSET] * m
    kernel = OnePathKernel(g.n)
    depth = 0
    status = "no_aop"
    while depth < m:
        i = order[depth]
        d = dirs[i]
        if d is EdgeDir.BACKWARD or (depth == 0 and d is EdgeDir.FORWARD):
            dirs[i] = EdgeDir.UNSET
            if depth == 0:
                break
            depth -= 1
            kernel.undo()
            continue
        if stats.nodes >= max_nodes or (
            time_limit is not None and time.monotonic() - start > time_limit
        ):
            status = "timeout"
            break
        d = dirs[i] = EdgeDir.FORWARD if d is EdgeDir.UNSET else EdgeDir.BACKWARD
        stats.nodes += 1
        u, v = g.edges[i]
        bad = kernel.add_arc(u, v) if d is EdgeDir.FORWARD else kernel.add_arc(v, u)
        if bad == "cycle":
            stats.prunes_cycle += 1
        elif bad == "double":
            stats.prunes_double_path += 1
        else:
            depth += 1
    stats.seconds = time.monotonic() - start
    if depth < m:
        return AopVerdict(status, None, stats)
    witness = Orientation(g, tuple(dirs))
    if not verify_aop(witness).ok:
        raise InternalInvariantError("search produced a non-verifying witness")
    return AopVerdict("has_aop", witness, stats)


def _find_triangle(g: UndirectedGraph) -> tuple[int, int, int] | None:
    adj = g.adjacency_sets
    for u, v in g.edges:
        common = adj[u] & adj[v]
        if common:
            return (u, v, min(common))
    return None


def brute_force_aop(g: UndirectedGraph) -> Orientation | None:
    """Oracle: try all 2^|E| orientations, return the first verifying one."""
    m = len(g.edges)
    for bits in product((EdgeDir.FORWARD, EdgeDir.BACKWARD), repeat=m):
        o = Orientation(g, bits)
        if verify_aop(o).ok:
            return o
    return None


def cycle_orientation_lemma_check(k: int) -> bool:
    """Exhaustively test the paper's cycle lemma on the orientations of C_k.

    Lemma: an orientation with k-2 cyclically consecutive edges pointing the
    same way round the cycle (a directed path of k-2 edges) fails
    ``verify_aop``.  For k <= 5 the converse holds too, so there the lemma
    is exact.
    """
    if k < 4:
        raise GraphError("cycle length must be at least 4")
    g = UndirectedGraph.build(k, [(i, (i + 1) % k) for i in range(k)])
    # ring[i]: edge i -- i+1 (mod k) points i -> i+1.
    for ring in product((True, False), repeat=k):
        o = Orientation.build(
            g, [(i, (i + 1) % k) if fwd else ((i + 1) % k, i) for i, fwd in enumerate(ring)]
        )
        window = any(len({ring[(s + j) % k] for j in range(k - 2)}) == 1 for s in range(k))
        fails = not verify_aop(o).ok
        if (window and not fails) or (k <= 5 and fails and not window):
            return False
    return True
