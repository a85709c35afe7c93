"""Acyclic one-path orientations: verification and exhaustive decision.

A graph has the one-path property if it can be oriented acyclically with at
most one directed path between any ordered vertex pair.  ``verify_aop``
checks a given orientation.  ``decide_aop`` splits the graph into its
biconnected blocks, since the property is block-local, and decides each
block by DPLL (Davis, Logemann and Loveland, 1962) over the edge directions.
Two things prune a partial orientation:

- ``OnePathKernel``, the exact check: a directed cycle or a doubled path in
  a partial orientation survives in every extension;
- unit propagation over the paper's cycle lemma for k <= 5, checked by
  ``cycle_orientation_lemma_check``: no k - 2 consecutive edges of a k-cycle
  form a directed path.  A triangle refutes at once; on a 4-cycle the middle
  of every 2-edge path is a source or a sink; on a 5-cycle no 3-edge window
  is directed.  The clauses are found from each newly assigned arc, through
  the 4- and 5-cycles that pass it, not kept in a list.
"""

from __future__ import annotations

import time
from itertools import product

from .core import (
    DirectedCycleError,
    GraphError,
    InternalInvariantError,
    Orientation,
    UndirectedGraph,
    _Record,
    biconnected_blocks,
    path_masks,
)

DEFAULT_NODE_BUDGET = 10**7


class VerifyResult(_Record):
    _fields = ("ok", "cycle", "pair", "paths")

    def __init__(
        self,
        ok: bool,
        cycle: tuple[int, ...] | None = None,
        pair: tuple[int, int] | None = None,
        paths: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "paths", paths)


class SearchStats(_Record):
    """Counters of one search; unlike the other records, mutable and unhashable."""

    _fields = ("nodes", "prunes_cycle", "prunes_double_path", "forced", "prunes_clause", "seconds")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        nodes: int = 0,
        prunes_cycle: int = 0,
        prunes_double_path: int = 0,
        forced: int = 0,  # arcs assigned by unit propagation
        prunes_clause: int = 0,  # conflicts on a cycle-lemma clause
        seconds: float = 0.0,
    ) -> None:
        self.nodes = nodes
        self.prunes_cycle = prunes_cycle
        self.prunes_double_path = prunes_double_path
        self.forced = forced
        self.prunes_clause = prunes_clause
        self.seconds = seconds


class AopVerdict(_Record):
    _fields = ("status", "witness", "stats")

    def __init__(
        self,
        status: str,  # "has_aop" | "no_aop" | "timeout"
        witness: Orientation | None,
        stats: SearchStats,
    ) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "stats", stats)


def verify_aop(o: Orientation) -> VerifyResult:
    """Check an orientation for acyclicity and path uniqueness.

    On failure the result carries either a directed cycle or the first vertex
    pair (u, v) with two distinct directed paths between them.
    """
    try:
        d = o.to_digraph()
    except DirectedCycleError as exc:
        return VerifyResult(False, cycle=tuple(exc.cycle))
    one, many = path_masks(d)
    # The least source doubled into each target; their minimum is the first pair.
    doubled = [((mask & -mask).bit_length() - 1, v) for v, mask in enumerate(many) if mask]
    if not doubled:
        return VerifyResult(True)
    u, v = min(doubled)
    return VerifyResult(False, pair=(u, v), paths=_two_paths(d.out_adjacency, u, v, one[v]))


def _two_paths(
    out: tuple[tuple[int, ...], ...], s: int, t: int, reach_t: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First two directed s -> t paths in lexicographic order (``out`` is
    sorted); the search enters only vertices in ``reach_t`` (those with a
    path to t)."""
    found: list[tuple[int, ...]] = []
    path = [s]
    branches = [iter(out[s])]
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
            branches.append(iter(out[w]))
    raise InternalInvariantError("saturated count disagreed with enumeration")


class OnePathKernel:
    """A growing one-path partial orientation and its reachability, with undo.

    ``out[x]`` / ``inn[x]`` mask the inserted arcs leaving / entering x, and
    ``desc[v]`` / ``anc[v]`` the vertices reachable from / reaching v.  An
    arc that ``add_arc`` refuses leaves the state unchanged.  ``len(kernel)``
    is the number of inserted arcs, which ``undo`` takes back to.
    """

    def __init__(self, n: int):
        self.out = [0] * n
        self.inn = [0] * n
        self.desc = [0] * n
        self.anc = [0] * n
        self._log: list[tuple[int, int, list[int], int, list[int], int]] = []

    def __len__(self) -> int:
        return len(self._log)

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
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u
        self._log.append((u, v, tails, dst, heads, src))
        return None

    def undo(self, size: int) -> None:
        """Remove the most recently inserted arcs until ``size`` remain."""
        log, out, inn, desc, anc = self._log, self.out, self.inn, self.desc, self.anc
        while len(log) > size:
            u, v, tails, dst, heads, src = log.pop()
            out[u] ^= 1 << v
            inn[v] ^= 1 << u
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
    """Search for a one-path acyclic orientation, one block at a time.

    The property is block-local: two distinct s -> t paths part and meet
    again on a cycle, and a cycle lies inside one biconnected block.  So a
    bridge takes any direction, each other block is decided on its own by
    ``_search_block`` (branching plus cycle-lemma propagation), and the
    blocks' orientations join into the witness, which ``verify_aop`` checks.
    ``stats.nodes`` counts decisions, ``stats.forced`` propagated arcs.  The
    node budget is shared by the blocks; the verdict is "timeout" once it or
    the time limit is exhausted.
    """
    stats = SearchStats()
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    arcs = list(g.edges)
    status = "has_aop"
    for block in biconnected_blocks(g):
        if len(block) == 1:
            continue
        block.sort()
        # Relabel the block densely; the map keeps vertex order, so each
        # edge keeps its orientation and the block's edges stay sorted.
        ends = sorted({x for i in block for x in g.edges[i]})
        local = {x: j for j, x in enumerate(ends)}
        sub = UndirectedGraph(
            len(ends), tuple((local[g.edges[i][0]], local[g.edges[i][1]]) for i in block)
        )
        status, found = _search_block(sub, stats, max_nodes, deadline)
        if found is None:
            break
        for i, forward in zip(block, found):
            if not forward:
                arcs[i] = arcs[i][::-1]
    stats.seconds = time.monotonic() - start
    if status != "has_aop":
        return AopVerdict(status, None, stats)
    witness = Orientation(g, tuple(arcs))
    if not verify_aop(witness).ok:
        raise InternalInvariantError("search produced a non-verifying witness")
    return AopVerdict("has_aop", witness, stats)


def _search_block(
    g: UndirectedGraph, stats: SearchStats, max_nodes: int, deadline: float | None
) -> tuple[str, list[bool] | None]:
    """DPLL over the edge directions of one block.

    A found orientation comes back as one flag per edge of ``g``: whether
    the edge points from its min endpoint to its max.

    Edges are decided in decreasing endpoint-degree-sum order (ties by the
    canonical edge order), forward first; the first decided edge stays
    forward, since reversing every edge preserves one-pathness.  Each
    assigned arc, decided or forced, enters ``OnePathKernel``, the exact
    check, and then unit-propagates the cycle lemma's clauses through it:
    no window of k - 2 edges on a k-cycle, k <= 5, is a directed path.
    Backtracking pops the kernel's log of assigned arcs back to the
    decision, undoing its decided and forced arcs together.
    """
    n, edges = g.n, g.edges
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # k = 3: an edge of a triangle is a directed 1-edge window either way.
    if any(adj[u] & adj[v] for u, v in edges):
        return "no_aop", None
    # The graph is now triangle-free, so a 2-edge path a - w - b lies on a
    # 4-cycle iff a and b have a common neighbour besides w, and a 3-edge
    # path from a to b lies on a 5-cycle iff b is in two[a], the vertices
    # that share a neighbour with a.
    two = [0] * n
    for a in range(n):
        for w in _bits(adj[a]):
            two[a] |= adj[w]
    kernel = OnePathKernel(n)
    out, inn = kernel.out, kernel.inn  # the assigned arcs leaving / entering each vertex

    def assign(arc: tuple[int, int]) -> bool:
        """Assign ``arc`` and the arcs it forces; False on a conflict."""
        queue = [arc]
        while queue:
            u, v = queue.pop()
            if out[u] >> v & 1:
                continue
            if inn[u] >> v & 1:
                stats.prunes_clause += 1
                return False
            bad = kernel.add_arc(u, v)
            if bad == "cycle":
                stats.prunes_cycle += 1
                return False
            if bad == "double":
                stats.prunes_double_path += 1
                return False
            if (u, v) != arc:
                stats.forced += 1
            # A window through u -> v whose other edges all point its way but
            # one forces that one against it.  The queue may get an arc whose
            # reverse is assigned: popping it reports the conflict.
            bu, bv = 1 << u, 1 << v
            for x in _bits(adj[u] & ~out[u]):
                # Forbid x -> u: window x -> u -> v on a 4-cycle, or on a
                # 5-cycle y -> x -> u -> v or x -> u -> v -> a, with y -> x or
                # v -> a assigned.
                if adj[x] & adj[v] & ~bu or inn[x] & two[v] or out[v] & two[x]:
                    queue.append((u, x))
            for b in _bits(adj[v] & ~inn[v]):
                # Forbid v -> b: window u -> v -> b on a 4-cycle, or on a
                # 5-cycle u -> v -> b -> y or x -> u -> v -> b, with b -> y or
                # x -> u assigned.
                if adj[b] & adj[u] & ~bv or out[b] & two[u] or inn[u] & two[b]:
                    queue.append((b, v))
            for a in _bits(out[v]):  # forbid a -> b in u -> v -> a -> b
                for b in _bits(adj[a] & ~inn[a] & two[u]):
                    queue.append((b, a))
            for c in _bits(inn[u]):  # forbid b -> c in b -> c -> u -> v
                for b in _bits(adj[c] & ~out[c] & two[v]):
                    queue.append((c, b))
        return True

    order = sorted(edges, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
    # One entry per open decision: its position in ``order``, the number of
    # arcs assigned before it, and whether the backward branch is still untried.
    levels: list[tuple[int, int, bool]] = []
    pos = 0
    ok = True
    while True:
        if ok:
            for pos in range(pos, len(order)):  # the first edge still unset
                u, v = arc = order[pos]
                if not (out[u] | inn[u]) >> v & 1:
                    break
            else:
                return "has_aop", [bool(out[u] >> v & 1) for u, v in edges]
            levels.append((pos, len(kernel), True))
        else:
            while levels:
                pos, size, fresh = levels.pop()
                kernel.undo(size)
                if fresh and levels:  # the first decision stays forward
                    break
            else:
                return "no_aop", None
            arc = order[pos][::-1]
            levels.append((pos, size, False))
        if stats.nodes >= max_nodes or (deadline is not None and time.monotonic() > deadline):
            return "timeout", None
        stats.nodes += 1
        ok = assign(arc)


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
