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
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    InternalInvariantError,
    UndirectedGraph,
    _Record,
    biconnected_blocks,
    path_masks,
)

DEFAULT_NODE_BUDGET = 10**7


class VerifyResult(_Record):
    _fields = ("ok", "pair", "paths")
    _defaults = (None, None)


class SearchStats(_Record):
    """Counters of one search; unlike the other records, mutable and unhashable."""

    _fields = (
        "nodes",
        "prunes_cycle",
        "prunes_double_path",
        "forced",  # arcs assigned by unit propagation
        "prunes_clause",  # conflicts on a cycle-lemma clause
        "seconds",
    )
    _defaults = (0, 0, 0, 0, 0, 0.0)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class AopVerdict(_Record):
    _fields = ("status", "witness", "stats")  # status: "has_aop" | "no_aop" | "timeout"


def verify_aop(d: AcyclicDigraph) -> VerifyResult:
    """Check an acyclic orientation for path uniqueness.

    On failure the result carries the first vertex pair (u, v) with two
    distinct directed paths between them, and the first two such paths.
    """
    one, many = path_masks(d)
    # The least source doubled into each target; their minimum is the first pair.
    doubled = [((mask & -mask).bit_length() - 1, v) for v, mask in enumerate(many) if mask]
    if not doubled:
        return VerifyResult(True)
    u, v = min(doubled)
    return VerifyResult(False, (u, v), _two_paths(d.out_adjacency, u, v, one[v]))


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
        self._log: list[tuple[int, int, int, int]] = []  # (u, v, src, dst) per arc

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
        for a in tails:
            desc[a] |= dst
        for b in _bits(dst):
            anc[b] |= src
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u
        self._log.append((u, v, src, dst))
        return None

    def undo(self, size: int) -> None:
        """Remove the most recently inserted arcs until ``size`` remain."""
        log, out, inn, desc, anc = self._log, self.out, self.inn, self.desc, self.anc
        while len(log) > size:
            u, v, src, dst = log.pop()
            out[u] ^= 1 << v
            inn[v] ^= 1 << u
            # add_arc only inserts when no tail already reached a head, so the
            # bits it set were all clear before.
            for a in _bits(src):
                desc[a] ^= dst
            for b in _bits(dst):
                anc[b] ^= src


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def decide_aop(g: UndirectedGraph, max_nodes: int = DEFAULT_NODE_BUDGET) -> AopVerdict:
    """Search for a one-path acyclic orientation, one block at a time.

    The property is block-local: two distinct s -> t paths part and meet
    again on a cycle, and a cycle lies inside one biconnected block.  So a
    bridge takes any direction, each other block is decided on its own by
    ``_search_block`` (branching plus cycle-lemma propagation), and the
    blocks' orientations join into the witness, which ``verify_aop`` checks.
    ``stats.nodes`` counts decisions, ``stats.forced`` propagated arcs.  The
    node budget is shared by the blocks; the verdict is "timeout" once it is
    exhausted.
    """
    stats = SearchStats()
    start = time.monotonic()
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
        edges = [(local[g.edges[i][0]], local[g.edges[i][1]]) for i in block]
        status, found = _search_block(len(ends), edges, stats, max_nodes)
        if found is None:
            break
        for i, forward in zip(block, found):
            if not forward:
                arcs[i] = arcs[i][::-1]
    stats.seconds = time.monotonic() - start
    if status != "has_aop":
        return AopVerdict(status, None, stats)
    try:
        witness = AcyclicDigraph.build(g.n, arcs, g.labels)
    except DirectedCycleError as exc:
        raise InternalInvariantError("search produced a cyclic witness") from exc
    if not verify_aop(witness).ok:
        raise InternalInvariantError("search produced a non-verifying witness")
    return AopVerdict("has_aop", witness, stats)


def _search_block(
    n: int, edges: list[tuple[int, int]], stats: SearchStats, max_nodes: int
) -> tuple[str, list[bool] | None]:
    """DPLL over the edge directions of one block on vertices 0..n-1.

    ``edges`` are sorted (u, v) pairs with u < v.  A found orientation comes
    back as one flag per edge: whether it points from u to v.

    Edges are ranked in decreasing endpoint-degree-sum order (ties by the
    canonical edge order).  The next decision is the first unset edge whose
    two ends both already carry an assigned arc, else the first with one
    such end, else the first unset edge: the orientation grows out of what
    is already fixed, where its conflicts surface soonest.  Each decision
    tries forward first; the first decided edge stays forward, since
    reversing every edge preserves one-pathness.  Each assigned arc,
    decided or forced, enters ``OnePathKernel``, the exact check, and then
    unit-propagates the cycle lemma's clauses through it: no window of
    k - 2 edges on a k-cycle, k <= 5, is a directed path.  Backtracking
    pops the kernel's log of assigned arcs back to the decision, undoing
    its decided and forced arcs together.
    """
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
            # one forces that one against it.  Each rule is stated for u -> v
            # and runs again on the mirror, where v -> u is read with every
            # arc reversed (out and inn swapped) and the forced arc flipped
            # back.  The queue may get an arc whose reverse is assigned:
            # popping it reports the conflict.
            sides = ((u, v, out, inn, 1), (v, u, inn, out, -1))
            for p, q, fwd, bwd, way in sides:
                # Forbid x -> p: window x -> p -> q on a 4-cycle, or on a
                # 5-cycle y -> x -> p -> q or x -> p -> q -> a, with y -> x or
                # q -> a assigned.
                free = adj[p] & ~fwd[p]
                for x in _bits(free) if free else ():
                    if adj[x] & adj[q] & ~(1 << p) or bwd[x] & two[q] or fwd[q] & two[x]:
                        queue.append((p, x)[::way])
            for p, q, fwd, bwd, way in sides:
                for a in _bits(fwd[q]) if fwd[q] else ():  # forbid a -> b in p -> q -> a -> b
                    heads = adj[a] & ~bwd[a] & two[p]
                    for b in _bits(heads) if heads else ():
                        queue.append((b, a)[::way])
        return True

    order = sorted(edges, key=lambda e: (-(adj[e[0]].bit_count() + adj[e[1]].bit_count()), e))
    # One entry per open decision: its position in ``order``, the number of
    # arcs assigned before it, and whether the backward branch is still untried.
    levels: list[tuple[int, int, bool]] = []
    ok = True
    while True:
        if ok:
            # The first unset edge with the most ends (2, 1, 0) on assigned arcs.
            at = [o | i for o, i in zip(out, inn)]  # neighbours by an assigned arc
            pos, best = -1, -1
            for i, (u, v) in enumerate(order):
                if at[u] >> v & 1:  # already set
                    continue
                ends = bool(at[u]) + bool(at[v])
                if ends > best:
                    pos, best = i, ends
                    if ends == 2:
                        break
            if pos < 0:
                return "has_aop", [bool(out[u] >> v & 1) for u, v in edges]
            arc = order[pos]
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
        if stats.nodes >= max_nodes:
            return "timeout", None
        stats.nodes += 1
        ok = assign(arc)


def cycle_orientation_lemma_check(k: int) -> bool:
    """Exhaustively test the paper's cycle lemma on the orientations of C_k.

    Lemma: an orientation with k-2 cyclically consecutive edges pointing the
    same way round the cycle (a directed path of k-2 edges) is cyclic or
    fails ``verify_aop``.  For k <= 5 the converse holds too, so there the
    lemma is exact.
    """
    if k < 4:
        raise GraphError("cycle length must be at least 4")
    # ring[i]: edge i -- i+1 (mod k) points i -> i+1.
    for ring in product((True, False), repeat=k):
        arcs = [(i, (i + 1) % k) if fwd else ((i + 1) % k, i) for i, fwd in enumerate(ring)]
        window = any(len({ring[(s + j) % k] for j in range(k - 2)}) == 1 for s in range(k))
        try:
            fails = not verify_aop(AcyclicDigraph.build(k, arcs)).ok
        except DirectedCycleError:
            fails = True
        if (window and not fails) or (k <= 5 and fails and not window):
            return False
    return True
