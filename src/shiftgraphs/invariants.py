"""Structural property checkers: girth, odd-girth, clique number, degeneracy
and exact chromatic number.

All checkers are deterministic; ties break toward the smallest vertex id.
Girth of a forest is reported as ``math.inf`` (not 0) so that every lower
bound comparison stays monotone; the CLI prints it as "inf".
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator

from .core import Coloring, SizeCapExceeded, UndirectedGraph, _Record


def girth(g: UndirectedGraph) -> int | float:
    """Length of a shortest cycle; ``math.inf`` for a forest."""
    return _short_cycle(g, odd=False)


def odd_girth(g: UndirectedGraph) -> int | float:
    """Length of a shortest odd cycle; ``math.inf`` iff the graph is bipartite."""
    return _short_cycle(g, odd=True)


def _short_cycle(g: UndirectedGraph, odd: bool) -> int | float:
    """Shortest cycle (``odd=False``) or shortest odd cycle, by cut-off BFS.

    One O(n + m) pass 2-colors every component; only components with a
    cycle (for girth) or an odd cycle (for odd-girth) are searched.  Then a
    BFS runs from each of their vertices of degree at least 2 and stops once
    it pops a vertex u with 2*dist[u] + 1 >= best (Itai & Rodeh, SIAM J.
    Comput. 1978).  Once a root's BFS ends the root is deleted: later BFSs
    neither enter it nor count an edge to it.  A shortest (odd) cycle C
    keeps all its vertices until the BFS from the first of them to be a
    root; there C is still a shortest (odd) cycle of the graph left, so it
    is found as below, and every candidate that a BFS counts closes a walk
    of the graph left, so of g.

    Girth: while u is scanned, a neighbor v that is already reached with
    dist[v] >= dist[u] is not u's BFS parent, so the edge (u, v) and the two
    tree paths from the root close a walk of length dist[u] + dist[v] + 1
    that contains a cycle no longer than that; every candidate is at least
    the girth.  (A reached neighbor one level up that is not the parent was
    counted when it was scanned.)  Let the root r lie on a shortest cycle C
    of length c.  C is isometric, since a shortcut would close a shorter
    cycle, so each vertex of C is reached at its C-distance from r.  If
    c = 2k + 1, the two depth-k vertices of C are adjacent and the edge is
    counted when the first of them is scanned.  If c = 2k, the antipode x
    has two depth-(k-1) neighbors on C; the one that is not its parent is
    scanned after x is reached and counts the edge.  Both happen at depth
    < c/2, before the cut-off fires while best > c, and nothing scanned
    after the cut-off could produce a candidate below best.

    Odd-girth: only an edge with dist[u] == dist[v] counts.  It closes an
    odd walk of length 2*dist[u] + 1, which contains an odd cycle no longer
    than that.  A shortest odd cycle C of length 2k + 1 is isometric too: a
    path P between x and y on C with |P| < d_C(x, y) closes with one of the
    two arcs of C an odd walk shorter than C.  So from a root on C the two
    depth-k vertices of C are adjacent, and the edge between them is counted
    when the first of them is scanned, before the cut-off 2k + 1 >= best.
    """
    adj = g.adjacency
    searched: list[int] = []
    for comp, bipartite in _components(adj):
        if (not bipartite) if odd else sum(len(adj[u]) for u in comp) // 2 >= len(comp):
            searched.extend(comp)

    # dist[v] is -1 until v is reached, and -2 once v is deleted: a root
    # whose BFS has ended, or a vertex of degree below 2, which lies on no
    # cycle.  A BFS neither enters a deleted vertex nor counts an edge to
    # it, since -2 is neither -1 nor at least du >= 0.
    best: int | float = math.inf
    dist = [-1] * g.n
    for root in searched:
        if len(adj[root]) < 2:
            dist[root] = -2
            continue
        dist[root] = 0
        order = [root]
        for u in order:  # grows while iterated: the BFS queue
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for v in adj[u]:
                dv = dist[v]
                if dv == -1:
                    dist[v] = du + 1
                    order.append(v)
                elif (dv == du or (dv > du and not odd)) and du + dv + 1 < best:
                    best = du + dv + 1
        for v in order:
            dist[v] = -1
        dist[root] = -2
        if best == 3:
            break
    return best


def _components(adj: tuple[tuple[int, ...], ...]) -> Iterator[tuple[list[int], bool]]:
    """Each connected component as (its vertices in BFS order, whether it is
    bipartite), by one O(n + m) pass that 2-colors every component."""
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] != -1:
            continue
        side[s] = 0
        comp = [s]
        bipartite = True
        for u in comp:  # grows while iterated: a BFS
            for v in adj[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    comp.append(v)
                elif side[v] == side[u]:
                    bipartite = False
        yield comp, bipartite


def clique_number(g: UndirectedGraph) -> int:
    """Exact clique number via branch and bound with greedy coloring bounds.

    An explicit stack holds one frame per vertex of the current clique: the
    candidates that extend it, as (color, vertex) pairs in ascending order.
    A candidate of color c extends a clique of s vertices to at most
    s + c + 1, so a frame is dropped once its last candidate cannot beat
    the best clique found, or once its candidates have one color each: each
    was refused by every earlier one, so they are a clique of that bound.
    """
    if g.n == 0:
        return 0
    adj = g.adjacency_sets
    best = 1
    stack = [_color_sorted(adj, sorted(range(g.n), key=lambda v: (-len(adj[v]), v)))]
    while stack:
        ordered = stack[-1]
        size = len(stack) - 1
        if ordered and ordered[-1][0] + 1 == len(ordered):
            best = max(best, size + len(ordered))
        if not ordered or size + ordered[-1][0] + 1 <= best:
            stack.pop()
            continue
        _, v = ordered.pop()
        best = max(best, size + 1)
        nbrs = adj[v]
        cands = [w for _, w in ordered if w in nbrs]
        if cands:
            stack.append(_color_sorted(adj, cands))
    return best


def _color_sorted(adj: tuple[frozenset[int], ...], cands: list[int]) -> list[tuple[int, int]]:
    """Greedy-color ``cands`` in order; return (color, vertex) pairs sorted.

    A class is kept as the union of its members' neighbourhoods, and the
    classes are freed on return.
    """
    classes: list[set[int]] = []
    out = []
    for v in cands:
        for ci, nbrs in enumerate(classes):
            if v not in nbrs:
                nbrs |= adj[v]
                out.append((ci, v))
                break
        else:
            classes.append(set(adj[v]))
            out.append((len(classes) - 1, v))
    out.sort()
    return out


class DegeneracyCertificate(_Record):
    _fields = ("order", "back_degrees", "degeneracy")  # back_degrees aligned with order


def degeneracy(g: UndirectedGraph) -> DegeneracyCertificate:
    """Repeated minimum-degree removal (ties to smallest id).

    The returned order is the reverse removal order, so the back-degree of a
    vertex equals its degree at removal time and the maximum back-degree is
    the exact degeneracy.

    A bucket queue per current degree (Matula & Beck, JACM 1983), each
    bucket a min-heap of ids so ties go to the smallest id.  A vertex whose
    degree drops is pushed again, and a removed vertex has degree -1, so an
    entry is stale, and skipped, exactly when its vertex's degree is not its
    bucket's.  A removal lowers degrees by at most one, so the minimum
    degree falls by at most one per step.  O((n + m) log n).
    """
    adj = g.adjacency
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)  # ascending ids, so each bucket is a heap
    removal: list[tuple[int, int]] = []
    low = 0
    while len(removal) < g.n:
        while not buckets[low]:
            low += 1
        v = heapq.heappop(buckets[low])
        if deg[v] != low:
            continue
        removal.append((v, low))
        deg[v] = -1
        for w in adj[v]:
            if deg[w] >= 0:
                deg[w] -= 1
                heapq.heappush(buckets[deg[w]], w)
        low = max(low - 1, 0)
    order = tuple(v for v, _ in reversed(removal))
    backs = tuple(d for _, d in reversed(removal))
    return DegeneracyCertificate(order, backs, max(backs, default=0))


def chromatic_number(g: UndirectedGraph, cap: int = 100) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring.

    DSATUR's first descent, with no backtracking, colors g with some u
    colors, and it gives the lower bound min(u, 3) too.  Once a component's
    first vertex is colored, every pick until the component is done has a
    colored neighbor (saturation at least 1, against 0 outside every started
    component).  In a bipartite component those neighbors lie on the other
    side and, by induction, share one color, so each side gets one color:
    the descent uses at most 2 colors exactly when g is bipartite (1 when g
    has no edge).  So u <= 2 is exact, and u >= 3 proves an odd cycle.  The
    clique number raises the lower bound, and is searched only while that
    bound is below u.  Each level t from the lower bound up to u - 1 runs a
    DSATUR-ordered backtracking t-colorability test with symmetry breaking
    (the first colored vertex is pinned to color 0 and new colors are
    introduced in increasing order); if every level fails, the chromatic
    number is u.  A t-level test with t >= u repeats the descent (its color
    limit never binds there), so this returns the coloring that deepening
    from the clique bound would.
    """
    if g.n > cap:
        raise SizeCapExceeded(f"chromatic_number cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return 0, Coloring(g, (), 0)
    descent = _try_color(g, g.n)
    upper = max(descent) + 1
    t = min(upper, 3)
    if t < upper:
        t = max(t, clique_number(g))
    while t < upper:
        witness = _try_color(g, t)
        if witness is not None:
            return t, Coloring(g, tuple(witness), t)
        t += 1
    return upper, Coloring(g, tuple(descent), upper)


def _try_color(g: UndirectedGraph, t: int) -> list[int] | None:
    """A DSATUR-ordered t-coloring of g (n >= 1) by backtracking, or None."""
    adj = g.adjacency
    colors = [-1] * g.n
    # neighbor_colors[v] has bit c set iff a neighbor of v has color c, so
    # its bit count is v's saturation (the number of colors among its
    # neighbors).
    neighbor_colors = [0] * g.n
    # DSATUR picks the uncolored vertex of highest saturation, ties to higher
    # degree, then lower id: the earliest in ``order``.  level[s] masks the
    # uncolored vertices of saturation s by their position in ``order``, so
    # the pick is the lowest bit of the highest non-empty level (Brelaz, CACM
    # 1979).  Saturation is at most the number of colors in use, so the scan
    # for it starts there.  With nothing colored every saturation is 0, so
    # the first pick is order[0].
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    level = [0] * (min(t, len(adj[order[0]])) + 1)  # saturation <= t, <= max degree
    level[0] = (1 << g.n) - 1

    # Explicit-stack backtracking, one frame per colored vertex:
    # [vertex, max color used before it, its current color, the
    # neighbors that gained that color].  Color -1 means "not yet tried".
    stack = [[order[0], -1, -1, []]]
    while stack:
        frame = stack[-1]
        v, max_used, c, added = frame
        if c != -1:
            bit = 1 << c
            for w in added:
                s = neighbor_colors[w].bit_count()
                neighbor_colors[w] ^= bit
                at = 1 << rank[w]
                level[s] ^= at
                level[s - 1] |= at
            colors[v] = -1
            level[neighbor_colors[v].bit_count()] |= 1 << rank[v]
        # The lowest color above c that no neighbor has: the lowest 0 bit.
        taken = neighbor_colors[v] >> (c + 1)
        c += ((taken + 1) & ~taken).bit_length()
        if c > max_used + 1 or c >= t:
            stack.pop()
            continue
        colors[v] = c
        level[neighbor_colors[v].bit_count()] ^= 1 << rank[v]
        bit = 1 << c
        added = [w for w in adj[v] if colors[w] == -1 and not neighbor_colors[w] & bit]
        for w in added:
            s = neighbor_colors[w].bit_count()
            neighbor_colors[w] |= bit
            at = 1 << rank[w]
            level[s] ^= at
            level[s + 1] |= at
        frame[2], frame[3] = c, added
        used = max(max_used, c) + 1
        for s in range(min(used, len(level) - 1), -1, -1):
            if level[s]:
                stack.append([order[(level[s] & -level[s]).bit_length() - 1], used - 1, -1, []])
                break
        else:
            return colors
    return None
