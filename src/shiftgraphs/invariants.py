"""Structural property checkers: girth, odd-girth, clique number, degeneracy
and exact chromatic number.

All checkers are deterministic; ties break toward the smallest vertex id.
Girth of a forest is reported as ``math.inf`` (not 0) so that every lower
bound comparison stays monotone; the CLI prints it as "inf".
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from .core import Coloring, GraphError, SizeCapExceeded, UndirectedGraph, _Record


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
    Comput. 1978).

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
    n = g.n
    adj = g.adjacency
    side = [-1] * n
    searched: list[int] = []
    for s in range(n):
        if side[s] != -1:
            continue
        side[s] = 0
        comp = [s]
        degree_sum = 0
        bipartite = True
        for u in comp:  # grows while iterated: a BFS
            degree_sum += len(adj[u])
            for v in adj[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    comp.append(v)
                elif side[v] == side[u]:
                    bipartite = False
        if (not bipartite) if odd else degree_sum // 2 >= len(comp):
            searched.extend(comp)

    best: int | float = math.inf
    dist = [-1] * n
    for root in searched:
        if len(adj[root]) < 2:
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
        if best == 3:
            break
    return best


def extract_odd_cycle(g: UndirectedGraph, walk: Sequence[int]) -> list[int]:
    """Extract a simple odd cycle from a closed odd walk.

    Splits the walk at its first repeated vertex and keeps the odd half until
    no vertex repeats; a repetition-free closed odd walk is an odd cycle.
    """
    walk = list(walk)
    if len(walk) < 2 or walk[0] != walk[-1]:
        raise GraphError("walk is not closed")
    length = len(walk) - 1
    if length % 2 == 0:
        raise GraphError("walk has even length")
    for a, b in zip(walk, walk[1:]):
        if not g.has_edge(a, b):
            raise GraphError(f"({a}, {b}) is not an edge of the graph")
    # path is the repetition-free prefix kept so far and first[v] its index
    # of v, so all the splits together cost O(len(walk)).
    path: list[int] = []
    first: dict[int, int] = {}
    for v in walk[:-1]:
        i = first.get(v)
        if i is None:
            first[v] = len(path)
            path.append(v)
        elif (len(path) - i) % 2 == 1:
            return path[i:]  # the closed walk path[i:] + [v] is odd
        else:
            for w in path[i + 1 :]:  # drop the even loop back to v
                del first[w]
            del path[i + 1 :]
    return path


def clique_number(g: UndirectedGraph) -> int:
    """Exact clique number via branch and bound with greedy coloring bounds."""
    if g.n == 0:
        return 0
    adj = g.adjacency_sets
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    best = [1]

    def expand(size: int, cands: list[int]) -> None:
        # Greedy-color the candidates; a vertex whose color id is c can
        # extend the current clique to at most size + c + 1 vertices.  A
        # class is kept as the union of its members' neighbourhoods.
        classes: list[set[int]] = []
        color_of: dict[int, int] = {}
        for v in cands:
            for ci, nbrs in enumerate(classes):
                if v not in nbrs:
                    nbrs |= adj[v]
                    color_of[v] = ci
                    break
            else:
                classes.append(set(adj[v]))
                color_of[v] = len(classes) - 1
        ordered = sorted(cands, key=lambda v: (color_of[v], v))
        while ordered:
            v = ordered.pop()
            if size + color_of[v] + 1 <= best[0]:
                return
            new_cands = [w for w in ordered if w in adj[v]]
            if size + 1 > best[0]:
                best[0] = size + 1
            if new_cands:
                expand(size + 1, new_cands)

    expand(0, order)
    return best[0]


class DegeneracyCertificate(_Record):
    _fields = ("order", "back_degrees", "degeneracy")

    def __init__(
        self,
        order: tuple[int, ...],
        back_degrees: tuple[int, ...],  # aligned with order
        degeneracy: int,
    ) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "back_degrees", back_degrees)
        object.__setattr__(self, "degeneracy", degeneracy)


def degeneracy(g: UndirectedGraph) -> DegeneracyCertificate:
    """Repeated minimum-degree removal (ties to smallest id).

    The returned order is the reverse removal order, so the back-degree of a
    vertex equals its degree at removal time and the maximum back-degree is
    the exact degeneracy.

    A bucket queue per current degree (Matula & Beck, JACM 1983), each
    bucket a min-heap of ids so ties go to the smallest id; a vertex whose
    degree drops is pushed again and its stale entry skipped.  A removal
    lowers degrees by at most one, so the minimum degree falls by at most
    one per step.  O((n + m) log n).
    """
    adj = g.adjacency
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)  # ascending ids, so each bucket is a heap
    alive = [True] * g.n
    removal: list[tuple[int, int]] = []
    low = 0
    while len(removal) < g.n:
        while not buckets[low]:
            low += 1
        v = heapq.heappop(buckets[low])
        if not alive[v] or deg[v] != low:
            continue
        removal.append((v, low))
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(buckets[deg[w]], w)
        low = max(low - 1, 0)
    order = tuple(v for v, _ in reversed(removal))
    backs = tuple(d for _, d in reversed(removal))
    return DegeneracyCertificate(order, backs, max(backs, default=0))


def chromatic_number(g: UndirectedGraph, cap: int = 100) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring.

    Iterative deepening from the clique lower bound; each level runs a
    DSATUR-ordered backtracking t-colorability test with symmetry breaking
    (the first colored vertex is pinned to color 0 and new colors are
    introduced in increasing order).
    """
    if g.n > cap:
        raise SizeCapExceeded(f"chromatic_number cap {cap} exceeded (n={g.n})")
    if g.n == 0:
        return 0, Coloring(g, (), 0)
    if not g.edges:
        return 1, Coloring(g, (0,) * g.n, 1)
    lower = clique_number(g)
    t = max(lower, 1)
    while True:
        witness = _try_color(g, t)
        if witness is not None:
            return t, Coloring(g, tuple(witness), t)
        t += 1


def _try_color(g: UndirectedGraph, t: int) -> list[int] | None:
    adj = g.adjacency
    colors = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]

    def pick() -> int | None:
        best_v = None
        best_key = None
        for v in range(g.n):
            if colors[v] != -1:
                continue
            key = (-len(neighbor_colors[v]), -len(adj[v]), v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        return best_v

    # Explicit-stack backtracking, one frame per colored vertex:
    # [vertex, max color used before it, its current color, the
    # neighbors that gained that color].  Color -1 means "not yet tried".
    v = pick()
    if v is None:
        return colors
    stack = [[v, -1, -1, []]]
    while stack:
        frame = stack[-1]
        v, max_used, c, added = frame
        if c != -1:
            for w in added:
                neighbor_colors[w].discard(c)
            colors[v] = -1
        limit = min(max_used + 1, t - 1)
        c += 1
        while c <= limit and c in neighbor_colors[v]:
            c += 1
        if c > limit:
            stack.pop()
            continue
        colors[v] = c
        added = [w for w in adj[v] if colors[w] == -1 and c not in neighbor_colors[w]]
        for w in added:
            neighbor_colors[w].add(c)
        frame[2], frame[3] = c, added
        nxt = pick()
        if nxt is None:
            return colors
        stack.append([nxt, max(max_used, c), -1, []])
    return None
