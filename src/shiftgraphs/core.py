"""Core graph types and plumbing shared by every other module.

Vertices are dense integers 0..n-1.  Display labels are optional and purely
cosmetic.  Edge sets are stored canonically (min endpoint first, sorted
lexicographically) so equal graphs serialize to identical bytes.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Invalid graph data: bad endpoints, self-loops, duplicates, bad schema."""


class DirectedCycleError(GraphError):
    """An arc set that was required to be acyclic contains a directed cycle."""

    def __init__(self, cycle: Iterable[int]):
        self.cycle = list(cycle)
        route = " -> ".join(str(v) for v in self.cycle + self.cycle[:1])
        super().__init__(f"directed cycle: {route}")


class SizeCapExceeded(RuntimeError):
    """A construction would exceed the configured size cap."""


class InternalInvariantError(RuntimeError):
    """A postcondition that should be unconditionally true failed."""


def _canonical_edges(n: int, edges: Iterable[Iterable[int]]) -> tuple[tuple[int, int], ...]:
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = e
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"non-integer endpoint in edge {e!r}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"endpoint out of range in edge ({u}, {v}) with n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


def _check_labels(n: int, labels: Mapping[int, str] | None) -> dict[int, str] | None:
    if labels is None:
        return None
    out = {}
    for k in sorted(labels):
        if not (0 <= k < n):
            raise GraphError(f"label key {k} out of range")
        out[k] = str(labels[k])
    return out


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph with a canonical edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: dict[int, str] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("negative vertex count")
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"non-canonical or out-of-range edge ({u}, {v})")
            if prev is not None and (u, v) <= prev:
                raise GraphError("edges not in canonical sorted order")
            prev = (u, v)
        _check_labels(self.n, self.labels)

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Mapping[int, str] | None = None,
    ) -> "UndirectedGraph":
        return cls(n, _canonical_edges(n, edges), _check_labels(n, labels))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency_sets[u]

    def label(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)

    def induced(self, vertices: Iterable[int]) -> tuple["UndirectedGraph", dict[int, int]]:
        """Induced subgraph on the given vertices, relabeled densely.

        Returns the subgraph and the old-id -> new-id map.
        """
        vs = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(vs)}
        edges = [(remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap]
        labels = {remap[v]: self.label(v) for v in vs} if self.labels else None
        return UndirectedGraph.build(len(vs), edges, labels), remap


@dataclass(frozen=True)
class AcyclicDigraph:
    """Oriented simple graph with a stored topological order.

    The topological order is derived data and is excluded from equality so
    that two digraphs with identical arc sets compare equal.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    topo: tuple[int, ...] = field(compare=False)
    labels: dict[int, str] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("negative vertex count")
        pairs = set()
        for u, v in self.arcs:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"endpoint out of range in arc ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                raise GraphError(f"two arcs on one vertex pair {key}")
            pairs.add(key)
        if sorted(self.topo) != list(range(self.n)):
            raise GraphError("topo is not a permutation of the vertices")
        pos = {v: i for i, v in enumerate(self.topo)}
        for u, v in self.arcs:
            if pos[u] >= pos[v]:
                raise GraphError(f"topo violates arc ({u}, {v})")
        _check_labels(self.n, self.labels)

    @classmethod
    def build(
        cls,
        n: int,
        arcs: Iterable[Iterable[int]],
        labels: Mapping[int, str] | None = None,
    ) -> "AcyclicDigraph":
        arc_list = sorted({(int(u), int(v)) for u, v in arcs})
        order, cycle = topological_order(n, arc_list)
        if cycle is not None:
            raise DirectedCycleError(cycle)
        assert order is not None
        return cls(n, tuple(arc_list), tuple(order), _check_labels(n, labels))

    @cached_property
    def out_adjacency(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(sorted(a)) for a in out)

    @cached_property
    def in_adjacency(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            inc[v].append(u)
        return tuple(tuple(sorted(a)) for a in inc)

    def label(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)


class EdgeDir(Enum):
    FORWARD = "forward"  # min endpoint -> max endpoint
    BACKWARD = "backward"
    UNSET = "unset"


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction assignment over an undirected base graph.

    ``dirs[i]`` orients ``base.edges[i]``; FORWARD means min -> max endpoint.
    """

    base: UndirectedGraph
    dirs: tuple[EdgeDir, ...]

    def __post_init__(self) -> None:
        if len(self.dirs) != len(self.base.edges):
            raise GraphError("direction list does not match the base edge set")

    @property
    def total(self) -> bool:
        return all(d is not EdgeDir.UNSET for d in self.dirs)

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for (u, v), d in zip(self.base.edges, self.dirs):
            if d is EdgeDir.FORWARD:
                out.append((u, v))
            elif d is EdgeDir.BACKWARD:
                out.append((v, u))
        return out

    def to_digraph(self) -> AcyclicDigraph:
        """Digraph induced by a total orientation; raises if cyclic."""
        if not self.total:
            raise GraphError("orientation is not total")
        return AcyclicDigraph.build(self.base.n, self.arcs(), self.base.labels)


def orientation_from_digraph(d: AcyclicDigraph, base: UndirectedGraph | None = None) -> Orientation:
    """Natural orientation of the underlying graph of ``d``."""
    if base is None:
        base = underlying(d)
    arc_set = set(d.arcs)
    dirs = []
    for u, v in base.edges:
        if (u, v) in arc_set:
            dirs.append(EdgeDir.FORWARD)
        elif (v, u) in arc_set:
            dirs.append(EdgeDir.BACKWARD)
        else:
            dirs.append(EdgeDir.UNSET)
    return Orientation(base, tuple(dirs))


def underlying(d: AcyclicDigraph) -> UndirectedGraph:
    """Underlying undirected graph of a digraph, labels preserved."""
    return UndirectedGraph.build(d.n, d.arcs, d.labels)


MANY = 2  # saturated path count: 0, 1, or "two or more"


@dataclass(frozen=True)
class PathCountMatrix:
    """Saturated counts of nontrivial directed paths between vertex pairs,
    viewed through the ``one``/``many`` masks of ``path_masks``."""

    n: int
    one: tuple[int, ...]
    many: tuple[int, ...]

    def __getitem__(self, pair: tuple[int, int]) -> int:
        u, v = pair
        return MANY if self.many[v] >> u & 1 else self.one[v] >> u & 1


def path_masks(
    n: int, arcs: Iterable[tuple[int, int]], order: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Saturating path counts as bitmasks, by DP over a topological order.

    ``one[v]`` holds the sources with at least one directed path to v and
    ``many[v]`` those with at least two: a source reaches v twice if it
    reaches some in-neighbor twice, or reaches two in-neighbors (counting an
    in-neighbor itself via the arc into v).
    """
    inc: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        inc[v].append(u)
    one = [0] * n
    many = [0] * n
    for v in order:
        acc = macc = 0
        for w in inc[v]:
            c = one[w] | (1 << w)
            macc |= many[w] | (acc & c)
            acc |= c
        one[v] = acc
        many[v] = macc
    return one, many


def path_count_matrix(d: AcyclicDigraph) -> PathCountMatrix:
    """Count directed paths between all pairs, saturating at MANY."""
    one, many = path_masks(d.n, d.arcs, d.topo)
    return PathCountMatrix(d.n, tuple(one), tuple(many))


def topological_order(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[list[int] | None, list[int] | None]:
    """Kahn's algorithm with lowest-id-first tie-break.

    Returns (order, None) for acyclic arc sets and (None, cycle) otherwise,
    where ``cycle`` lists the vertices of a directed cycle in order.
    """
    arc_list = list(arcs)
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arc_list:
        indeg[v] += 1
        out[u].append(v)
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) == n:
        return order, None
    # Unprocessed vertices lie on a directed cycle or downstream of one; strip
    # the downstream part (vertices with no surviving out-neighbor), then
    # walking min out-neighbors inside the rest must loop.
    remaining = {v for v in range(n) if indeg[v] > 0}
    stripped = True
    while stripped:
        stripped = False
        for v in sorted(remaining):
            if not any(w in remaining for w in out[v]):
                remaining.discard(v)
                stripped = True
    start = min(remaining)
    seen: dict[int, int] = {}
    path = []
    v = start
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(w for w in out[v] if w in remaining)
    return None, path[seen[v]:]


def connected_components(g: UndirectedGraph) -> list[list[int]]:
    """BFS components, each sorted ascending, ordered by minimum element."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


# --- JSON schema -----------------------------------------------------------
#
#   {"n": <int>, "directed": <bool>, "edges": [[u, v], ...], "labels": {...}?}
#
# Keys in that order, labels omitted when absent, default json separators
# (a single space after ":" and ",").  For directed graphs [u, v] is an arc.


def to_json(g: UndirectedGraph | AcyclicDigraph) -> str:
    directed = isinstance(g, AcyclicDigraph)
    obj: dict = {
        "n": g.n,
        "directed": directed,
        "edges": g.arcs if directed else g.edges,  # tuples dump as arrays
    }
    if g.labels:
        obj["labels"] = {str(k): g.labels[k] for k in sorted(g.labels)}
    return json.dumps(obj)


def graph_from_json(text: str | bytes) -> UndirectedGraph | AcyclicDigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GraphError("top-level JSON value must be an object")
    for key in ("n", "directed", "edges"):
        if key not in obj:
            raise GraphError(f"missing required key {key!r}")
    n = obj["n"]
    directed = obj["directed"]
    edges = obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphError("'n' must be a non-negative integer")
    if not isinstance(directed, bool):
        raise GraphError("'directed' must be a boolean")
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in edges
    ):
        raise GraphError("'edges' must be a list of [u, v] pairs")
    labels = None
    if "labels" in obj and obj["labels"] is not None:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            raise GraphError("'labels' must be an object")
        try:
            labels = {int(k): str(v) for k, v in raw.items()}
        except ValueError as exc:
            raise GraphError("label keys must be integer vertex ids") from exc
    if not directed:
        return UndirectedGraph.build(n, edges, labels)
    # AcyclicDigraph.build coerces with int() and merges repeated arcs, so
    # check here what _canonical_edges checks for undirected input.
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"non-integer endpoint in arc {[u, v]!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"endpoint out of range in arc ({u}, {v}) with n={n}")
        if (u, v) in seen:
            raise GraphError(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
    return AcyclicDigraph.build(n, seen, labels)


def to_dot(g: UndirectedGraph | AcyclicDigraph | Orientation) -> str:
    """Deterministic DOT rendering; labels are used when present."""
    if isinstance(g, Orientation):
        lines = [f"digraph G {{"]
        lines.extend(_dot_labels(g.base))
        for (u, v), d in zip(g.base.edges, g.dirs):
            if d is EdgeDir.FORWARD:
                lines.append(f"  {u} -> {v};")
            elif d is EdgeDir.BACKWARD:
                lines.append(f"  {v} -> {u};")
            else:
                lines.append(f"  {u} -> {v} [dir=none];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    directed = isinstance(g, AcyclicDigraph)
    head = "digraph" if directed else "graph"
    op = "->" if directed else "--"
    lines = [f"{head} G {{"]
    lines.extend(_dot_labels(g))
    for u, v in (g.arcs if directed else g.edges):
        lines.append(f"  {u} {op} {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_labels(g: UndirectedGraph | AcyclicDigraph) -> list[str]:
    if not g.labels:
        return []
    return [f'  {v} [label="{g.labels[v]}"];' for v in sorted(g.labels)]
