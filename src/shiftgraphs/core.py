"""Core graph types and plumbing shared by every other module.

Vertices are dense integers 0..n-1.  Display labels are optional and purely
cosmetic.  Edge and arc sets are stored canonically (undirected edges min
endpoint first; both sorted lexicographically) so equal graphs serialize to
identical bytes.  Each graph class checks its invariant once, in the
constructor; ``build`` only brings outside input into canonical form.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import islice


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


# The most vertices a graph read from JSON may have, and the most vertices
# or edges a constructor may build; checked before anything is allocated.
DEFAULT_SIZE_CAP = 10**6


def vertex_pairs(n: int, pairs: Iterable[Iterable[int]]) -> list[tuple[int, int]]:
    """Outside input as a list of (u, v) pairs of vertex ids in range(n).

    Endpoints must be ``int`` exactly: ``bool``, ``float`` and ``str`` are
    rejected, not coerced.
    """
    try:
        out = [(u, v) for u, v in pairs]
    except (TypeError, ValueError) as exc:
        raise GraphError("edges must be a list of [u, v] pairs") from exc
    for u, v in out:
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"non-integer endpoint in pair {[u, v]!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"endpoint out of range in pair ({u}, {v}) with n={n}")
    return out


class _Record:
    """A record whose fields are set once, in ``__init__``.

    Equality, hash and repr run over the field names in ``_fields``; setting
    or deleting an attribute raises AttributeError.  A constructor stores its
    fields through ``object.__setattr__``; writing to ``self.__dict__`` instead
    would make CPython trade the instance's inline attribute values for a
    dict, which reads slower.  There are no ``__slots__``, so
    ``functools.cached_property`` can cache on an instance.  Written by hand
    because the ``dataclasses`` module imports ``inspect`` and ``ast``, which
    made up most of the package's import time and so of each CLI start.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class _Labeled(_Record):
    """The vertex count and display labels both graph classes carry."""

    n: int
    labels: dict[int, str] | None

    def _check_n_and_labels(self) -> None:
        if type(self.n) is not int or self.n < 0:
            raise GraphError("vertex count must be a non-negative int")
        if self.labels is None:
            return
        if any(type(k) is not int for k in self.labels):
            raise GraphError("label keys must be integer vertex ids")
        labels = {}
        for k in sorted(self.labels):
            if not (0 <= k < self.n):
                raise GraphError(f"label key {k} out of range")
            labels[k] = str(self.labels[k])
        object.__setattr__(self, "labels", labels)

    def label(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)


class UndirectedGraph(_Labeled):
    """Simple undirected graph with a canonical edge list.

    Invariant: every edge (u, v) is a pair of ``int`` with 0 <= u < v < n,
    and ``edges`` is strictly increasing, so it holds no self-loop and no
    repeated edge.
    """

    _fields = ("n", "edges", "labels")

    def __init__(
        self, n: int, edges: tuple[tuple[int, int], ...], labels: dict[int, str] | None = None
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        self._check_n_and_labels()
        n = self.n
        prev = (-1, -1)
        for e in self.edges:
            u, v = e
            if type(u) is int and type(v) is int and 0 <= u < v < n and e > prev:
                prev = e
                continue
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"non-integer endpoint in edge {e!r}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"endpoint out of range in edge ({u}, {v}) with n={n}")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) is not min endpoint first")
            if e == prev:
                raise GraphError(f"duplicate edge {e}")
            raise GraphError("edges not in canonical sorted order")

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Mapping[int, str] | None = None,
    ) -> "UndirectedGraph":
        canonical = sorted((u, v) if u < v else (v, u) for u, v in vertex_pairs(n, edges))
        return cls(n, tuple(canonical), labels)

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


class AcyclicDigraph(_Labeled):
    """Oriented simple graph with a stored topological order.

    Invariant, checked in one O(n + m) pass: ``topo`` is a permutation of
    the vertices, every arc is a pair of ``int`` in range that points forward
    in ``topo``, and ``arcs`` is strictly increasing.  Forward arcs rule out self-loops and
    antiparallel pairs (an arc and its reverse cannot both point forward)
    and every directed cycle (positions in ``topo`` rise along any directed
    path), so ``topo`` is a topological order.  Strictly increasing arcs rule
    out repeats and make the stored arc tuple canonical.

    The topological order is derived data and is left out of ``_fields``,
    so of equality, hash and repr: two digraphs with identical arc sets
    compare equal.
    """

    _fields = ("n", "arcs", "labels")

    def __init__(
        self,
        n: int,
        arcs: tuple[tuple[int, int], ...],
        topo: tuple[int, ...],
        labels: dict[int, str] | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "topo", topo)
        object.__setattr__(self, "labels", labels)
        self._check_n_and_labels()
        n = self.n
        if len(self.topo) != n:
            raise GraphError("topo is not a permutation of the vertices")
        pos = [-1] * n
        for i, v in enumerate(self.topo):
            if type(v) is not int or not (0 <= v < n) or pos[v] >= 0:
                raise GraphError("topo is not a permutation of the vertices")
            pos[v] = i
        prev = (-1, -1)
        for a in self.arcs:
            u, v = a
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc {a!r} is not a pair of vertex ids with n={n}")
            if pos[u] >= pos[v]:
                raise GraphError(f"arc ({u}, {v}) does not point forward in topo")
            if a <= prev:
                raise GraphError(
                    f"duplicate arc {a}" if a == prev else "arcs not in sorted order"
                )
            prev = a

    @classmethod
    def build(
        cls,
        n: int,
        arcs: Iterable[Iterable[int]],
        labels: Mapping[int, str] | None = None,
    ) -> "AcyclicDigraph":
        """Sort the arcs and order them; a directed cycle raises DirectedCycleError."""
        arc_tuple = tuple(sorted(vertex_pairs(n, arcs)))
        order, cycle = topological_order(n, arc_tuple)
        if cycle is not None:
            raise DirectedCycleError(cycle)
        return cls(n, arc_tuple, tuple(order), labels)

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

    @cached_property
    def underlying(self) -> UndirectedGraph:
        """The underlying undirected graph, labels preserved; see the function ``underlying``."""
        edges = sorted((u, v) if u < v else (v, u) for u, v in self.arcs)
        return UndirectedGraph(self.n, tuple(edges), self.labels)


class ImproperColoringError(GraphError):
    """Two adjacent vertices received the same color."""


class Coloring(_Record):
    """Proper total coloring; propriety is checked on construction."""

    _fields = ("graph", "color", "palette")

    def __init__(self, graph: UndirectedGraph, color: tuple[int, ...], palette: int) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "palette", palette)
        if len(self.color) != self.graph.n:
            raise GraphError("color map does not cover every vertex")
        for v, c in enumerate(self.color):
            if not (0 <= c < self.palette):
                raise GraphError(f"color {c} of vertex {v} outside palette {self.palette}")
        for u, v in self.graph.edges:
            if self.color[u] == self.color[v]:
                raise ImproperColoringError(
                    f"adjacent vertices {u} and {v} share color {self.color[u]}"
                )

    @property
    def used(self) -> int:
        return len(set(self.color))


class Orientation(_Record):
    """A direction for every edge of an undirected base graph.

    ``arcs[i]`` is ``base.edges[i]`` or its reverse, so no edge is left
    unoriented and none is oriented twice.
    """

    _fields = ("base", "arcs")

    def __init__(self, base: UndirectedGraph, arcs: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "arcs", arcs)
        if len(self.arcs) != len(self.base.edges):
            raise GraphError("arc list does not match the base edge set")
        for (u, v), a in zip(self.base.edges, self.arcs):
            if a != (u, v) and a != (v, u):
                raise GraphError(f"arc {a!r} does not orient edge ({u}, {v})")

    @classmethod
    def build(cls, base: UndirectedGraph, arcs: Iterable[Iterable[int]]) -> "Orientation":
        """Orient ``base`` by ``arcs``, which name each of its edges exactly
        once, in either direction and in any order."""
        edge_index = {e: i for i, e in enumerate(base.edges)}
        out: list[tuple[int, int] | None] = [None] * len(base.edges)
        for u, v in vertex_pairs(base.n, arcs):
            key = (u, v) if u < v else (v, u)
            i = edge_index.get(key)
            if i is None:
                raise GraphError(f"oriented pair ({u}, {v}) is not an edge of the graph")
            if out[i] is not None:
                raise GraphError(f"edge {key} oriented twice")
            out[i] = (u, v)
        for e, a in zip(base.edges, out):
            if a is None:
                raise GraphError(f"edge {e} is not oriented")
        return cls(base, tuple(out))

    def to_digraph(self) -> AcyclicDigraph:
        """The digraph of the orientation; raises DirectedCycleError if cyclic."""
        return AcyclicDigraph.build(self.base.n, self.arcs, self.base.labels)


def underlying(d: AcyclicDigraph) -> UndirectedGraph:
    """Underlying undirected graph of a digraph, labels preserved.

    Built once per digraph and cached on it, so repeated calls return the
    same object and equality checks against it are identity-fast.
    """
    return d.underlying


def path_masks(d: AcyclicDigraph) -> tuple[list[int], list[int]]:
    """Saturating path counts as bitmasks, by DP over ``d.topo``.

    ``one[v]`` holds the sources with at least one directed path to v and
    ``many[v]`` those with at least two: a source reaches v twice if it
    reaches some in-neighbor twice, or reaches two in-neighbors (counting an
    in-neighbor itself via the arc into v).
    """
    inc = d.in_adjacency
    one = [0] * d.n
    many = [0] * d.n
    for v in d.topo:
        acc = macc = 0
        for w in inc[v]:
            c = one[w] | (1 << w)
            macc |= many[w] | (acc & c)
            acc |= c
        one[v] = acc
        many[v] = macc
    return one, many


def topological_order(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[list[int] | None, list[int] | None]:
    """Kahn's algorithm with lowest-id-first tie-break.

    Returns (order, None) for acyclic arc sets and (None, cycle) otherwise,
    where ``cycle`` lists the vertices of a directed cycle in order.
    """
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
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
    # walking min out-neighbors inside the rest must loop.  Every out-neighbor
    # of an unprocessed vertex is unprocessed, so live[v] starts at v's
    # out-degree; a vertex is stripped when its count of survivors hits 0.
    remaining = {v for v in range(n) if indeg[v] > 0}
    live = {v: len(out[v]) for v in remaining}
    inc: dict[int, list[int]] = {v: [] for v in remaining}
    for u in remaining:
        for w in out[u]:
            inc[w].append(u)
    dead = [v for v in remaining if not live[v]]
    while dead:
        v = dead.pop()
        remaining.discard(v)
        for u in inc[v]:
            live[u] -= 1
            if not live[u]:
                dead.append(u)
    start = min(remaining)
    seen: dict[int, int] = {}
    path = []
    v = start
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(w for w in out[v] if w in remaining)
    return None, path[seen[v]:]


def biconnected_blocks(g: UndirectedGraph) -> list[list[int]]:
    """Edge indices of each block: a bridge, or a maximal 2-connected subgraph.

    Hopcroft–Tarjan low points over an explicit DFS stack, so no recursion.
    Every edge lies in exactly one block, and every cycle inside one block.
    """
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[list[int]] = []
    pending: list[int] = []  # edges met but not yet assigned to a block
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(inc[root]))]  # vertex, tree edge into it, edges left
        while stack:
            v, into, rest = stack[-1]
            for w, i in rest:
                if disc[w] < 0:
                    pending.append(i)
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, i, iter(inc[w])))
                    break
                if i != into and disc[w] < disc[v]:  # back edge to an ancestor
                    pending.append(i)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:  # p separates v's subtree: close its block
                    block = [pending.pop()]
                    while block[-1] != into:
                        block.append(pending.pop())
                    blocks.append(block)
    return blocks


# --- JSON schema -----------------------------------------------------------
#
#   {"n": <int>, "directed": <bool>, "edges": [[u, v], ...], "labels": {...}?}
#
# Keys in that order, labels omitted when absent, default json separators
# (a single space after ":" and ",").  For directed graphs [u, v] is an arc.
# An orientation is written as {"edges": [[u, v], ...]}, one arc per edge.
#
# A document is produced in pieces: each slice of JSON_CHUNK pairs or labels
# is one json.dumps call with its outer brackets stripped, joined by ", ".
# Writing a file never holds the whole text, only one slice's.  A slice holds
# only ints and strs, so json.dumps is told not to look for cycles in it.

JSON_CHUNK = 1024


def _json_chunks(x: UndirectedGraph | AcyclicDigraph | Orientation) -> Iterator[str]:
    if isinstance(x, Orientation):
        head, pairs, labels = '{"edges": [', x.arcs, None
    else:
        directed = isinstance(x, AcyclicDigraph)
        head = f'{{"n": {x.n}, "directed": {"true" if directed else "false"}, "edges": ['
        pairs, labels = (x.arcs if directed else x.edges), x.labels
    yield head
    for i in range(0, len(pairs), JSON_CHUNK):
        if i:
            yield ", "
        yield json.dumps(pairs[i:i + JSON_CHUNK], check_circular=False)[1:-1]
    yield "]"
    if labels:
        # The graph invariant stores labels in ascending key order.
        items = iter(labels.items())
        sep = ', "labels": {'
        while part := {str(k): v for k, v in islice(items, JSON_CHUNK)}:
            yield sep
            yield json.dumps(part, check_circular=False)[1:-1]
            sep = ", "
        yield "}"
    yield "}"


def to_json(x: UndirectedGraph | AcyclicDigraph | Orientation) -> str:
    return "".join(_json_chunks(x))


def write_json(x: UndirectedGraph | AcyclicDigraph | Orientation, path: str) -> None:
    """Write ``to_json(x)`` and a newline to ``path``, one piece at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(x))
        fh.write("\n")


def graph_from_json(text: str | bytes) -> UndirectedGraph | AcyclicDigraph:
    # A ValueError is a JSONDecodeError, bytes that are not UTF-8 or an
    # integer past the digit limit; a RecursionError is nesting too deep.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"graph has {n} vertices > {DEFAULT_SIZE_CAP} (the size cap)")
    if not isinstance(directed, bool):
        raise GraphError("'directed' must be a boolean")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of [u, v] pairs")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, dict):
            raise GraphError("'labels' must be an object")
        parsed = {}
        for k, v in labels.items():
            # Only the decimal form to_json writes: "00", " 1" and "1_0" are
            # rejected; a key longer than n's own decimal is out of range anyway.
            if not (k.isascii() and k.isdigit() and len(k) <= len(str(n)) and str(int(k)) == k):
                raise GraphError(f"label key {k!r} is not a vertex id in decimal")
            if not isinstance(v, str):
                raise GraphError(f"label of vertex {k} must be a string")
            parsed[int(k)] = v
        labels = parsed
    return (AcyclicDigraph if directed else UndirectedGraph).build(n, edges, labels)


def _dot_quote(text: str) -> str:
    """``text`` as a DOT quoted string: backslash, quote and newline escaped."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _dot_lines(g: UndirectedGraph | AcyclicDigraph) -> Iterator[str]:
    directed = isinstance(g, AcyclicDigraph)
    head = "digraph" if directed else "graph"
    op = "->" if directed else "--"
    yield f"{head} G {{\n"
    if g.labels:
        for v in sorted(g.labels):
            yield f"  {v} [label={_dot_quote(g.labels[v])}];\n"
    for u, v in (g.arcs if directed else g.edges):
        yield f"  {u} {op} {v};\n"
    yield "}\n"


def to_dot(g: UndirectedGraph | AcyclicDigraph) -> str:
    """Deterministic DOT rendering; labels are used when present."""
    return "".join(_dot_lines(g))


def write_dot(g: UndirectedGraph | AcyclicDigraph, path: str) -> None:
    """Write ``to_dot(g)`` to ``path``, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dot_lines(g))
