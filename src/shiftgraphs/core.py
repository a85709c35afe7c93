"""Core graph types and plumbing shared by every other module.

Vertices are dense integers 0..n-1.  Display labels are optional and purely
cosmetic.  Edge and arc sets are stored canonically (undirected edges min
endpoint first; both sorted lexicographically) so equal graphs serialize to
identical bytes.  Each graph class checks its invariant once, in ``_check``,
which the constructor runs; ``build`` only brings outside input into
canonical form.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import groupby, islice
from operator import itemgetter


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


def check_size(count: int, what: str) -> None:
    """Raise SizeCapExceeded("<what> > <cap> (the size cap)") if ``count``
    exceeds DEFAULT_SIZE_CAP."""
    if count > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"{what} > {DEFAULT_SIZE_CAP} (the size cap)")


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
    """A record whose fields are set once, in the one ``__init__`` here.

    A record class declares its field names once, in ``_fields``, and the
    defaults of its trailing fields in ``_defaults``; fields are given by
    position only.  It checks its invariant in ``_check``, which ``__init__``
    calls after storing the fields.  Equality, hash and repr run over
    ``_compared`` if a class names it, else over ``_fields``.  Setting or
    deleting an attribute raises AttributeError.  Fields are stored through
    ``object.__setattr__``, which keeps CPython's inline attribute values (a
    write to ``self.__dict__`` would trade them for a dict, which reads
    slower); with no ``__slots__``, ``functools.cached_property`` can cache
    on an instance.  Not a ``dataclass``: that module imports ``inspect`` and
    ``ast``, which made up most of the package's import time and so of each
    CLI start.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    _compared: tuple[str, ...] = ()

    def __init__(self, *args: object) -> None:
        fields = self._fields
        missing = len(fields) - len(args)
        if missing < 0 or missing > len(self._defaults):
            name, least = type(self).__name__, len(fields) - len(self._defaults)
            raise TypeError(f"{name}() takes {least} to {len(fields)} arguments, not {len(args)}")
        if missing:
            args += self._defaults[-missing:]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise if the stored fields break the class invariant."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared or self._fields)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared or self._fields)
        return f"{type(self).__qualname__}({args})"


class _Labeled(_Record):
    """The vertex count and display labels both graph classes carry: a dict
    from vertex ids to strs in any key order, kept as given, so
    ``d.underlying`` shares ``d``'s; ``build`` stores a copy of outside input."""

    def _check_n_and_labels(self) -> None:
        if type(self.n) is not int or self.n < 0:
            raise GraphError("vertex count must be a non-negative int")
        for k, text in (self.labels or {}).items():
            if type(k) is not int:
                raise GraphError("label keys must be integer vertex ids")
            if not (0 <= k < self.n):
                raise GraphError(f"label key {k} out of range")
            if type(text) is not str:
                raise GraphError(f"label of vertex {k} must be a string")
            # A lone surrogate (JSON allows "\ud800") has no UTF-8 form, so
            # no DOT file could hold the label.
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    raise GraphError(f"label of vertex {k} is not valid Unicode text") from None

    def label(self, v: int) -> str:
        return (self.labels or {}).get(v, str(v))


class UndirectedGraph(_Labeled):
    """Simple undirected graph with a canonical edge list.

    Invariant: every edge (u, v) is a pair of ``int`` with 0 <= u < v < n,
    and ``edges`` is strictly increasing, so it holds no self-loop and no
    repeated edge.
    """

    _fields = ("n", "edges", "labels")
    _defaults = (None,)

    def _check(self) -> None:
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
        return cls(n, tuple(canonical), None if labels is None else dict(labels))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # ``edges`` is sorted, so each list comes out ascending: v gets its
        # lower neighbors u, as edges (u, v) in order of u, before any edge
        # (v, w) gives it a higher one, in order of w.
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency_sets[u]


class AcyclicDigraph(_Labeled):
    """Oriented simple graph, stored as its out-adjacency, with a stored
    topological order.

    Invariant, checked in one O(n + m) pass: ``topo`` is a permutation of
    the vertices; ``out_adjacency`` is a tuple of n head tuples, and
    ``out_adjacency[u]`` is a strictly increasing tuple of ``int`` vertex
    ids, each of which comes after u in ``topo``.  Forward arcs rule out
    self-loops and antiparallel pairs (an arc and its reverse cannot both
    point forward) and every directed cycle (positions in ``topo`` rise along
    any directed path), so ``topo`` is a topological order.  Strictly
    increasing heads rule out repeated arcs and make the adjacency canonical.
    One head tuple may serve as the heads of several vertices: a line digraph
    gives every line vertex (a, b) the one tuple of b's out-arcs.  An
    acyclic orientation of an undirected graph g is the digraph d with
    ``d.underlying == g``; ``orient`` builds it from outside input.

    ``arcs``, the sorted tuple of (tail, head) pairs, is derived from the
    adjacency on first use and cached, like ``in_adjacency`` and
    ``underlying``.  Equality, hash and repr run over ``n``, ``arcs`` and
    ``labels``, so the topological order is left out of them: two digraphs
    with identical arc sets compare equal.
    """

    _fields = ("n", "out_adjacency", "topo", "labels")
    _defaults = (None,)
    _compared = ("n", "arcs", "labels")

    def _check(self) -> None:
        self._check_n_and_labels()
        n = self.n
        if len(self.topo) != n:
            raise GraphError("topo is not a permutation of the vertices")
        pos = [-1] * n
        for i, v in enumerate(self.topo):
            if type(v) is not int or not (0 <= v < n) or pos[v] >= 0:
                raise GraphError("topo is not a permutation of the vertices")
            pos[v] = i
        out = self.out_adjacency
        if type(out) is not tuple or len(out) != n:
            raise GraphError(f"out_adjacency is not a tuple of {n} head tuples")
        # The lowest topo position among each distinct head tuple's heads,
        # keyed by id(): ``out`` holds every tuple, so no id is reused
        # while this runs, and a tuple shared by many tails is walked once.
        lowest: dict[int, int] = {}
        for u, heads in enumerate(out):
            low = lowest.get(id(heads))
            if low is None:
                low = lowest[id(heads)] = _lowest_position(u, heads, pos)
            if low <= pos[u]:
                v = min(heads, key=pos.__getitem__)
                raise GraphError(f"arc ({u}, {v}) does not point forward in topo")

    @classmethod
    def build(
        cls,
        n: int,
        arcs: Iterable[Iterable[int]],
        labels: Mapping[int, str] | None = None,
    ) -> "AcyclicDigraph":
        """Group the arcs by tail and order them; a directed cycle raises
        DirectedCycleError."""
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in vertex_pairs(n, arcs):
            out[u].append(v)
        order = topological_order(out)
        adjacency = tuple(tuple(sorted(heads)) for heads in out)
        return cls(n, adjacency, tuple(order), None if labels is None else dict(labels))

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, heads in enumerate(self.out_adjacency) for v in heads)

    @cached_property
    def in_adjacency(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for u, heads in enumerate(self.out_adjacency):
            for v in heads:
                inc[v].append(u)
        return tuple(map(tuple, inc))

    @cached_property
    def underlying(self) -> UndirectedGraph:
        """The underlying undirected graph, labels preserved."""
        out = self.out_adjacency
        edges = sorted((u, v) if u < v else (v, u) for u, heads in enumerate(out) for v in heads)
        return UndirectedGraph(self.n, tuple(edges), self.labels)


def _lowest_position(u: int, heads: tuple[int, ...], pos: list[int]) -> int:
    """The lowest position in ``topo`` of the heads of ``u``, or n if it has
    none; raises GraphError unless ``heads`` is a strictly increasing tuple
    of vertex ids."""
    n = len(pos)
    if type(heads) is not tuple:
        raise GraphError(f"heads of vertex {u} are a {type(heads).__name__}, not a tuple")
    low, prev = n, -1
    for v in heads:
        if type(v) is not int or not (0 <= v < n):
            raise GraphError(f"arc ({u}, {v!r}) is not a pair of vertex ids with n={n}")
        if v == prev:
            raise GraphError(f"duplicate arc ({u}, {v})")
        if v < prev:
            raise GraphError(f"heads of vertex {u} not in sorted order")
        if pos[v] < low:
            low = pos[v]
        prev = v
    return low


class ImproperColoringError(GraphError):
    """Two adjacent vertices received the same color."""


class Coloring(_Record):
    """Proper total coloring; propriety is checked on construction."""

    _fields = ("graph", "color", "palette")

    def _check(self) -> None:
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


def orient(base: UndirectedGraph, arcs: Iterable[Iterable[int]]) -> AcyclicDigraph:
    """The acyclic orientation of ``base`` by ``arcs``, which name each of
    its edges exactly once, in either direction and in any order; the
    digraph carries ``base``'s labels.  A directed cycle raises
    DirectedCycleError."""
    pairs = vertex_pairs(base.n, arcs)
    unoriented = dict.fromkeys(base.edges)  # in edge order
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        if key in unoriented:
            del unoriented[key]
        elif base.has_edge(u, v):
            raise GraphError(f"edge {key} oriented twice")
        else:
            raise GraphError(f"oriented pair ({u}, {v}) is not an edge of the graph")
    if unoriented:
        raise GraphError(f"edge {next(iter(unoriented))} is not oriented")
    return AcyclicDigraph.build(base.n, pairs, base.labels)


def underlying(d: AcyclicDigraph) -> UndirectedGraph:
    """Underlying undirected graph of a digraph, labels preserved.

    The package reads the cached ``d.underlying``; this function is the
    entry point the benchmark harness (``perfbench``) calls.
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


def topological_order(out: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm with lowest-id-first tie-break, over the out-lists
    ``out[u]`` of the vertices 0..len(out)-1, in any order within a list.

    Returns the order of an acyclic arc set; otherwise raises
    DirectedCycleError, whose ``cycle`` lists the vertices of a directed
    cycle in order.
    """
    n = len(out)
    indeg = [0] * n
    for heads in out:
        for v in heads:
            indeg[v] += 1
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
        return order
    # Kahn leaves the vertices on or downstream of a directed cycle.  Search
    # them depth first, starting from each in increasing id and reading each
    # path vertex's sorted out-neighbors once.  A vertex whose out-neighbors
    # run out reaches no cycle and is dropped (indeg 0) before the path moves
    # past it, so the path walks lowest live out-neighbors from the lowest
    # vertex that reaches a cycle, and its first arc back into the path closes
    # the cycle.  Each vertex is pushed once and each arc read once.
    starts = iter(range(n))
    pos: dict[int, int] = {}  # index of each path vertex on the path
    path: list[int] = []
    unread: list[Iterator[int]] = []  # each path vertex's unread out-neighbors
    while True:
        w = next(unread[-1], -1) if path else next(starts)
        if w < 0:
            del pos[path[-1]]
            indeg[path.pop()] = 0
            unread.pop()
        elif w in pos:
            raise DirectedCycleError(path[pos[w]:])
        elif indeg[w]:
            pos[w] = len(path)
            path.append(w)
            unread.append(iter(sorted(out[w])))


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
# An orientation file is {"edges": [[u, v], ...]}: the arcs of the
# orientation's digraph in (tail, head) order, one per edge.  A coloring file
# is {"palette": <int>, "colors": {"<v>": <int>, ...}}, vertices in order.
#
# A document is produced in pieces.  The pairs of one tail u with heads
# (v1, v2, ...) are one piece of text, ", [u, v1], [u, v2], ...", at most
# JSON_CHUNK heads long, from one %-format of the heads; the first piece
# drops its leading ", ".  DOT files take their arc or edge lines the same
# way.  An undirected graph's edges are grouped by their first endpoint.
# Labels go in ascending key order, JSON_CHUNK at a time through json.dumps,
# with its outer braces stripped.  Writing a graph, orientation or DOT file
# never holds the whole text, only one piece, and a digraph's pairs come
# straight from its out-adjacency.

JSON_CHUNK = 1024


def _pair_pieces(g: UndirectedGraph | AcyclicDigraph, pair: str, skip: int = 0) -> Iterator[str]:
    """The text of ``g``'s pairs in canonical order, one piece per tail and
    JSON_CHUNK heads, each pair written as ``pair`` with the tail in its
    "{}" and the head in its "%d"; the first piece drops its first ``skip``
    characters.  Heads are ints, which "%d" writes as JSON does."""
    if isinstance(g, UndirectedGraph):
        tails = ((u, tuple(v for _, v in group)) for u, group in groupby(g.edges, itemgetter(0)))
    else:
        tails = enumerate(g.out_adjacency)
    for u, heads in tails:
        text = pair.format(u)
        for i in range(0, len(heads), JSON_CHUNK):
            part = heads[i:i + JSON_CHUNK]
            yield ((text * len(part)) % part)[skip:]
            skip = 0


def _json_chunks(g: UndirectedGraph | AcyclicDigraph) -> Iterator[str]:
    directed = isinstance(g, AcyclicDigraph)
    yield f'{{"n": {g.n}, "directed": {"true" if directed else "false"}, "edges": ['
    yield from _pair_pieces(g, ", [{}, %d]", 2)
    yield "]"
    if g.labels:
        # A slice holds only strs, so json.dumps is told not to look for cycles in it.
        yield ', "labels": {'
        items = ((str(k), g.labels[k]) for k in sorted(g.labels))
        sep = ""
        while part := dict(islice(items, JSON_CHUNK)):
            yield sep + json.dumps(part, check_circular=False)[1:-1]
            sep = ", "
        yield "}"
    yield "}"


def to_json(g: UndirectedGraph | AcyclicDigraph) -> str:
    return "".join(_json_chunks(g))


def write_json(g: UndirectedGraph | AcyclicDigraph, path: str) -> None:
    """Write ``to_json(g)`` and a newline to ``path``, one piece at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(g))
        fh.write("\n")


def write_orientation(d: AcyclicDigraph, path: str) -> None:
    """Write the orientation ``d`` of its underlying graph to ``path`` as
    {"edges": [...]} and a newline, its arcs in (tail, head) order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"edges": [')
        fh.writelines(_pair_pieces(d, ", [{}, %d]", 2))
        fh.write("]}\n")


def write_coloring(c: Coloring, path: str) -> None:
    """Write the coloring ``c`` to ``path`` as {"palette": ..., "colors":
    {"<v>": ...}} and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"palette": c.palette, "colors": dict(enumerate(c.color))}) + "\n")


def read_orientation(path: str, base: UndirectedGraph) -> AcyclicDigraph:
    """The orientation of ``base`` in the orientation file at ``path``; see
    ``orient``.  A fault of the file's JSON is reported with its path."""
    where = f"{path}: "
    no_edges = f"{where}orientation JSON needs an 'edges' key"
    obj = _json_object(_read_text(path), no_edges, where)
    if "edges" not in obj:
        raise GraphError(no_edges)
    if not isinstance(obj["edges"], list):
        raise GraphError(f"{where}'edges' must be a list of [u, v] pairs")
    return orient(base, obj["edges"])


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: malformed JSON: not UTF-8: {exc}") from exc


def _json_object(text: str | bytes, not_object: str, where: str = "") -> dict:
    """``text`` parsed as a JSON object; any other value raises GraphError
    with ``not_object``, and a malformed document with ``where`` in front."""
    # A ValueError is a JSONDecodeError, bytes that are not UTF-8 or an
    # integer past the digit limit; a RecursionError is nesting too deep.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"{where}malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GraphError(not_object)
    return obj


def read_graph(path: str, directed: bool | None = None) -> UndirectedGraph | AcyclicDigraph:
    """The graph in the JSON file at ``path``, which must be a digraph if
    ``directed`` is True and undirected if it is False."""
    g = graph_from_json(_read_text(path))
    if directed is not None and isinstance(g, AcyclicDigraph) != directed:
        kind = "a directed" if directed else "an undirected"
        raise GraphError(f"{path}: expected {kind} graph")
    return g


def graph_from_json(text: str | bytes) -> UndirectedGraph | AcyclicDigraph:
    obj = _json_object(text, "top-level JSON value must be an object")
    for key in ("n", "directed", "edges"):
        if key not in obj:
            raise GraphError(f"missing required key {key!r}")
    n = obj["n"]
    directed = obj["directed"]
    edges = obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphError("'n' must be a non-negative integer")
    check_size(n, f"graph has {n} vertices")
    if not isinstance(directed, bool):
        raise GraphError("'directed' must be a boolean")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of [u, v] pairs")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, dict):
            raise GraphError("'labels' must be an object")
        for k in labels:
            # Only the decimal form to_json writes: "00", " 1" and "1_0" are
            # rejected; a key longer than n's own decimal is out of range anyway.
            if not (k.isascii() and k.isdigit() and len(k) <= len(str(n)) and str(int(k)) == k):
                raise GraphError(f"label key {k!r} is not a vertex id in decimal")
        labels = {int(k): v for k, v in labels.items()}
    return (AcyclicDigraph if directed else UndirectedGraph).build(n, edges, labels)


def _dot_lines(g: UndirectedGraph | AcyclicDigraph) -> Iterator[str]:
    directed = isinstance(g, AcyclicDigraph)
    head = "digraph" if directed else "graph"
    op = "->" if directed else "--"
    yield f"{head} G {{\n"
    # Labels, in ascending key order, as DOT quoted strings.
    for v in sorted(g.labels or ()):
        text = g.labels[v].replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        yield f'  {v} [label="{text}"];\n'
    yield from _pair_pieces(g, f"  {{}} {op} %d;\n")
    yield "}\n"


def write_dot(g: UndirectedGraph | AcyclicDigraph, path: str) -> None:
    """Write the DOT rendering of ``g`` to ``path``, one piece of lines at a
    time; labels are used when present, and the output is deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dot_lines(g))
