"""Shift graphs, line digraphs, constructive colorings and one-path
acyclic orientations."""

from .core import (
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    InternalInvariantError,
    Orientation,
    SizeCapExceeded,
    UndirectedGraph,
    graph_from_json,
    to_dot,
    to_json,
    topological_order,
    underlying,
    write_dot,
    write_json,
)

__all__ = [
    "AcyclicDigraph",
    "DirectedCycleError",
    "GraphError",
    "InternalInvariantError",
    "Orientation",
    "SizeCapExceeded",
    "UndirectedGraph",
    "graph_from_json",
    "to_dot",
    "to_json",
    "topological_order",
    "underlying",
    "write_dot",
    "write_json",
]

__version__ = "0.1.0"
