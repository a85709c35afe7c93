"""Shift graphs, line digraphs, constructive colorings and one-path
acyclic orientations."""

from .core import (
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    InternalInvariantError,
    SizeCapExceeded,
    UndirectedGraph,
    graph_from_json,
    orient,
    to_json,
    topological_order,
    underlying,
    write_dot,
    write_json,
    write_orientation,
)

__all__ = [
    "AcyclicDigraph",
    "DirectedCycleError",
    "GraphError",
    "InternalInvariantError",
    "SizeCapExceeded",
    "UndirectedGraph",
    "graph_from_json",
    "orient",
    "to_json",
    "topological_order",
    "underlying",
    "write_dot",
    "write_json",
    "write_orientation",
]

__version__ = "0.1.0"
