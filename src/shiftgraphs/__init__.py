"""Shift graphs, line digraphs, constructive colorings and one-path
acyclic orientations."""
