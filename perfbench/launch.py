"""Child-process entry point for the benchmark's jobs.

    python3 launch.py JOB SPANS cli ARGV...
    python3 launch.py JOB SPANS small-graphs DAGS_JSONL RESULTS_JSON

JOB names the job.  SPANS is ``-`` for an untraced run; otherwise the public
functions of every shiftgraphs module are rebound to span-recording wrappers,
both as module attributes and at each ``from ... import`` site, and the spans
are written to SPANS with ``marshal`` once the job ends.  A traced and an
untraced run of one job differ only by those wrappers.

The ``small-graphs`` mode runs the library on a stream of small DAGs and
writes one record of raw results per DAG; the harness checks the paper's
relations on them afterwards.
"""

from __future__ import annotations

import marshal
import sys
from time import perf_counter


def _count_graph_bytes(args, result):
    yield "bytes", len(args[0])


def _count_json_bytes(args, result):
    yield "bytes", len(result)


def _count_line_arcs(args, result):
    yield "arcs_out", len(result[0].arcs)


def _count_search(args, result):
    s = result.stats
    yield "nodes", s.nodes
    yield "prunes_cycle", s.prunes_cycle
    yield "prunes_double_path", s.prunes_double_path


# Extra counts recorded on the span of one call, keyed by span name.
COUNTERS = {
    "core.graph_from_json": _count_graph_bytes,
    "core.to_json": _count_json_bytes,
    "constructors.line_digraph": _count_line_arcs,
    "aop.decide_aop": _count_search,
}


class Tracer:
    """Spans kept in parallel lists; ``parent`` is a span index or -1."""

    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: list[tuple[int, str, int]] = []
        self._stack = [-1]

    def wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        counter = COUNTERS.get(span)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts.extend((idx, key, val) for key, val in counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function of the library to a traced wrapper."""
        import inspect

        import shiftgraphs
        from shiftgraphs import aop, cli, coloring, constructors, core, invariants, repro

        mods = {"core": core, "constructors": constructors, "invariants": invariants,
                "coloring": coloring, "aop": aop, "repro": repro}
        originals: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ):
                    originals[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        originals[id(cli.run)] = self.wrap("cli.run", cli.run)
        # Rebind at definition and import sites, and inside module-level
        # tables such as repro.RECIPES.
        for mod in (shiftgraphs, cli, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    setattr(mod, attr, originals[id(val)])
                elif isinstance(val, dict):
                    for key, item in val.items():
                        if id(item) in originals:
                            val[key] = originals[id(item)]

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump(
                (self.job, self.names, self.name, self.start, self.end, self.parent, self.counts),
                fh,
            )


def _finite(x):
    """JSON has no infinity; an infinite odd-girth (bipartite graph) is null."""
    return None if x == float("inf") else x


def small_graphs(dags_path: str, results_path: str) -> int:
    """Run the five library steps on each DAG and record the raw results."""
    import json

    from shiftgraphs import coloring, constructors, core, invariants

    records = []
    with open(dags_path) as fh:
        for line in fh:
            d = core.graph_from_json(line)
            ug = core.underlying(d)
            line_d, bd = constructors.line_digraph(d)
            violations = constructors.structure_violations(line_d, bd)
            ul = core.underlying(line_d)
            chi_g, base = invariants.chromatic_number(ug)
            chi_l, _ = invariants.chromatic_number(ul)
            col = coloring.log_color_line_digraph(d, base)
            lifted = coloring.lift_coloring(d, col)
            records.append([
                d.n, len(d.arcs), len(violations), chi_g, base.used, chi_l,
                col.palette, lifted.palette,
                _finite(invariants.odd_girth(ug)), _finite(invariants.odd_girth(ul)),
            ])
    with open(results_path, "w") as fh:
        json.dump(records, fh)
    return 0


def main(argv: list[str]) -> int:
    job, spans_path, mode, *rest = argv
    tracer = None
    if spans_path != "-":
        tracer = Tracer(job)
        tracer.install()
    try:
        if mode == "cli":
            from shiftgraphs import cli

            return cli.run(rest)
        if tracer is None:
            return small_graphs(*rest)
        return tracer.wrap("bench.small_graphs", small_graphs)(*rest)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
