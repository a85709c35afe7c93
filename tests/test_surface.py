"""The package's surface.

Every public function and class of the package serves a command, a recipe
or the benchmark: its name appears in ``src/`` or ``perfbench/`` somewhere
besides its own ``def``/``class`` line.  A package re-export in
``__init__.py`` is not a use.  Importing the CLI loads no introspection
module, and the record classes behave as frozen records.
"""

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shiftgraphs import aop, cli, coloring, constructors, core, invariants, repro

ROOT = Path(__file__).resolve().parents[1]

# ROADMAP item 3 wires these into `repro zykov-aop`; until then they have
# no caller.
NOT_YET_WIRED = {"constructors.induced_line_subdigraph", "invariants.extract_odd_cycle"}


def public_names():
    for mod in (aop, cli, coloring, constructors, core, invariants, repro):
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ == mod.__name__:
                yield f"{short}.{name}"


def test_every_public_name_is_used():
    lines = [
        line
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    unused = set()
    for qualified in public_names():
        name = qualified.rpartition(".")[2]
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.add(qualified)
    assert unused == NOT_YET_WIRED


def test_cli_import_loads_no_introspection_modules():
    """``dataclasses`` pulls ``inspect``, ``ast``, ``dis`` and ``tokenize``
    into every start; none of them, nor ``typing``, is needed to run."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import shiftgraphs.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# Records: fields set once in the constructor, compared, hashed and shown
# field by field.

FROZEN = [
    core.UndirectedGraph.build(3, [(0, 1)]),
    core.AcyclicDigraph.build(3, [(1, 0)]),
    core.Coloring(core.UndirectedGraph.build(2, [(0, 1)]), (0, 1), 2),
    core.Orientation.build(core.UndirectedGraph.build(2, [(0, 1)]), [(1, 0)]),
    aop.VerifyResult(True),
    aop.AopVerdict("no_aop", None, aop.SearchStats()),
    coloring.KabWitness((0,), (1,)),
    coloring.KabReport(1, 1, 1, 1, 1, 1, None),
    constructors.line_digraph(core.AcyclicDigraph.build(3, [(0, 1), (1, 2)]))[1],
    invariants.DegeneracyCertificate((0,), (0,), 0),
]


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_label_free_graphs_hash_alike():
    g = core.UndirectedGraph.build(4, [(2, 1), (0, 3)])
    h = core.UndirectedGraph(4, ((0, 3), (1, 2)))
    assert g == h and g is not h
    assert hash(g) == hash(h) == hash((4, ((0, 3), (1, 2)), None))
    assert len({g, h, core.UndirectedGraph(4, ())}) == 2
    d = core.AcyclicDigraph.build(3, [(2, 0)])
    assert hash(d) == hash(core.AcyclicDigraph(3, ((2, 0),), (1, 2, 0)))
    assert hash(d.underlying) == hash(core.UndirectedGraph(3, ((0, 2),)))


def test_construction_by_position_and_keyword_with_defaults():
    assert aop.VerifyResult(ok=True) == aop.VerifyResult(True, None, None, None)
    assert repr(aop.VerifyResult(ok=True)) == (
        "VerifyResult(ok=True, cycle=None, pair=None, paths=None)"
    )
    assert aop.VerifyResult(False, pair=(0, 2)).pair == (0, 2)
    stats = aop.SearchStats()
    assert (stats.nodes, stats.forced, stats.seconds) == (0, 0, 0.0)
    assert aop.SearchStats(3, forced=2) == aop.SearchStats(nodes=3, forced=2)
    g = core.UndirectedGraph(2, ((0, 1),))
    assert core.UndirectedGraph(n=2, edges=((0, 1),)) == g and g.labels is None
    assert core.Coloring(g, (1, 0), palette=2).color == (1, 0)
    assert coloring.KabReport(1, 2, 1, 2, 3, 3, None) == coloring.KabReport(
        left_size=1, right_size=2, left_colors=1, right_colors=2, k_star=3, palette=3,
        witness=None,
    )
    with pytest.raises(TypeError):
        aop.VerifyResult()


def test_search_stats_are_mutable_and_unhashable():
    stats = aop.SearchStats()
    stats.nodes += 2
    stats.seconds = 0.5
    assert stats == aop.SearchStats(nodes=2, seconds=0.5)
    with pytest.raises(TypeError):
        hash(stats)
