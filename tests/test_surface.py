"""The package's surface.

Every public function and class of the package serves a command, a recipe
or the benchmark: its name appears in the code of ``src/`` or ``perfbench/``
somewhere besides its own ``def``/``class`` line.  A mention in a docstring
or a comment, or a package re-export in ``__init__.py``, is not a use,
and the package itself binds no function or class.
Importing the CLI loads no introspection module, and the record classes
behave as frozen records.
"""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftgraphs
from shiftgraphs import aop, cli, coloring, constructors, core, invariants, repro

ROOT = Path(__file__).resolve().parents[1]


def public_names():
    for mod in (aop, cli, coloring, constructors, core, invariants, repro):
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ == mod.__name__:
                yield f"{short}.{name}"


def code_lines(source: str) -> list[str]:
    """The lines of ``source`` with its docstrings and comments left out."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree).splitlines()  # unparse drops comments


def test_code_lines_skip_docstrings_and_comments():
    source = '''"""Uses helper."""
def f():
    """Calls helper."""
    # helper
    return g()  # helper
'''
    assert not any("helper" in line for line in code_lines(source))
    assert "return g()" in "\n".join(code_lines(source))


def test_every_public_name_is_used():
    lines = [
        line
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line in code_lines(path.read_text())
    ]
    unused = set()
    for qualified in public_names():
        name = qualified.rpartition(".")[2]
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.add(qualified)
    assert unused == set()


def test_package_binds_no_function_or_class():
    # Each name has one import path, through the module that defines it.
    bound = [
        name for name, obj in vars(shiftgraphs).items()
        if inspect.isfunction(obj) or inspect.isclass(obj)
    ]
    assert bound == []


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
    assert hash(d) == hash(core.AcyclicDigraph(3, ((), (), (0,)), (1, 2, 0)))
    assert hash(d.underlying) == hash(core.UndirectedGraph(3, ((0, 2),)))


def test_construction_by_position_with_defaults():
    assert aop.VerifyResult(True) == aop.VerifyResult(True, None, None)
    assert repr(aop.VerifyResult(True)) == "VerifyResult(ok=True, pair=None, paths=None)"
    assert aop.VerifyResult(False, (0, 2)).pair == (0, 2)
    stats = aop.SearchStats()
    assert (stats.nodes, stats.forced, stats.seconds) == (0, 0, 0.0)
    assert aop.SearchStats(3, 0, 0, 2) == aop.SearchStats(3, 0, 0, 2, 0, 0.0)
    g = core.UndirectedGraph(2, ((0, 1),))
    assert core.UndirectedGraph(2, ((0, 1),), None) == g and g.labels is None
    assert core.Coloring(g, (1, 0), 2).color == (1, 0)
    report = coloring.KabReport(1, 2, 1, 2, 3, 3, None)
    assert report == coloring.KabReport(1, 2, 1, 2, 3, 3, None) and report.k_star == 3
    d = core.AcyclicDigraph(2, ((), (0,)), (1, 0))
    assert d.topo == (1, 0) and d == core.AcyclicDigraph.build(2, [(1, 0)])
    assert repr(d) == "AcyclicDigraph(n=2, arcs=((1, 0),), labels=None)"
    assert aop.SearchStats(0, 0, 0, 0, 4) == aop.SearchStats(0, 0, 0, 0, 4, 0.0)
    assert repr(aop.SearchStats(3)) == (
        "SearchStats(nodes=3, prunes_cycle=0, prunes_double_path=0, forced=0, prunes_clause=0,"
        " seconds=0.0)"
    )


def test_records_refuse_keywords_and_wrong_counts():
    with pytest.raises(TypeError, match="unexpected keyword argument 'ok'"):
        aop.VerifyResult(ok=True)
    with pytest.raises(TypeError, match="unexpected keyword argument 'palette'"):
        core.Coloring(core.UndirectedGraph(1, ()), (0,), palette=1)
    for args in ((), (True, None, None, None)):  # too few, too many
        with pytest.raises(TypeError, match=r"^VerifyResult\(\) takes 1 to 3 arguments"):
            aop.VerifyResult(*args)
    with pytest.raises(TypeError, match=r"^AopVerdict\(\) takes 3 to 3 arguments, not 2"):
        aop.AopVerdict("no_aop", None)


def test_search_stats_are_mutable_and_unhashable():
    stats = aop.SearchStats()
    stats.nodes += 2
    stats.seconds = 0.5
    assert stats == aop.SearchStats(2, 0, 0, 0, 0, 0.5)
    with pytest.raises(TypeError):
        hash(stats)
