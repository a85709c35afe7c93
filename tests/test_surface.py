"""Every public function and class of the package serves a command, a recipe
or the benchmark: its name appears in ``src/`` or ``perfbench/`` somewhere
besides its own ``def``/``class`` line.  A package re-export in
``__init__.py`` is not a use."""

import inspect
import re
from pathlib import Path

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
