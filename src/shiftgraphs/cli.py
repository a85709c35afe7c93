"""Command line interface.

Subcommands: gen, derive, check, color, aop, repro.  Graphs travel as JSON
files in the canonical schema; ``--dot`` writes DOT.  Exit codes: 0 success,
1 refuted (aop), 2 timeout (aop), 64 usage or bad input, 65 size cap,
70 internal invariant breach or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from . import aop, coloring, constructors, invariants, repro
from .core import (
    AcyclicDigraph,
    DirectedCycleError,
    GraphError,
    InternalInvariantError,
    SizeCapExceeded,
    UndirectedGraph,
    read_graph,
    read_orientation,
    write_coloring,
    write_dot,
    write_json,
    write_orientation,
)

EX_USAGE = 64
EX_SIZECAP = 65
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _emit(args, g: UndirectedGraph | AcyclicDigraph) -> None:
    if getattr(args, "out", None):
        write_json(g, args.out)
    if getattr(args, "dot", None):
        write_dot(g, args.dot)
    directed = isinstance(g, AcyclicDigraph)
    m = sum(map(len, g.out_adjacency)) if directed else len(g.edges)
    kind = "digraph" if directed else "graph"
    print(f"{kind}: {g.n} vertices, {m} {'arcs' if directed else 'edges'}")


def _add_gen(gen: argparse.ArgumentParser) -> None:
    gsub = gen.add_subparsers(dest="family", required=True)
    for name in ("tournament", "shift", "zykov", "gadget", "girth5"):
        gp = gsub.add_parser(name)
        gp.add_argument("-o", "--out", help="write graph JSON here")
        gp.add_argument("--dot", help="write DOT here")
        if name in ("tournament", "shift", "zykov"):
            gp.add_argument("--n", type=int, required=True)
        if name == "shift":
            gp.add_argument("--k", type=int, default=2)
        elif name == "zykov":
            gp.add_argument("--orient-out", help="write the one-path orientation JSON here")
        elif name == "gadget":
            gp.add_argument("--g", type=int, required=True)
        elif name == "girth5":
            gp.add_argument("--seed-in", help="alternative girth-5 seed graph JSON")


def _add_derive(der: argparse.ArgumentParser) -> None:
    dsub = der.add_subparsers(dest="op", required=True)
    for name in ("line", "iterate"):
        dp = dsub.add_parser(name)
        dp.add_argument("--in", dest="infile", required=True)
        if name == "iterate":
            dp.add_argument("--times", type=int, required=True)
        else:
            dp.set_defaults(times=1)
        dp.add_argument("-o", "--out")
        dp.add_argument("--dot")


def _add_check(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--json", action="store_true")
    chk.add_argument("--chi-cap", type=int, default=100)


def _add_color(col: argparse.ArgumentParser) -> None:
    csub = col.add_subparsers(dest="mode", required=True)
    cl = csub.add_parser("log")
    cl.add_argument("--in", dest="infile", required=True, help="acyclic digraph JSON")
    cl.add_argument("-o", "--out", help="write the line coloring JSON here")
    ck = csub.add_parser("kabfree")
    ck.add_argument("--in", dest="infile", required=True, help="tournament subdigraph JSON")
    ck.add_argument("--a", type=int, required=True)
    ck.add_argument("--b", type=int, required=True)
    ck.add_argument("--json", action="store_true")
    cg = csub.add_parser("gallai-roy")
    cg.add_argument("direction", choices=("to-orient", "to-color"))
    cg.add_argument("--in", dest="infile", required=True)
    cg.add_argument("--orient", help="orientation JSON (to-color)")
    cg.add_argument("-o", "--out")


def _add_aop(ap: argparse.ArgumentParser) -> None:
    asub = ap.add_subparsers(dest="mode", required=True)
    av = asub.add_parser("verify")
    av.add_argument("--in", dest="infile", required=True)
    av.add_argument("--orient", required=True)
    ad = asub.add_parser("decide")
    ad.add_argument("--in", dest="infile", required=True)
    ad.add_argument("--budget", type=int, default=aop.DEFAULT_NODE_BUDGET)
    ad.add_argument("--orient-out", help="write a found orientation here")


# A recipe's flags are its parameters, read off its code at import: a wrapper
# bound later (perfbench's tracer wraps every public function) hides that code.
_RECIPE_FLAGS = {
    k: f.__code__.co_varnames[:f.__code__.co_argcount] for k, f in repro.RECIPES.items()
}


def _add_repro(rp: argparse.ArgumentParser) -> None:
    rsub = rp.add_subparsers(dest="name", required=True)
    for name in sorted(repro.RECIPES):
        rn = rsub.add_parser(name)
        for flag in _RECIPE_FLAGS[name]:
            rn.add_argument(f"--{flag}", type=int)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command with its help line, but only
    the command that ``argv`` names, its first argument not starting with
    "-", gets its flags and subcommands.  Parsing ``argv`` never reaches
    another command's parser; filling in all six took 29 parsers per start,
    most of them for recipes and families the run never named."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    p = _Parser(prog="shiftgraphs", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (text, add, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        if name == named:
            add(cmd)
    return p


def _cmd_gen(args) -> int:
    if args.family == "tournament":
        _emit(args, constructors.acyclic_tournament(args.n))
    elif args.family == "shift":
        _emit(args, constructors.shift_graph(args.n, args.k))
    elif args.family == "zykov":
        d = constructors.zykov(args.n)
        _emit(args, d.underlying)
        if args.orient_out:
            write_orientation(d, args.orient_out)
    elif args.family == "gadget":
        _emit(args, constructors.odd_girth_gadget(args.g))
    else:
        seed = read_graph(args.seed_in, directed=False) if args.seed_in else None
        _emit(args, constructors.girth5_non_aop(seed))
    return 0


def _cmd_derive(args) -> int:
    d = read_graph(args.infile, directed=True)
    _emit(args, constructors.iterate_line_digraph(d, args.times))
    return 0


def _cmd_check(args) -> int:
    if args.chi_cap < 0:
        raise GraphError(f"--chi-cap must be non-negative, not {args.chi_cap}")
    g = read_graph(args.infile)
    und = g.underlying if isinstance(g, AcyclicDigraph) else g
    report: dict[str, object] = {
        "n": und.n,
        "edges": len(und.edges),
        "girth": invariants.girth(und),
        "odd_girth": invariants.odd_girth(und),
        "omega": invariants.clique_number(und),
        "degeneracy": invariants.degeneracy(und).degeneracy,
    }
    report["triangle_free"] = report["omega"] <= 2
    if und.n <= args.chi_cap:
        chi, _ = invariants.chromatic_number(und, cap=args.chi_cap)
        report["chi"] = chi
    # JSON has no infinity, so an infinite (odd-)girth prints as "inf" in both forms.
    report = {k: "inf" if v is math.inf else v for k, v in report.items()}
    if args.json:
        print(json.dumps(report))
    else:
        for k, v in report.items():
            print(f"{k}: {str(v).lower() if isinstance(v, bool) else v}")
    return 0


def _cmd_color(args) -> int:
    if args.mode == "log":
        d = read_graph(args.infile, directed=True)
        _, base = invariants.chromatic_number(d.underlying)
        col = coloring.log_color_line_digraph(d, base)
        if args.out:
            write_coloring(col, args.out)
        print(f"base colors: {base.used}, line palette: {col.palette}")
        return 0
    if args.mode == "kabfree":
        d = read_graph(args.infile, directed=True)
        col, rep = coloring.color_kab_free(d, args.a, args.b)
        if args.json:
            obj = {f: getattr(rep, f) for f in rep._fields}
            if rep.witness is not None:
                obj["witness"] = {"left": rep.witness.left, "right": rep.witness.right}
            print(json.dumps(obj))
        else:
            print(
                f"low side {rep.left_size} vertices / {rep.left_colors} colors, "
                f"high side {rep.right_size} / {rep.right_colors}, "
                f"final palette {rep.palette} (k* {rep.k_star})"
            )
            if rep.witness is not None:
                print(
                    f"complete bipartite witness: left {list(rep.witness.left)}, "
                    f"right {list(rep.witness.right)}"
                )
        return 0
    # gallai-roy
    g = read_graph(args.infile, directed=False)
    if args.direction == "to-orient":
        _, base = invariants.chromatic_number(g)
        d = coloring.coloring_to_orientation(g, base)
        if args.out:
            write_orientation(d, args.out)
        print(f"{base.palette}-coloring oriented; longest path < {base.palette} edges")
    else:
        if not args.orient:
            raise GraphError("to-color requires --orient")
        c = coloring.orientation_to_coloring(read_orientation(args.orient, g))
        if args.out:
            write_coloring(c, args.out)
        print(f"longest-path coloring with palette {c.palette}")
    return 0


def _cmd_aop(args) -> int:
    if args.mode == "decide" and args.budget < 0:
        raise GraphError(f"--budget must be non-negative, not {args.budget}")
    g = read_graph(args.infile, directed=False)
    if args.mode == "verify":
        try:
            res = aop.verify_aop(read_orientation(args.orient, g))
        except DirectedCycleError as exc:
            print(f"refuted: directed cycle {exc.cycle}")
            return 1
        if res.ok:
            print("verified: acyclic, at most one directed path per pair")
            return 0
        print(f"refuted: pair {res.pair} has two directed paths {res.paths}")
        return 1
    verdict = aop.decide_aop(g, max_nodes=args.budget)
    s = verdict.stats
    print(
        f"{verdict.status}: {s.nodes} nodes, {s.prunes_cycle} cycle prunes, "
        f"{s.prunes_double_path} double-path prunes, {s.forced} forced, "
        f"{s.prunes_clause} clause prunes, {s.seconds:.2f}s"
    )
    if verdict.status == "has_aop":
        if args.orient_out and verdict.witness is not None:
            write_orientation(verdict.witness, args.orient_out)
        return 0
    return 1 if verdict.status == "no_aop" else 2


def _cmd_repro(args) -> int:
    kwargs = {f: v for f in _RECIPE_FLAGS[args.name] if (v := getattr(args, f)) is not None}
    results = repro.RECIPES[args.name](**kwargs)
    ok = True
    for name, passed, detail in results:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name} ({detail})")
    return 0 if ok else 1


# Each command: its help line, the function that adds its flags and
# subcommands, and the function that runs it.
_COMMANDS = {
    "gen": ("generate a graph family member", _add_gen, _cmd_gen),
    "derive": ("derive a graph from another", _add_derive, _cmd_derive),
    "check": ("report structural invariants", _add_check, _cmd_check),
    "color": ("constructive colorings", _add_color, _cmd_color),
    "aop": ("one-path orientation checks", _add_aop, _cmd_aop),
    "repro": ("run a reproduction recipe", _add_repro, _cmd_repro),
}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.cmd][2](args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SIZECAP
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # exit 1 means "refuted", never a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
