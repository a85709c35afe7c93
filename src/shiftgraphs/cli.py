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
from pathlib import Path

from . import aop, coloring, constructors, invariants, repro
from .core import (
    AcyclicDigraph,
    Coloring,
    GraphError,
    InternalInvariantError,
    Orientation,
    SizeCapExceeded,
    UndirectedGraph,
    graph_from_json,
    underlying,
    write_dot,
    write_json,
)

EX_USAGE = 64
EX_SIZECAP = 65
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: malformed JSON: not UTF-8: {exc}") from exc


def _read_graph(path: str, directed: bool) -> UndirectedGraph | AcyclicDigraph:
    g = graph_from_json(_read_text(path))
    if isinstance(g, AcyclicDigraph) != directed:
        kind = "a directed" if directed else "an undirected"
        raise GraphError(f"{path}: expected {kind} graph")
    return g


def _read_orientation(path: str, base: UndirectedGraph) -> Orientation:
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # see graph_from_json
        raise GraphError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict) or "edges" not in obj:
        raise GraphError(f"{path}: orientation JSON needs an 'edges' key")
    if not isinstance(obj["edges"], list):
        raise GraphError(f"{path}: 'edges' must be a list of [u, v] pairs")
    return Orientation.build(base, obj["edges"])


def _emit(args, g: UndirectedGraph | AcyclicDigraph) -> None:
    if getattr(args, "out", None):
        write_json(g, args.out)
    if getattr(args, "dot", None):
        write_dot(g, args.dot)
    directed = isinstance(g, AcyclicDigraph)
    m = len(g.arcs) if directed else len(g.edges)
    kind = "digraph" if directed else "graph"
    print(f"{kind}: {g.n} vertices, {m} {'arcs' if directed else 'edges'}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="shiftgraphs", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a graph family member")
    gsub = gen.add_subparsers(dest="family", required=True)
    for name in ("tournament", "shift", "zykov", "gadget", "girth5"):
        gp = gsub.add_parser(name)
        gp.add_argument("-o", "--out", help="write graph JSON here")
        gp.add_argument("--dot", help="write DOT here")
        if name == "tournament":
            gp.add_argument("--n", type=int, required=True)
        elif name == "shift":
            gp.add_argument("--n", type=int, required=True)
            gp.add_argument("--k", type=int, default=2)
        elif name == "zykov":
            gp.add_argument("--n", type=int, required=True)
            gp.add_argument("--orient-out", help="write the one-path orientation JSON here")
        elif name == "gadget":
            gp.add_argument("--g", type=int, required=True)
        else:
            gp.add_argument("--seed-in", help="alternative girth-5 seed graph JSON")

    der = sub.add_parser("derive", help="derive a graph from another")
    dsub = der.add_subparsers(dest="op", required=True)
    dl = dsub.add_parser("line")
    dl.add_argument("--in", dest="infile", required=True)
    dl.add_argument("-o", "--out")
    dl.add_argument("--dot")
    di = dsub.add_parser("iterate")
    di.add_argument("--in", dest="infile", required=True)
    di.add_argument("--times", type=int, required=True)
    di.add_argument("-o", "--out")
    di.add_argument("--dot")

    chk = sub.add_parser("check", help="report structural invariants")
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--json", action="store_true")
    chk.add_argument("--chi-cap", type=int, default=100)

    col = sub.add_parser("color", help="constructive colorings")
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

    ap = sub.add_parser("aop", help="one-path orientation checks")
    asub = ap.add_subparsers(dest="mode", required=True)
    av = asub.add_parser("verify")
    av.add_argument("--in", dest="infile", required=True)
    av.add_argument("--orient", required=True)
    ad = asub.add_parser("decide")
    ad.add_argument("--in", dest="infile", required=True)
    ad.add_argument("--budget", type=int, default=aop.DEFAULT_NODE_BUDGET)
    ad.add_argument("--orient-out", help="write a found orientation here")

    rp = sub.add_parser("repro", help="run a reproduction recipe")
    rsub = rp.add_subparsers(dest="name", required=True)
    for name in sorted(repro.RECIPES):
        rn = rsub.add_parser(name)
        for flag in repro.RECIPE_FLAGS.get(name, ()):
            rn.add_argument(f"--{flag}", type=int)
    return p


def _write_coloring(path: str | None, col: Coloring) -> None:
    if path:
        payload = {
            "palette": col.palette,
            "colors": {str(v): c for v, c in enumerate(col.color)},
        }
        Path(path).write_text(json.dumps(payload) + "\n")


def _cmd_gen(args) -> int:
    if args.family == "tournament":
        _emit(args, constructors.acyclic_tournament(args.n))
    elif args.family == "shift":
        _emit(args, constructors.shift_graph(args.n, args.k))
    elif args.family == "zykov":
        g, o = constructors.zykov(args.n)
        _emit(args, g)
        if args.orient_out:
            write_json(o, args.orient_out)
    elif args.family == "gadget":
        _emit(args, constructors.odd_girth_gadget(args.g))
    else:
        seed = _read_graph(args.seed_in, directed=False) if args.seed_in else None
        _emit(args, constructors.girth5_non_aop(seed))
    return 0


def _cmd_derive(args) -> int:
    d = _read_graph(args.infile, directed=True)
    if args.op == "line":
        line, _ = constructors.line_digraph(d)
        _emit(args, line)
    else:
        _emit(args, constructors.iterate_line_digraph(d, args.times))
    return 0


def _cmd_check(args) -> int:
    g = graph_from_json(_read_text(args.infile))
    und = underlying(g) if isinstance(g, AcyclicDigraph) else g
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
        d = _read_graph(args.infile, directed=True)
        base = repro.exact_coloring(underlying(d))
        col = coloring.log_color_line_digraph(d, base)
        _write_coloring(args.out, col)
        print(f"base colors: {base.used}, line palette: {col.palette}")
        return 0
    if args.mode == "kabfree":
        d = _read_graph(args.infile, directed=True)
        col, rep = coloring.color_kab_free(d, args.a, args.b)
        if args.json:
            w = rep.witness
            print(json.dumps({
                "left_size": rep.left_size,
                "right_size": rep.right_size,
                "left_colors": rep.left_colors,
                "right_colors": rep.right_colors,
                "k_star": rep.k_star,
                "palette": rep.palette,
                "witness": None if w is None else {"left": w.left, "right": w.right},
            }))
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
    g = _read_graph(args.infile, directed=False)
    if args.direction == "to-orient":
        base = repro.exact_coloring(g)
        o = coloring.coloring_to_orientation(g, base)
        if args.out:
            write_json(o, args.out)
        print(f"{base.palette}-coloring oriented; longest path < {base.palette} edges")
    else:
        if not args.orient:
            raise GraphError("to-color requires --orient")
        o = _read_orientation(args.orient, g)
        c = coloring.orientation_to_coloring(o)
        _write_coloring(args.out, c)
        print(f"longest-path coloring with palette {c.palette}")
    return 0


def _cmd_aop(args) -> int:
    g = _read_graph(args.infile, directed=False)
    if args.mode == "verify":
        o = _read_orientation(args.orient, g)
        res = aop.verify_aop(o)
        if res.ok:
            print("verified: acyclic, at most one directed path per pair")
            return 0
        if res.cycle is not None:
            print(f"refuted: directed cycle {list(res.cycle)}")
        else:
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
            write_json(verdict.witness, args.orient_out)
        return 0
    return 1 if verdict.status == "no_aop" else 2


def _cmd_repro(args) -> int:
    flags = repro.RECIPE_FLAGS.get(args.name, ())
    kwargs = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    results = repro.RECIPES[args.name](**kwargs)
    ok = True
    for name, passed, detail in results:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name} ({detail})")
    return 0 if ok else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "derive": _cmd_derive,
    "check": _cmd_check,
    "color": _cmd_color,
    "aop": _cmd_aop,
    "repro": _cmd_repro,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.cmd](args)
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
