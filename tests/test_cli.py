import gc
import io
import json
import math
import pathlib
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftgraphs import cli, constructors, core, invariants, repro
from shiftgraphs.constructors import BagDecomposition
from shiftgraphs.core import AcyclicDigraph, UndirectedGraph, graph_from_json, to_json

from conftest import FIXED_POINT_CASES, labeled_dag


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_tournament_golden_bytes(self, tmp_path, capsys):
        out = tmp_path / "t4.json"
        code, stdout, _ = run(capsys, "gen", "tournament", "--n", "4", "-o", str(out))
        assert code == 0
        assert "4 vertices" in stdout
        assert out.read_text() == (
            '{"n": 4, "directed": true, "edges": '
            "[[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}\n"
        )

    def test_gen_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "shift", "--n", "7", "-o", str(a))
        run(capsys, "gen", "shift", "--n", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_shift_and_dot(self, tmp_path, capsys):
        out, dot = tmp_path / "g.json", tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "gen", "shift", "--n", "5", "-o", str(out), "--dot", str(dot)
        )
        assert code == 0
        g = graph_from_json(out.read_text())
        assert g.n == 10 and len(g.edges) == 10
        text = dot.read_text()
        assert text.startswith("graph G {") and "--" in text

    def test_zykov_with_orientation(self, tmp_path, capsys):
        gout, oout = tmp_path / "z.json", tmp_path / "zo.json"
        code, _, _ = run(
            capsys,
            "gen", "zykov", "--n", "4", "-o", str(gout), "--orient-out", str(oout),
        )
        assert code == 0
        g = graph_from_json(gout.read_text())
        arcs = json.loads(oout.read_text())["edges"]
        assert g.n == 18 and len(arcs) == len(g.edges) == 36
        code, stdout, _ = run(
            capsys, "aop", "verify", "--in", str(gout), "--orient", str(oout)
        )
        assert code == 0
        assert "verified" in stdout

    def test_size_cap_exits_65_before_allocation(self, capsys):
        for argv in (
            ("tournament", "--n", "2000"),
            ("shift", "--n", "2000"),
            ("gadget", "--g", "333335"),
            ("zykov", "--n", "7"),
        ):
            start = time.perf_counter()
            code, _, err = run(capsys, "gen", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 65 and "size cap" in err

    def test_bad_family_usage(self, capsys):
        code, _, _ = run(capsys, "gen", "nonsense")
        assert code == 64

    def test_zykov_index_must_be_positive(self, capsys):
        err = "error: Zykov index must be positive\n"
        assert run(capsys, "gen", "zykov", "--n", "0") == (64, "", err)

    def test_girth5_seed_in_keeps_seed_labels(self, tmp_path, capsys):
        b = constructors.brinkmann_graph()
        perm = list(range(b.n))
        random.Random(5).shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in b.edges]
        seed = UndirectedGraph.build(b.n, edges, {v: f"s{v}" for v in range(b.n)})
        seed_file, out = tmp_path / "seed.json", tmp_path / "out.json"
        core.write_json(seed, str(seed_file))
        argv = ("gen", "girth5", "--seed-in", str(seed_file), "-o", str(out))
        assert run(capsys, *argv) == (0, "graph: 63 vertices, 126 edges\n", "")
        assert out.read_text() == to_json(constructors.girth5_non_aop(seed)) + "\n"
        # The seed's labels carry over; the 42 apexes get none.
        assert graph_from_json(out.read_text()).labels == seed.labels

    # Five disjoint copies of the Brinkmann graph: girth 5, 105 vertices.
    FIVE_BRINKMANNS = UndirectedGraph.build(
        105,
        [(u + 21 * i, v + 21 * i) for i in range(5) for u, v in constructors.brinkmann_graph().edges],
    )

    @pytest.mark.parametrize(
        "seed, code, err",
        [
            (constructors.shift_graph(5, 2), 64, "error: seed graph must have girth exactly 5\n"),
            (
                UndirectedGraph.build(5, [(i, (i + 1) % 5) for i in range(5)]),
                64,
                "error: seed graph must have chromatic number at least 4\n",
            ),
            (FIVE_BRINKMANNS, 65, "error: chromatic_number cap 100 exceeded (n=105)\n"),
        ],
        ids=["girth4", "c5", "five-brinkmanns"],
    )
    def test_girth5_seed_in_rejects(self, tmp_path, capsys, seed, code, err):
        seed_file, out = tmp_path / "seed.json", tmp_path / "out.json"
        core.write_json(seed, str(seed_file))
        argv = ("gen", "girth5", "--seed-in", str(seed_file), "-o", str(out))
        assert run(capsys, *argv) == (code, "", err)
        assert not out.exists()


# Every command and its subcommands, as --help lists them.
SUBCOMMANDS = {
    "gen": ("tournament", "shift", "zykov", "gadget", "girth5"),
    "derive": ("line", "iterate"),
    "check": (),
    "color": ("log", "kabfree", "gallai-roy"),
    "aop": ("verify", "decide"),
    "repro": tuple(sorted(repro.RECIPES)),
}


class TestParser:
    def test_help_lists_every_command(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out
        for name in SUBCOMMANDS:
            assert re.search(rf"^ +{name} +\w", out, re.M), name

    @pytest.mark.parametrize(
        "argv",
        [(cmd,) for cmd in SUBCOMMANDS]
        + [(cmd, sub) for cmd, subs in SUBCOMMANDS.items() for sub in subs],
        ids=" ".join,
    )
    def test_each_help_exits_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--help")
        assert code == 0
        assert out.startswith(f"usage: shiftgraphs {' '.join(argv)} [-h]")

    @pytest.mark.parametrize("argv", [("nonsense",), ("gen", "nonsense"), ("repro", "nonsense")])
    def test_unknown_command_exits_64(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert "invalid choice: 'nonsense'" in err

    def test_only_the_named_command_is_filled_in(self, monkeypatch):
        # The top-level parser and one per command; filling in every command
        # made 29 parsers, most of them for the 10 recipes and 5 families.
        made = []
        real = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli.build_parser(["check", "--in", "g.json"])
        assert len(made) == 1 + len(SUBCOMMANDS)
        made.clear()
        cli.build_parser(["repro", "kab"])
        assert len(made) == 1 + len(SUBCOMMANDS) + len(repro.RECIPES)


class TestDeriveAndCheck:
    def test_line_of_tournament(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        line = tmp_path / "line.json"
        run(capsys, "gen", "tournament", "--n", "5", "-o", str(t))
        code, _, _ = run(capsys, "derive", "line", "--in", str(t), "-o", str(line))
        assert code == 0
        g = graph_from_json(line.read_text())
        assert g.n == 10 and len(g.arcs) == 10

    @pytest.mark.parametrize("name", ["t5", "labeled_dag", "empty"])
    def test_line_is_iterate_once(self, tmp_path, capsys, name):
        # The labeled DAG's topological order, as read back from JSON, is not
        # the identity, so line vertex ids and labels follow that order.
        d = {
            "t5": constructors.acyclic_tournament(5),
            "labeled_dag": labeled_dag(random.Random(7), 9, 0.5),
            "empty": FIXED_POINT_CASES["empty"],
        }[name]
        src = tmp_path / "in.json"
        src.write_text(to_json(d) + "\n")
        assert graph_from_json(src.read_text()).topo == d.topo
        outputs = []
        for argv in (("line",), ("iterate", "--times", "1")):
            js, dot = tmp_path / f"{argv[0]}.json", tmp_path / f"{argv[0]}.dot"
            code, stdout, err = run(
                capsys, "derive", *argv, "--in", str(src), "-o", str(js), "--dot", str(dot)
            )
            assert code == 0 and err == ""
            outputs.append((stdout, js.read_bytes(), dot.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_line_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # The run caches no (line, bags) pair on the digraph it read, and a
        # bag decomposition keeps its parent's order, not its parent, so the
        # digraph, its line digraph and its bags go when their last reference
        # does and leave the collector no cycle.
        t60 = tmp_path / "t60.json"
        run(capsys, "gen", "tournament", "--n", "60", "-o", str(t60))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code, _, _ = run(capsys, "derive", "line", "--in", str(t60), "-o", str(tmp_path / "l1"))
            gc.collect()
            kept = (AcyclicDigraph, BagDecomposition)
            left = [type(x).__name__ for x in gc.garbage if isinstance(x, kept)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert code == 0
        assert left == []

    def test_iterate_cap_exit(self, tmp_path, capsys, monkeypatch):
        # One vertex cap for every line digraph, and no per-command knob.
        t = tmp_path / "t.json"
        run(capsys, "gen", "tournament", "--n", "8", "-o", str(t))
        code, _, err = run(
            capsys, "derive", "iterate", "--in", str(t), "--times", "2", "--cap", "10"
        )
        assert code == 64
        assert "--cap" in err
        monkeypatch.setattr(core, "DEFAULT_SIZE_CAP", 10)
        for argv in (("line",), ("iterate", "--times", "2")):
            code, out, err = run(capsys, "derive", *argv, "--in", str(t))
            assert code == 65
            assert out == ""
            assert "28 vertices" in err

    @pytest.mark.parametrize("name", sorted(FIXED_POINT_CASES))
    def test_iterate_stops_at_the_empty_digraph(self, tmp_path, capsys, name, line_steps):
        src, far, exact = (tmp_path / f for f in ("in.json", "far.json", "exact.json"))
        src.write_text(to_json(FIXED_POINT_CASES[name]) + "\n")
        argv = ("derive", "iterate", "--in", str(src), "--times")
        code, stdout, _ = run(capsys, *argv, str(10**30), "-o", str(far))
        assert code == 0 and stdout == "digraph: 0 vertices, 0 arcs\n"
        code, _, _ = run(capsys, *argv, str(len(line_steps)), "-o", str(exact))
        assert code == 0 and far.read_bytes() == exact.read_bytes()

    def test_line_digraph_cap_exits_65_before_allocation(self, tmp_path, capsys):
        # A bowtie: k arcs into the hub k and k out of it, so k * k line arcs.
        k = 1001
        arcs = [(i, k) for i in range(k)] + [(k, k + 1 + i) for i in range(k)]
        bowtie = tmp_path / "bowtie.json"
        bowtie.write_text(to_json(AcyclicDigraph.build(2 * k + 1, arcs)))
        start = time.perf_counter()
        code, _, err = run(capsys, "derive", "line", "--in", str(bowtie))
        assert time.perf_counter() - start < 1.0
        assert code == 65 and "1002001 arcs" in err

    def test_vertex_count_cap_exits_65(self, tmp_path, capsys):
        g = tmp_path / "huge.json"
        g.write_text('{"n": 1000000000000000000000000000000, "directed": false, "edges": []}')
        start = time.perf_counter()
        code, _, err = run(capsys, "check", "--in", str(g))
        assert time.perf_counter() - start < 1.0
        assert code == 65 and "size cap" in err

    def test_check_json_report(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        run(capsys, "gen", "shift", "--n", "9", "-o", str(g))
        code, stdout, _ = run(capsys, "check", "--in", str(g), "--json")
        assert code == 0
        report = json.loads(stdout)
        assert report == {
            "n": 36,
            "edges": 84,
            "girth": 4,
            "odd_girth": 5,
            "omega": 2,
            "degeneracy": 4,
            "triangle_free": True,
            "chi": 4,
        }

    def test_check_infinite_girth(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 3, "directed": false, "edges": [[0, 1]]}')
        code, stdout, _ = run(capsys, "check", "--in", str(g), "--json")
        assert code == 0
        report = json.loads(stdout)
        assert report["girth"] == "inf" and report["odd_girth"] == "inf"

    def test_check_negative_chi_cap_is_bad_input(self, tmp_path, capsys):
        # Not a report with chi silently left out.
        g = tmp_path / "t5.json"
        run(capsys, "gen", "tournament", "--n", "5", "-o", str(g))
        code, stdout, err = run(capsys, "check", "--in", str(g), "--chi-cap", "-5")
        assert code == 64 and stdout == ""
        assert err == "error: --chi-cap must be non-negative, not -5\n"
        code, stdout, _ = run(capsys, "check", "--in", str(g), "--chi-cap", "0", "--json")
        assert code == 0 and "chi" not in json.loads(stdout)

    def test_check_long_path_chromatic_number(self, tmp_path, capsys):
        # DSATUR colors one vertex per backtracking level: 1,500 levels are
        # deeper than Python's default recursion limit.
        n = 1500
        g = tmp_path / "path.json"
        g.write_text(to_json(UndirectedGraph.build(n, [(i, i + 1) for i in range(n - 1)])))
        code, stdout, err = run(capsys, "check", "--in", str(g), "--chi-cap", "5000")
        assert code == 0
        assert "chi: 2" in stdout.splitlines()
        assert "Traceback" not in err

    @pytest.mark.parametrize("edges", ['[["0", 1]]', "[[0, 1.0]]", "[[0, 1], [0, 1]]"])
    def test_check_rejects_bad_directed_json(self, tmp_path, capsys, edges):
        g = tmp_path / "g.json"
        g.write_text(f'{{"n": 3, "directed": true, "edges": {edges}}}')
        code, _, err = run(capsys, "check", "--in", str(g))
        assert code == 64
        assert "error" in err

    def test_check_empty_graph(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 0, "directed": false, "edges": []}')
        code, stdout, _ = run(capsys, "check", "--in", str(g), "--json")
        assert code == 0
        assert json.loads(stdout)["chi"] == 0

    def test_malformed_input_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "check", "--in", str(bad))
        assert code == 64
        assert "error" in err

    @pytest.mark.parametrize(
        "labels", ['{"1_0": "x", "0": null}', '{"0": "a", "00": "b"}']
    )
    def test_coercible_labels_exit(self, tmp_path, capsys, labels):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"n": 11, "directed": false, "edges": [], "labels": {labels}}}')
        code, _, err = run(capsys, "check", "--in", str(bad))
        assert code == 64
        assert "label" in err

    def test_label_list_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "directed": false, "edges": [[0, 1]], "labels": ["a", "b"]}')
        err = "error: 'labels' must be an object\n"
        assert run(capsys, "check", "--in", str(bad)) == (64, "", err)

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", "--in", str(tmp_path / "absent.json"))
        assert code == 64

    @pytest.mark.parametrize("flag", ["-o", "--dot", "--orient-out"])
    def test_output_into_missing_directory_exit(self, tmp_path, capsys, flag):
        target = str(tmp_path / "absent" / "out")
        code, _, err = run(capsys, "gen", "zykov", "--n", "3", flag, target)
        assert code == 64
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_input_exit(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", "--in", str(tmp_path))
        assert code == 64
        assert "error" in err

    def test_wrong_kind_exit(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        code, _, _ = run(capsys, "derive", "line", "--in", str(g))
        assert code == 64


class TestColor:
    def test_log(self, tmp_path, capsys):
        t, out = tmp_path / "t.json", tmp_path / "c.json"
        run(capsys, "gen", "tournament", "--n", "5", "-o", str(t))
        code, stdout, _ = run(capsys, "color", "log", "--in", str(t), "-o", str(out))
        assert code == 0
        assert "line palette: 4" in stdout
        payload = json.loads(out.read_text())
        assert payload["palette"] == 4
        assert len(payload["colors"]) == 10

    def test_log_file_bytes(self, tmp_path, capsys):
        t, out = tmp_path / "t.json", tmp_path / "c.json"
        run(capsys, "gen", "tournament", "--n", "5", "-o", str(t))
        run(capsys, "color", "log", "--in", str(t), "-o", str(out))
        assert out.read_bytes() == (
            b'{"palette": 4, "colors": {"0": 1, "1": 0, "2": 1, "3": 0, "4": 0, '
            b'"5": 2, "6": 0, "7": 1, "8": 2, "9": 0}}\n'
        )

    def test_gallai_roy_file_bytes(self, tmp_path, capsys):
        g, o, out = tmp_path / "g.json", tmp_path / "o.json", tmp_path / "c.json"
        run(capsys, "gen", "shift", "--n", "6", "-o", str(g))
        run(capsys, "color", "gallai-roy", "to-orient", "--in", str(g), "-o", str(o))
        code, _, _ = run(
            capsys, "color", "gallai-roy", "to-color", "--in", str(g), "--orient", str(o),
            "-o", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (
            b'{"palette": 3, "colors": {"0": 0, "1": 1, "2": 0, "3": 1, "4": 0, "5": 1, '
            b'"6": 2, "7": 1, "8": 1, "9": 0, "10": 2, "11": 0, "12": 1, "13": 1, "14": 0}}\n'
        )

    def test_kabfree_witness(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(capsys, "gen", "tournament", "--n", "9", "-o", str(t))
        code, with_witness, _ = run(
            capsys, "color", "kabfree", "--in", str(t), "--a", "2", "--b", "2", "--json"
        )
        assert code == 0
        _, without, _ = run(
            capsys, "color", "kabfree", "--in", str(t), "--a", "8", "--b", "8", "--json"
        )
        assert with_witness == (
            '{"left_size": 2, "right_size": 7, "left_colors": 2, "right_colors": 7, '
            '"k_star": 5, "palette": 5, "witness": {"left": [1, 8], "right": [15, 16]}}\n'
        )
        assert without == (
            '{"left_size": 8, "right_size": 1, "left_colors": 8, "right_colors": 1, '
            '"k_star": 5, "palette": 5, "witness": null}\n'
        )

    def test_kabfree_text_report(self, tmp_path, capsys):
        t = tmp_path / "t7.json"
        run(capsys, "gen", "tournament", "--n", "7", "-o", str(t))
        code, stdout, err = run(capsys, "color", "kabfree", "--in", str(t), "--a", "2", "--b", "2")
        assert (code, err) == (0, "")
        assert stdout == (
            "low side 2 vertices / 2 colors, high side 5 / 5, final palette 5 (k* 5)\n"
            "complete bipartite witness: left [1, 6], right [11, 12]\n"
        )

    def test_gallai_roy_roundtrip(self, tmp_path, capsys):
        g, orient = tmp_path / "g.json", tmp_path / "o.json"
        run(capsys, "gen", "shift", "--n", "6", "-o", str(g))
        code, stdout, _ = run(
            capsys, "color", "gallai-roy", "to-orient", "--in", str(g), "-o", str(orient)
        )
        assert code == 0
        code, stdout, _ = run(
            capsys, "color", "gallai-roy", "to-color", "--in", str(g), "--orient", str(orient)
        )
        assert code == 0
        assert "palette 3" in stdout

    def test_to_color_rejects_unoriented_edge(self, tmp_path, capsys):
        g, o = tmp_path / "g.json", tmp_path / "o.json"
        g.write_text('{"n": 3, "directed": false, "edges": [[0, 1], [1, 2]]}')
        o.write_text('{"edges": [[1, 0]]}')
        code, stdout, err = run(
            capsys, "color", "gallai-roy", "to-color", "--in", str(g), "--orient", str(o)
        )
        assert code == 64 and stdout == ""
        assert "edge (1, 2) is not oriented" in err

    def test_to_color_requires_orientation(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        run(capsys, "gen", "shift", "--n", "5", "-o", str(g))
        code, _, _ = run(capsys, "color", "gallai-roy", "to-color", "--in", str(g))
        assert code == 64


class TestAop:
    def test_decide_exit_codes(self, tmp_path, capsys):
        even = tmp_path / "c4.json"
        even.write_text(
            '{"n": 4, "directed": false, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}'
        )
        code, stdout, _ = run(capsys, "aop", "decide", "--in", str(even))
        assert code == 0 and "has_aop" in stdout

        gadget = tmp_path / "gadget.json"
        run(capsys, "gen", "gadget", "--g", "5", "-o", str(gadget))
        code, stdout, _ = run(capsys, "aop", "decide", "--in", str(gadget))
        assert code == 1 and "no_aop" in stdout

        big = tmp_path / "big.json"
        run(capsys, "gen", "girth5", "-o", str(big))
        code, stdout, _ = run(
            capsys, "aop", "decide", "--in", str(big), "--budget", "50"
        )
        assert code == 2 and "timeout" in stdout

        # A negative budget is bad input, not a search that ran out.
        code, stdout, err = run(capsys, "aop", "decide", "--in", str(big), "--budget", "-3")
        assert code == 64 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_decide_stats_line(self, tmp_path, capsys):
        # The propagation counts follow the node and prune counts, so the
        # line still starts "STATUS: N nodes, C cycle prunes, D double-path prunes, ".
        g = tmp_path / "g92.json"
        run(capsys, "gen", "shift", "--n", "9", "-o", str(g))
        code, stdout, _ = run(capsys, "aop", "decide", "--in", str(g))
        assert code == 1
        assert re.fullmatch(
            r"no_aop: 5 nodes, 0 cycle prunes, 0 double-path prunes, "
            r"156 forced, 3 clause prunes, \d+\.\d\ds\n",
            stdout,
        )

    def test_decide_writes_witness(self, tmp_path, capsys):
        even = tmp_path / "c6.json"
        even.write_text(
            '{"n": 6, "directed": false,'
            ' "edges": [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]}'
        )
        w = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "aop", "decide", "--in", str(even), "--orient-out", str(w)
        )
        assert code == 0
        code, _, _ = run(capsys, "aop", "verify", "--in", str(even), "--orient", str(w))
        assert code == 0

    def test_verify_refutation_exit(self, tmp_path, capsys):
        g = tmp_path / "d.json"
        g.write_text(
            '{"n": 4, "directed": false, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}'
        )
        o = tmp_path / "o.json"
        o.write_text('{"edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}')
        code, stdout, _ = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 1
        assert "two directed paths" in stdout

    def test_verify_refutes_directed_cycle(self, tmp_path, capsys):
        # A cyclic orientation file is a refutation (exit 1), not bad input.
        g, o = tmp_path / "g.json", tmp_path / "o.json"
        g.write_text('{"n": 3, "directed": false, "edges": [[0, 1], [0, 2], [1, 2]]}')
        o.write_text('{"edges": [[1, 2], [2, 0], [0, 1]]}')
        code, stdout, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert (code, stdout, err) == (1, "refuted: directed cycle [0, 1, 2]\n", "")

    def test_verify_rejects_bad_orientation_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        o = tmp_path / "o.json"
        o.write_text('{"edges": [[0, 1], [1, 0]]}')
        code, _, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64 and err == "error: edge (0, 1) oriented twice\n"

    def test_verify_rejects_unoriented_edge(self, tmp_path, capsys):
        g, o = tmp_path / "g.json", tmp_path / "o.json"
        g.write_text('{"n": 3, "directed": false, "edges": [[0, 1], [1, 2]]}')
        o.write_text('{"edges": [[2, 1]]}')
        code, stdout, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64 and stdout == ""
        assert "edge (0, 1) is not oriented" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"edges": [[0, 1, 2]]}',
            '{"edges": 5}',
            '{"edges": [[0, "1"]]}',
            '{"edges": [[0, true]]}',
        ],
    )
    def test_verify_rejects_malformed_pairs(self, tmp_path, capsys, text):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        o = tmp_path / "o.json"
        o.write_text(text)
        code, _, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64
        assert "error" in err


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)


class TestOrientationFileErrors:
    # Each fault of an orientation file of the path 0 - 1 - 2, with its exact
    # message; a fault of the file's JSON names the file ("{o}").
    CASES = {
        "not-utf8": (
            b'\xff{"edges": []}',
            "{o}: malformed JSON: not UTF-8: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte",
        ),
        "malformed": (
            b'{"edges": ', "{o}: malformed JSON: Expecting value: line 1 column 11 (char 10)"
        ),
        "non-object": (b"[[0, 1], [1, 2]]", "{o}: orientation JSON needs an 'edges' key"),
        "no-edges": (b'{"arcs": [[0, 1], [1, 2]]}', "{o}: orientation JSON needs an 'edges' key"),
        "edges-not-list": (b'{"edges": 5}', "{o}: 'edges' must be a list of [u, v] pairs"),
        "not-an-edge": (
            b'{"edges": [[0, 1], [1, 2], [0, 2]]}',
            "oriented pair (0, 2) is not an edge of the graph",
        ),
        "twice": (b'{"edges": [[0, 1], [1, 0], [1, 2]]}', "edge (0, 1) oriented twice"),
        "unoriented": (b'{"edges": [[2, 1]]}', "edge (0, 1) is not oriented"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", [("aop", "verify"), ("color", "gallai-roy", "to-color")])
    def test_message_and_exit(self, tmp_path, capsys, case, command):
        data, message = self.CASES[case]
        g, o = tmp_path / "g.json", tmp_path / "o.json"
        g.write_text('{"n": 3, "directed": false, "edges": [[0, 1], [1, 2]]}')
        o.write_bytes(data)
        result = run(capsys, *command, "--in", str(g), "--orient", str(o))
        assert result == (64, "", f"error: {message.format(o=o)}\n")


class TestDigitLimit:
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer longer than the interpreter's digit limit (4,300 by default).
    HUGE = "1" * 5000

    @needs_digit_limit
    def test_graph_exit(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": %s, "directed": false, "edges": []}' % self.HUGE)
        code, _, err = run(capsys, "check", "--in", str(g))
        assert code == 64
        assert "malformed JSON" in err and "Traceback" not in err

    @needs_digit_limit
    def test_orientation_exit(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        o = tmp_path / "o.json"
        o.write_text('{"edges": [[%s, 0]]}' % self.HUGE)
        code, _, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64
        assert "malformed JSON" in err and "Traceback" not in err


class TestUnreadableJson:
    # Bytes that are not UTF-8, and nesting deeper than json.loads can
    # recurse, are malformed input like any other bad JSON.
    CASES = [b'\xff\xfe{"n": 1}', b"[" * 100_000 + b"]" * 100_000]

    @pytest.mark.parametrize("data", CASES, ids=["not-utf8", "deep-nesting"])
    def test_graph_exit(self, tmp_path, capsys, data):
        g = tmp_path / "g.json"
        g.write_bytes(data)
        code, _, err = run(capsys, "check", "--in", str(g))
        assert code == 64
        assert "malformed" in err and "Traceback" not in err

    @pytest.mark.parametrize("data", CASES, ids=["not-utf8", "deep-nesting"])
    def test_orientation_exit(self, tmp_path, capsys, data):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        o = tmp_path / "o.json"
        o.write_bytes(data)
        code, _, err = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64
        assert "malformed" in err and "Traceback" not in err


class TestInternalError:
    def test_unexpected_exception_exits_70(self, tmp_path, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(invariants, "girth", broken)
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        code, stdout, err = run(capsys, "check", "--in", str(g))
        assert code == 70
        assert err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in err and stdout == ""

    def test_internal_invariant_error_exits_70(self, tmp_path, capsys, monkeypatch):
        def broken(g):
            raise core.InternalInvariantError("girth disagrees with itself")

        monkeypatch.setattr(invariants, "girth", broken)
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        err = "internal error: girth disagrees with itself\n"
        assert run(capsys, "check", "--in", str(g)) == (70, "", err)


class TestRepro:
    def test_cycle_lemma(self, capsys):
        code, stdout, _ = run(capsys, "repro", "cycle-lemma")
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 5
        assert all(l.startswith("[PASS]") for l in lines)

    def test_kab_with_flags(self, capsys):
        code, stdout, _ = run(capsys, "repro", "kab", "--n", "6", "--a", "3", "--b", "3")
        lines = stdout.splitlines()
        assert code == 0
        assert len(lines) == 3 and all(l.startswith("[PASS] ") for l in lines), stdout
        # The line graph of T_7 contains K_{3,3}, so the bound cannot be checked.
        code, stdout, _ = run(capsys, "repro", "kab", "--n", "7", "--a", "3", "--b", "3")
        assert code == 1
        assert stdout.splitlines()[-1] == (
            "[FAIL] line graph of T_7 is K_{3,3}-free, so the bound applies (it contains K_{3,3})"
        )

    def test_unknown_recipe(self, capsys):
        code, _, _ = run(capsys, "repro", "no-such-recipe")
        assert code == 64

    @pytest.mark.parametrize("name", sorted(repro.RECIPES))
    def test_every_recipe_passes(self, capsys, name):
        code, stdout, _ = run(capsys, "repro", name)
        lines = stdout.splitlines()
        assert code == 0
        assert lines and all(l.startswith("[PASS] ") for l in lines), stdout

    def test_transcript_is_pinned(self, capsys):
        # Every recipe at its defaults, in RECIPES order: each count, sample
        # size, digest of sampled arcs and search node count they print is
        # pinned.
        out = []
        for name in repro.RECIPES:
            code, stdout, err = run(capsys, "repro", name)
            assert (code, err) == (0, "")
            out.append(stdout)
        golden = pathlib.Path(__file__).with_name("repro_transcript.txt")
        assert "".join(out) == golden.read_text(encoding="utf-8")

    def test_odd_girth_lemma_samples(self, monkeypatch):
        # The transcript pins the samples by a digest of their arcs; this
        # states which they are: the first 200 digraphs with an odd cycle
        # from seeds 99, 100, ..., each seed a batch of 200, in that order.
        expected, seed = [], 99
        while len(expected) < 200:
            batch = repro.random_acyclic_digraphs(200, 12, seed)
            expected += [d for d in batch if invariants.odd_girth(d.underlying) != math.inf]
            seed += 1
        seen = []
        line_digraph = constructors.line_digraph
        monkeypatch.setattr(constructors, "line_digraph", lambda d: seen.append(d) or line_digraph(d))
        repro.recipe_odd_girth_lemma()
        assert seen[:200] == expected[:200]

    def test_arcs_digest_tells_samples_apart(self):
        samples = list(repro.random_acyclic_digraphs(50, 8, 1))
        digest = repro.arcs_digest(samples)
        assert len(digest) == 8 and set(digest) <= set("0123456789abcdef")
        assert repro.arcs_digest(repro.random_acyclic_digraphs(50, 8, 1)) == digest
        assert repro.arcs_digest(samples[:-1]) != digest
        assert repro.arcs_digest(repro.random_acyclic_digraphs(50, 8, 2)) != digest

    def test_rejects_flag_the_recipe_does_not_take(self, capsys):
        for name, flag in (("gadget", "--n"), ("gadget", "--budget"), ("g92-aop", "--budget")):
            code, stdout, _ = run(capsys, "repro", name, flag, "3")
            assert code == 64
            assert stdout == ""

    def test_zykov_aop_default_bites(self, capsys):
        # At the default n = 5 the line digraph is not bipartite, so its
        # odd-girth is finite and the bound is checked against a number.
        code, stdout, _ = run(capsys, "repro", "zykov-aop")
        assert (code, stdout) == (
            0,
            "[PASS] iterated line digraph of oriented Zykov(5) stays one-path (762 vertices)\n"
            "[PASS] odd-girth at least 5 (measured 9)\n",
        )

    def test_failing_check_prints_fail(self, capsys, monkeypatch):
        # Two directed 0 -> 3 paths: the one-path check must fail, reported
        # as a FAIL line and exit 1 rather than an exception.
        doubled = AcyclicDigraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        monkeypatch.setattr(constructors, "iterate_line_digraph", lambda d, g: doubled)
        code, stdout, _ = run(capsys, "repro", "zykov-aop")
        assert code == 1
        assert stdout.splitlines()[0].startswith("[FAIL] iterated line digraph")


# Values of the wrong type or out of range, for any field of a document.
BAD_VALUES = [None, True, 1.5, "1", -1, 10**30, [], [0], [0, 1, 2], ["0", 1], [0.0, 1], {}]


def fuzz_documents(data, directed: bool) -> tuple[bytes, bytes]:
    """A graph document and an orientation document for it, each valid or
    broken in one of the ways outside input can be broken."""
    draw = data.draw
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 8))
    pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
    perm = list(range(n))
    rng.shuffle(perm)
    # Directed edges mostly follow perm, so most digraphs are acyclic.
    edges = [
        [u, v] if perm.index(u) < perm.index(v) or rng.random() < 0.1 else [v, u]
        for u, v in pairs
    ]
    graph: dict = {"n": n, "directed": directed, "edges": edges}
    if rng.random() < 0.3:
        graph["labels"] = {str(v): f"v{v}" for v in range(n) if rng.random() < 0.5}
    mutation = draw(st.sampled_from(["none"] * 9 + [
        "n", "directed", "edges", "pair", "repeat", "reverse", "labels", "drop", "huge"
    ]))
    if mutation in ("n", "directed", "edges"):
        graph[mutation] = draw(st.sampled_from(BAD_VALUES))
    elif mutation == "pair":
        edges.append(draw(st.sampled_from(BAD_VALUES + [[0, 0], [0, n], [-1, 0]])))
    elif mutation in ("repeat", "reverse") and edges:
        u, v = rng.choice(edges)
        edges.append([u, v] if mutation == "repeat" else [v, u])
    elif mutation == "labels":
        key = draw(st.sampled_from(["00", " 1", "+1", "-0", "1_0", "x", str(n), "0"]))
        graph["labels"] = {key: draw(st.sampled_from(BAD_VALUES + ["ok"]))}
    elif mutation == "drop":
        del graph[draw(st.sampled_from(["n", "directed", "edges"]))]
    elif mutation == "huge":
        graph["n"] = 10**30
    arcs = [list(rng.choice(((u, v), (v, u)))) for u, v in pairs]
    mutation = draw(st.sampled_from(
        ["none"] * 7 + ["partial", "double", "twice", "nonedge", "bad", "edges", "drop"]
    ))
    if mutation == "partial" and arcs:
        arcs.pop(rng.randrange(len(arcs)))
    elif mutation in ("double", "twice") and arcs:
        u, v = rng.choice(arcs)
        arcs.append([v, u] if mutation == "double" else [u, v])
    elif mutation == "nonedge":
        arcs.append([rng.randrange(-1, n + 1), rng.randrange(-1, n + 1)])
    elif mutation == "bad":
        arcs.append(draw(st.sampled_from(BAD_VALUES)))
    orient: object = {"edges": arcs}
    if mutation == "edges":
        orient = {"edges": draw(st.sampled_from(BAD_VALUES))}
    elif mutation == "drop":
        orient = draw(st.sampled_from([{}, [], arcs, 0]))
    texts = [json.dumps(graph).encode(), json.dumps(orient).encode()]
    # Byte-level damage: bytes that are not UTF-8, or a truncated document.
    which = draw(st.sampled_from([None] * 8 + [0, 1]))
    if which is not None:
        damaged = texts[which]
        texts[which] = draw(st.sampled_from([b"\xff" + damaged, damaged[: len(damaged) // 2]]))
    return texts[0], texts[1]


class TestFuzz:
    # Each command with the kind of graph it reads: directed, undirected or
    # either (None).
    COMMANDS = [
        (("check",), None),
        (("derive", "line"), True),
        (("aop", "verify", "--orient", "O"), False),
        (("aop", "decide", "--budget", "50"), False),
        (("color", "log"), True),
        (("color", "kabfree", "--a", "2", "--b", "2"), True),
        (("color", "gallai-roy", "to-orient"), False),
        (("color", "gallai-roy", "to-color", "--orient", "O"), False),
    ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exit_codes_on_broken_documents(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("fuzz")
        command, reads = data.draw(st.sampled_from(self.COMMANDS))
        directed = reads
        if reads is None or data.draw(st.integers(0, 4)) == 0:  # now and then the wrong kind
            directed = data.draw(st.booleans())
        graph, orient = fuzz_documents(data, directed)
        (folder / "g.json").write_bytes(graph)
        (folder / "o.json").write_bytes(orient)
        argv = [str(folder / "o.json") if a == "O" else a for a in command]
        argv += ["--in", str(folder / "g.json")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        allowed = {0, 1, 2, 64, 65} if command[0] == "aop" else {0, 64, 65}
        assert code in allowed, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
