import json
import re
import sys
import time

import pytest

from shiftgraphs import cli, constructors, invariants, repro
from shiftgraphs.core import AcyclicDigraph, UndirectedGraph, graph_from_json, to_json


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
        for family in ("tournament", "shift"):
            start = time.perf_counter()
            code, _, err = run(capsys, "gen", family, "--n", "2000")
            assert time.perf_counter() - start < 1.0
            assert code == 65 and "size cap" in err

    def test_bad_family_usage(self, capsys):
        code, _, _ = run(capsys, "gen", "nonsense")
        assert code == 64


class TestDeriveAndCheck:
    def test_line_of_tournament(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        line = tmp_path / "line.json"
        run(capsys, "gen", "tournament", "--n", "5", "-o", str(t))
        code, _, _ = run(capsys, "derive", "line", "--in", str(t), "-o", str(line))
        assert code == 0
        g = graph_from_json(line.read_text())
        assert g.n == 10 and len(g.arcs) == 10

    def test_iterate_cap_exit(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(capsys, "gen", "tournament", "--n", "8", "-o", str(t))
        code, _, err = run(
            capsys, "derive", "iterate", "--in", str(t), "--times", "2", "--cap", "10"
        )
        assert code == 65
        assert "cap" in err

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

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", "--in", str(tmp_path / "absent.json"))
        assert code == 64

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

    def test_kabfree_witness(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(capsys, "gen", "tournament", "--n", "9", "-o", str(t))
        code, stdout, _ = run(
            capsys, "color", "kabfree", "--in", str(t), "--a", "2", "--b", "2", "--json"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["witness"] is not None
        assert len(report["witness"]["left"]) == 2
        assert len(report["witness"]["right"]) == 2

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

    def test_verify_rejects_bad_orientation_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "directed": false, "edges": [[0, 1]]}')
        o = tmp_path / "o.json"
        o.write_text('{"edges": [[0, 1], [1, 0]]}')
        code, _, _ = run(capsys, "aop", "verify", "--in", str(g), "--orient", str(o))
        assert code == 64

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


class TestRepro:
    def test_cycle_lemma(self, capsys):
        code, stdout, _ = run(capsys, "repro", "cycle-lemma")
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 5
        assert all(l.startswith("[PASS]") for l in lines)

    def test_kab_with_flags(self, capsys):
        code, stdout, _ = run(capsys, "repro", "kab", "--n", "7", "--a", "3", "--b", "3")
        assert code == 0

    def test_unknown_recipe(self, capsys):
        code, _, _ = run(capsys, "repro", "no-such-recipe")
        assert code == 64

    @pytest.mark.parametrize("name", sorted(repro.RECIPES))
    def test_every_recipe_passes(self, capsys, name):
        code, stdout, _ = run(capsys, "repro", name)
        lines = stdout.splitlines()
        assert code == 0
        assert lines and all(l.startswith("[PASS] ") for l in lines), stdout

    def test_rejects_flag_the_recipe_does_not_take(self, capsys):
        code, stdout, _ = run(capsys, "repro", "gadget", "--n", "3")
        assert code == 64
        assert stdout == ""

    def test_failing_check_prints_fail(self, capsys, monkeypatch):
        # Two directed 0 -> 3 paths: the one-path check must fail, reported
        # as a FAIL line and exit 1 rather than an exception.
        doubled = AcyclicDigraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        monkeypatch.setattr(constructors, "iterate_line_digraph", lambda d, g: doubled)
        code, stdout, _ = run(capsys, "repro", "zykov-aop")
        assert code == 1
        assert stdout.splitlines()[0].startswith("[FAIL] iterated line digraph")
