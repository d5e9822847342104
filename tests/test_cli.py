"""Tests for the batch verification command line driver."""

import hashlib
import json
import multiprocessing
import os
import random
import resource
import signal
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from _catalog import girth5_catalog
from _fk import generated_group, star_graph
from tokengraphs import cli, connectivity, families, tokens
from tokengraphs.cli import main
from tokengraphs.graphs import (
    MaskGraph, bridged_cliques, emit_graph6, enumerate_trees, parse_graph6,
    tree_automorphism_generators,
)
from tokengraphs.tokens import TokenGraph, build_token_graph

# graph6 lines used by the conjecture tests
C5 = "Dhc"
K4 = "C~"
P5 = "DhC"
P3 = "Bg"
TWO_PIECES = "B?"  # three vertices, no edges


def make_unit(g6, k):
    """The (graph6, graph, k) unit that a sweep hands its runner."""
    return g6, parse_graph6(g6), k


def refuse_decoding(monkeypatch):
    """Make cli.parse_graph6 raise: a tree sweep's units carry their graphs."""
    def refuse(line):
        raise AssertionError(f"a tree sweep decoded {line!r}")

    monkeypatch.setattr(cli, "parse_graph6", refuse)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines() if not line.startswith("#")]
    summary = [line for line in out.splitlines() if line.startswith("#")]
    return code, records, summary, err


class TestTheorem:
    def test_small_sweep(self, capsys):
        code, records, summary, err = run(capsys, ["theorem", "--n-max", "4"])
        assert code == 0 and err == ""
        # one tree each at n=2,3 and two at n=4, times their k ranges
        assert len(records) == 9
        assert all(r["status"] == "confirmed" for r in records)
        assert all(r["kappa"] == r["lambda"] == r["delta"] for r in records)
        assert len(summary) == 1
        assert summary[0] == "# theorem n<=4: 9 records: 9 confirmed"

    def test_record_field_order(self, capsys):
        _, records, _, _ = run(capsys, ["theorem", "--n-max", "2"])
        assert list(records[0]) == ["graph_id", "k", "delta", "kappa", "lambda", "status"]
        assert records[0]["graph_id"] == "A_"
        assert records[0]["k"] == 1

    def test_json_flag_drops_summary(self, capsys):
        code, records, summary, _ = run(capsys, ["theorem", "--n-max", "3", "--json"])
        assert code == 0
        assert summary == []
        assert len(records) == 3

    def test_jobs_do_not_change_output(self, capsys):
        main(["theorem", "--n-max", "4", "--jobs", "1"])
        serial = capsys.readouterr().out
        main(["theorem", "--n-max", "4", "--jobs", "3"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_violation_sets_exit_code(self, capsys, monkeypatch):
        def fake(arg):
            g6, _, k = arg
            return {"graph_id": g6, "k": k, "delta": 1, "kappa": 0,
                    "lambda": 1, "status": "violated"}

        monkeypatch.setitem(cli._UNIT_RUNNERS, "theorem", fake)
        code, records, summary, _ = run(capsys, ["theorem", "--n-max", "2"])
        assert code == 1
        assert records[0]["status"] == "violated"
        assert any("violated: graph_id=A_ k=1" in line for line in summary)


class TestPaths:
    def test_small_sweep(self, capsys):
        code, records, summary, err = run(capsys, ["paths", "--n-max", "4"])
        assert code == 0 and err == ""
        assert len(records) == 9
        assert all(r["status"] == "confirmed" for r in records)
        for r in records:
            assert r["kappa"] is None and r["lambda"] is None
            if r["pairs"]:
                assert r["min_family_size"] >= r["delta"]
            else:
                assert r["min_family_size"] is None

    def test_field_order_and_slack_fields(self, capsys):
        _, records, _, _ = run(capsys, ["paths", "--n-max", "4"])
        assert list(records[0]) == [
            "graph_id", "k", "delta", "kappa", "lambda",
            "pairs", "min_family_size", "max_slack_case1", "max_slack_case2",
            "status",
        ]
        slacks1 = {r["max_slack_case1"] for r in records if r["max_slack_case1"] is not None}
        assert slacks1 <= {0, 1, 2}


class TestHFamily:
    def test_frozen_values(self, capsys):
        code, records, _, _ = run(capsys, ["hfamily", "--m-min", "3", "--m-max", "5"])
        assert code == 0
        got = [(r["m"], r["kappa"], r["lambda"], r["delta"], r["status"]) for r in records]
        assert got == [
            (3, 2, 2, 2, "confirmed"),
            (4, 3, 3, 4, "confirmed"),
            (5, 4, 4, 6, "confirmed"),
        ]
        for r in records:
            assert r["kappa_expected"] == r["m"] - 1
            assert r["delta_expected"] == 2 * (r["m"] - 2)
            assert r["k"] == 2

    def test_gap_grows_with_m(self, capsys):
        _, records, _, _ = run(capsys, ["hfamily", "--m-min", "4", "--m-max", "6"])
        gaps = [r["delta"] - r["kappa"] for r in records]
        assert gaps == [1, 2, 3]

    def test_violation_sets_exit_code(self, capsys, monkeypatch):
        def fake(m):
            return {"graph_id": "G", "m": m, "k": 2, "delta": 2, "kappa": 1,
                    "lambda": 1, "status": "violated"}

        monkeypatch.setitem(cli._UNIT_RUNNERS, "hfamily", fake)
        code, records, summary, _ = run(capsys, ["hfamily", "--m-min", "3", "--m-max", "3"])
        assert code == 1
        assert records[0]["status"] == "violated"
        assert any("violated: graph_id=G k=2" in line for line in summary)


class TestConjecture:
    def write(self, tmp_path, lines):
        path = tmp_path / "input.g6"
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return str(path)

    def test_mixed_file_keeps_input_order(self, capsys, tmp_path):
        path = self.write(tmp_path, [K4, TWO_PIECES, C5, P5, P3])
        code, records, summary, err = run(capsys, ["conjecture", "--input", path])
        assert code == 0 and err == ""
        got = [(r["graph_id"], r["k"], r["status"]) for r in records]
        assert got == [
            (K4, None, "skipped"),
            (TWO_PIECES, None, "skipped"),
            (C5, 2, "confirmed"),
            (C5, 3, "confirmed"),
            (P5, 2, "confirmed"),
            (P5, 3, "confirmed"),
            (P3, None, "skipped"),
        ]
        reasons = [r.get("reason") for r in records if r["status"] == "skipped"]
        assert reasons == ["girth<5", "not connected", "no admissible k"]

    def test_explicit_k(self, capsys, tmp_path):
        path = self.write(tmp_path, [C5, P3])
        code, records, _, _ = run(capsys, ["conjecture", "--input", path, "--k", "2"])
        assert code == 0
        assert [(r["graph_id"], r["k"], r["status"]) for r in records] == [
            (C5, 2, "confirmed"),
            (P3, 2, "skipped"),
        ]
        assert records[1]["reason"] == "k out of range"

    def test_cycle_values(self, capsys, tmp_path):
        path = self.write(tmp_path, [C5])
        _, records, _, _ = run(capsys, ["conjecture", "--input", path, "--k", "2"])
        assert records[0]["kappa"] == 2 and records[0]["delta"] == 2
        assert records[0]["lambda"] is None

    def test_jobs_preserve_interleaving(self, capsys, tmp_path):
        path = self.write(tmp_path, [K4, C5, TWO_PIECES, P5])
        main(["conjecture", "--input", path, "--jobs", "1"])
        serial = capsys.readouterr().out
        main(["conjecture", "--input", path, "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_each_line_decoded_once(self, capsys, monkeypatch, tmp_path):
        path = self.write(tmp_path, [K4, TWO_PIECES, C5, P5, P3])
        real, decoded = cli.parse_graph6, []
        monkeypatch.setattr(cli, "parse_graph6", lambda line: decoded.append(line) or real(line))
        code, records, _, _ = run(capsys, ["conjecture", "--input", path, "--json"])
        assert code == 0 and len(records) == 7
        assert decoded == [K4, TWO_PIECES, C5, P5, P3]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_girth5_catalogue_digest(self, capsys, tmp_path, jobs):
        # sha256 of the records written while units still decoded their graph6 id
        lines = sorted(emit_graph6(g) for g in girth5_catalog(9))
        assert len(lines) == 219
        path = self.write(tmp_path, lines)
        assert main(["conjecture", "--input", path, "--json", "--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1166 and out.count('"skipped"') == 3
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5d92a4be8ca80db0cf6d62a4160ea7fc1c7a8b17157f2faf1a795489b24ec683")

    def test_missing_file(self, capsys):
        code = main(["conjecture", "--input", "/nonexistent/path.g6"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_unparseable_line(self, capsys, tmp_path):
        path = self.write(tmp_path, [C5, "C"])
        code = main(["conjecture", "--input", path])
        _, err = capsys.readouterr()
        assert code == 2
        assert "'C'" in err

    def test_undecodable_byte(self, capsys, tmp_path):
        path = tmp_path / "input.g6"
        path.write_bytes(C5.encode("ascii") + b"\n\xff\n")
        code = main(["conjecture", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error:") and "decode" in err
        assert out == ""

    def test_byte_below_graph6_range(self, capsys, tmp_path):
        path = self.write(tmp_path, ["B!o"])
        code = main(["conjecture", "--input", path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: 'B!o': byte 33 outside graph6 range 63..126 (byte offset 1)\n"

    @pytest.mark.parametrize("line, offset", [("\x1f", 0), ("B\x1f", 1)])
    def test_control_byte_is_not_whitespace(self, capsys, tmp_path, line, offset):
        path = self.write(tmp_path, [C5, line])
        code = main(["conjecture", "--input", path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (f"error: {line!r}: byte 31 outside graph6 range 63..126 "
                       f"(byte offset {offset})\n")


class TestRunnerRules:
    """Each mode's rules for a token graph over the size guard and for a kappa
    below delta."""

    @staticmethod
    def kappa_one_short(monkeypatch):
        real = cli.vertex_connectivity
        monkeypatch.setattr(cli, "vertex_connectivity", lambda g: real(g) - 1)

    @pytest.mark.parametrize("mode", ["theorem", "paths"])
    def test_size_guard_skips_tree_units(self, capsys, monkeypatch, mode):
        # F_2 and F_3 of a 5-vertex tree have C(5, 2) = C(5, 3) = 10 configurations;
        # build_token_graph reads MATERIALIZE_LIMIT at call time
        monkeypatch.setattr(tokens, "MATERIALIZE_LIMIT", 9)
        code, records, _, _ = run(capsys, [mode, "--n-max", "5", "--json"])
        assert code == 0
        assert Counter(r["status"] for r in records) == {"confirmed": 15, "skipped": 6}
        by_unit = {(r["graph_id"], r["k"]): r for r in records}
        five = [g6 for g6, k in by_unit if g6[0] == "D" and k == 1]  # chr(63 + 5)
        assert len(five) == 3
        for g6 in five:
            skipped = by_unit[g6, 2]
            assert list(skipped)[-2:] == ["status", "reason"]
            assert skipped["status"] == "skipped" and skipped["delta"] is None
            assert skipped["reason"] == "token graph would have 10 configurations, over the limit 9"
            mirror = by_unit[g6, 3]
            assert list(mirror.items()) == list({**skipped, "k": 3}.items())

    def test_size_guard_skips_hfamily(self, capsys, monkeypatch):
        monkeypatch.setattr(tokens, "MATERIALIZE_LIMIT", 9)  # H(3) has 6 vertices
        code, records, _, _ = run(capsys, ["hfamily", "--m-min", "3", "--m-max", "3", "--json"])
        assert code == 0
        expected = {
            "graph_id": emit_graph6(bridged_cliques(3)), "m": 3, "k": 2,
            "delta": None, "kappa": None, "lambda": None,
            "kappa_expected": 2, "delta_expected": 2, "status": "skipped",
            "reason": "token graph would have 15 configurations, over the limit 9",
        }
        assert [list(r.items()) for r in records] == [list(expected.items())]

    def test_conjecture_violations_exit_0(self, capsys, monkeypatch, tmp_path):
        # kappa < delta is what the scan looks for, so finding it is no failure
        self.kappa_one_short(monkeypatch)
        path = tmp_path / "input.g6"
        path.write_text(f"{C5}\n", encoding="ascii")
        code, records, summary, _ = run(capsys, ["conjecture", "--input", str(path)])
        assert code == 0
        got = [(r["k"], r["delta"], r["kappa"], r["status"]) for r in records]
        assert got == [(2, 2, 1, "violated"), (3, 2, 1, "violated")]
        assert summary[1:] == [f"#   violated: graph_id={C5} k=2", f"#   violated: graph_id={C5} k=3"]

    def test_theorem_violations_exit_1(self, capsys, monkeypatch):
        self.kappa_one_short(monkeypatch)
        code, records, _, _ = run(capsys, ["theorem", "--n-max", "3", "--json"])
        assert code == 1
        assert [r["status"] for r in records] == ["violated"] * 3


# the patched unit code reaches --jobs workers only when they are forked
JOBS = [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers do not inherit patches"))]


class TestUnitErrors:
    """An unexpected exception in one unit becomes that unit's error record."""

    @staticmethod
    def fail_on(monkeypatch, name, should_fail, exc):
        real = getattr(cli, name)

        def flaky(arg, *rest):
            if should_fail(arg):
                raise exc
            return real(arg, *rest)

        monkeypatch.setattr(cli, name, flaky)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_theorem(self, capsys, monkeypatch, jobs):
        # only the k = 2 units of the two 4-vertex trees have 6 configurations
        self.fail_on(monkeypatch, "vertex_connectivity", lambda g: g.n == 6,
                     RuntimeError("boom"))
        argv = ["theorem", "--n-max", "4", "--jobs", str(jobs)]
        code, records, summary, err = run(capsys, argv)
        assert code == 3
        if jobs == 1:  # forked workers write to their own copy of the captured stderr
            assert err.count("Traceback (most recent call last)") == 2
            assert err.rstrip().endswith("RuntimeError: boom")
        errors = [r for r in records if r["status"] == "error"]
        assert [(r["graph_id"], r["k"]) for r in errors] == [("Ck", 2), ("Cs", 2)]
        assert all(list(r) == ["graph_id", "k", "status", "error"] for r in errors)
        assert {r["error"] for r in errors} == {"RuntimeError: boom"}
        assert sum(r["status"] == "confirmed" for r in records) == 7
        assert summary == [
            "# theorem n<=4: 9 records: 7 confirmed, 2 error",
            "#   error: graph_id=Ck k=2: RuntimeError: boom",
            "#   error: graph_id=Cs k=2: RuntimeError: boom",
        ]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_hfamily_names_m(self, capsys, monkeypatch, jobs):
        self.fail_on(monkeypatch, "bridged_cliques", lambda m: m == 4, KeyError("H"))
        argv = ["hfamily", "--m-min", "3", "--m-max", "5", "--jobs", str(jobs)]
        code, records, summary, _ = run(capsys, argv)
        assert code == 3
        assert [r["status"] for r in records] == ["confirmed", "error", "confirmed"]
        assert records[1] == {"m": 4, "status": "error", "error": "KeyError: 'H'"}
        assert summary[1:] == ["#   error: m=4: KeyError: 'H'"]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_paths(self, capsys, monkeypatch, jobs):
        self.fail_on(monkeypatch, "build_family", lambda tree: tree.n == 4,
                     ZeroDivisionError("division by zero"))
        code, records, _, _ = run(capsys, ["paths", "--n-max", "4", "--jobs", str(jobs)])
        assert code == 3
        got = {(r["graph_id"] in ("Ck", "Cs"), r["status"]) for r in records if r.get("pairs", 1)}
        assert got == {(True, "error"), (False, "confirmed")}

    def test_error_outranks_violation(self, capsys, monkeypatch):
        def unit(arg):
            if arg[0] == "A_":
                return {"graph_id": arg[0], "k": arg[-1], "status": "violated"}
            return 1 / 0

        monkeypatch.setitem(cli._UNIT_RUNNERS, "paths", unit)
        code, records, summary, _ = run(capsys, ["paths", "--n-max", "3"])
        assert code == 3
        assert [r["status"] for r in records] == ["violated", "error", "error"]
        assert summary == [
            "# paths n<=3: 3 records: 1 violated, 2 error",
            "#   violated: graph_id=A_ k=1",
            "#   error: graph_id=Bo k=1: ZeroDivisionError: division by zero",
            "#   error: graph_id=Bo k=2: ZeroDivisionError: division by zero",
        ]

    def test_conjecture(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "input.g6"
        path.write_text(f"{C5}\n", encoding="ascii")
        self.fail_on(monkeypatch, "build_token_graph", lambda g: True, MemoryError())
        code, records, _, _ = run(capsys, ["conjecture", "--input", str(path)])
        assert code == 3
        assert records == [
            {"graph_id": C5, "k": 2, "status": "error", "error": "MemoryError: "},
            {"graph_id": C5, "k": 3, "status": "error", "error": "MemoryError: "},
        ]

    def test_clean_sweep_output_unchanged(self, capsys):
        code, _, summary, _ = run(capsys, ["theorem", "--n-max", "3"])
        assert code == 0
        assert summary == ["# theorem n<=3: 3 records: 3 confirmed"]


def without_k(record):
    return {key: value for key, value in record.items() if key != "k"}


def complement_pairs(graphs, k_min):
    """The units for k and for n - k, for every k_min <= k < n - k."""
    for g in graphs:
        g6 = emit_graph6(g)
        for k in range(k_min, (g.n + 1) // 2):
            yield (g6, g, k), (g6, g, g.n - k)


class TestComplementHalves:
    """Both halves run for real: the unit for k and for n - k agree except in k."""

    @pytest.mark.parametrize("unit, n_max", [(cli._theorem_unit, 9), (cli._paths_unit, 8)])
    def test_trees(self, unit, n_max):
        trees = [t for n in range(2, n_max + 1) for t in enumerate_trees(n)]
        pairs = list(complement_pairs(trees, 1))
        assert len(pairs) == {9: 311, 8: 123}[n_max]
        for arg, mirror in pairs:
            assert without_k(unit(arg)) == without_k(unit(mirror)), arg

    def test_girth5_catalogue(self):
        graphs = girth5_catalog(9)
        pairs = list(complement_pairs(graphs, 2))
        assert len({arg[0] for arg, _ in pairs}) == 214  # every catalogue graph with 5 <= n <= 9
        for arg, mirror in pairs:
            base = cli._conjecture_unit(arg)
            assert without_k(base) == without_k(cli._conjecture_unit(mirror)), arg
            assert base["status"] == "confirmed"


class TestMirroring:
    """Units with k > n - k copy their listed base unless it failed."""

    @staticmethod
    def count_calls(monkeypatch, mode, status=lambda arg: None):
        real, calls = cli._UNIT_RUNNERS[mode], []

        def counted(arg):
            calls.append((arg[0], arg[-1]))
            record = real(arg)
            return {**record, "status": status(arg) or record["status"]}

        monkeypatch.setitem(cli._UNIT_RUNNERS, mode, counted)
        return calls

    def test_confirmed_base_is_copied(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "theorem")
        code, records, _, _ = run(capsys, ["theorem", "--n-max", "4", "--json"])
        assert code == 0
        assert calls == [("A_", 1), ("Bo", 1), ("Ck", 1), ("Ck", 2), ("Cs", 1), ("Cs", 2)]
        assert [(r["graph_id"], r["k"]) for r in records] == [
            ("A_", 1), ("Bo", 1), ("Bo", 2),
            ("Ck", 1), ("Ck", 2), ("Ck", 3), ("Cs", 1), ("Cs", 2), ("Cs", 3),
        ]
        assert records[2] == {**records[1], "k": 2}
        assert list(records[2]) == list(records[1])

    def test_violated_base_runs_the_mirror(self, capsys, monkeypatch):
        calls = self.count_calls(
            monkeypatch, "theorem",
            lambda arg: "violated" if (arg[0], arg[-1]) == ("Bo", 1) else None)
        code, records, summary, _ = run(capsys, ["theorem", "--n-max", "3"])
        assert code == 1
        assert calls == [("A_", 1), ("Bo", 1), ("Bo", 2)]
        assert [(r["k"], r["status"]) for r in records[1:]] == [(1, "violated"), (2, "confirmed")]
        assert summary[1:] == ["#   violated: graph_id=Bo k=1"]

    def test_explicit_k_has_no_base(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "input.g6"
        path.write_text(f"{C5}\n", encoding="ascii")
        calls = self.count_calls(monkeypatch, "conjecture")
        code, records, _, _ = run(capsys, ["conjecture", "--input", str(path), "--k", "3"])
        assert code == 0
        assert calls == [(C5, 3)]
        assert records[0]["k"] == 3 and records[0]["status"] == "confirmed"

    def test_conjecture_mirrors_within_each_graph(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "input.g6"
        path.write_text(f"{C5}\n{P5}\n", encoding="ascii")
        calls = self.count_calls(monkeypatch, "conjecture")
        _, records, _, _ = run(capsys, ["conjecture", "--input", str(path)])
        assert calls == [(C5, 2), (P5, 2)]
        assert [(r["graph_id"], r["k"]) for r in records] == [(C5, 2), (C5, 3), (P5, 2), (P5, 3)]

    def test_repeated_graph_mirrors_within_each_copy(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "input.g6"
        path.write_text(f"{C5}\n{C5}\n{P5}\n", encoding="ascii")
        argv = ["conjecture", "--input", str(path), "--json"]
        assert main([*argv, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        calls = self.count_calls(monkeypatch, "conjecture")
        code, records, _, _ = run(capsys, [*argv, "--jobs", "1"])
        assert code == 0
        assert calls == [(C5, 2), (C5, 2), (P5, 2)]
        assert [(r["graph_id"], r["k"]) for r in records] == [
            (C5, 2), (C5, 3), (C5, 2), (C5, 3), (P5, 2), (P5, 3)]
        assert records[1] == records[3] == {**records[0], "k": 3}
        assert "".join(json.dumps(r) + "\n" for r in records) == parallel

    @pytest.mark.parametrize("argv", [["paths", "--n-max", "6"], ["conjecture", "--input"]])
    def test_jobs_do_not_change_output(self, capsys, tmp_path, argv):
        # mirror records are copied in the parent between records from the pool
        if argv[0] == "conjecture":  # the mixed file of TestConjecture
            path = tmp_path / "input.g6"
            path.write_text("".join(g + "\n" for g in (K4, TWO_PIECES, C5, P5, P3)),
                            encoding="ascii")
            argv = [*argv, str(path)]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_theorem_digest(self, capsys, monkeypatch):
        # sha256 of the records computed before mirroring existed
        refuse_decoding(monkeypatch)
        assert main(["theorem", "--n-max", "10", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "9b47c3292b92f24330db6a64bba43e2930035e9bd0d456d770ac1763165d5666"


def unfolded(monkeypatch, unit, arg):
    """The unit's record with no automorphisms to fold by."""
    with monkeypatch.context() as patch:
        patch.setattr(TokenGraph, "symmetries", lambda tg, fixing=None: [])
        return unit(arg)


class TestOrbitFolding:
    """paths builds one family per symmetry orbit of distance-2 pairs."""

    def test_folded_equals_unfolded(self, monkeypatch):
        trees = [t for n in range(2, 9) for t in enumerate_trees(n)]
        units = [(emit_graph6(t), t, k) for t in trees for k in range(1, t.n // 2 + 1)]
        assert len(units) == 155
        for arg in units:
            assert cli._paths_unit(arg) == unfolded(monkeypatch, cli._paths_unit, arg), arg

    def test_fold_count(self):
        # the 155 units of paths --n-max 8 with k <= n - k, as the sweep folds them
        units = kept = total = 0
        for tree in (t for n in range(2, 9) for t in enumerate_trees(n)):
            for k in range(1, tree.n // 2 + 1):
                tg = build_token_graph(tree, k)
                d2 = list(tg.distance2_pairs())
                kept += len(cli._first_pairs(d2, tg.symmetries()))
                total += len(d2)
                units += 1
        assert (units, kept, total) == (155, 5074, 17795)

    def test_fold_keeps_the_least_pair_of_each_orbit(self):
        # the whole group, not its generators: every tree automorphism, and each
        # composed with complementing when 2k = n, as a map of vertex indices
        units = 0
        for tree in (t for n in range(2, 8) for t in enumerate_trees(n)):
            group = generated_group(tree_automorphism_generators(tree), tree.n)
            for k in range(1, tree.n // 2 + 1):
                tg = build_token_graph(tree, k)
                maps = [[tg.index[sum(1 << p[v] for v in cfg)] for cfg in tg.vertices]
                        for p in group]
                if 2 * k == tree.n:
                    full = (1 << tree.n) - 1
                    maps += [[tg.index[full ^ tg.occupancy[i]] for i in m] for m in maps]
                d2 = list(tg.distance2_pairs())
                least = {min(tuple(sorted((m[i], m[j]))) for m in maps) for i, j in d2}
                # distance2_pairs is in index order, so each orbit's least pair comes first
                assert cli._first_pairs(d2, tg.symmetries()) == sorted(least), (tg.base, k)
                units += 1
        assert units == 63

    def test_one_family_per_orbit(self, monkeypatch):
        built = []
        real = cli.build_family
        monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a[1:3]) or real(*a))
        record = cli._paths_unit(make_unit("Cs", 2))  # the star K_{1,3}: S_3 and complementing
        assert record["pairs"] == 6 and record["status"] == "confirmed"
        assert built == [((0, 1), (0, 2))]

    def test_failing_representative(self, monkeypatch):
        # P_6 with k = 3: the reflection and complementing both act
        arg = make_unit("Eh_G", 3)
        tree = arg[1]
        assert tree.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (4, 5))
        tg = cli.build_token_graph(tree, 3)
        pairs = [(tg.vertices[i], tg.vertices[j]) for i, j in tg.distance2_pairs()]
        built = []
        real = cli.build_family
        monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a[1:3]) or real(*a))
        cli._paths_unit(arg)
        assert len(pairs) == 48 and len(built) < len(pairs)
        # fail on a pair the folding skips and on the next pair it builds after that
        skipped = next(p for p in pairs if p not in built)
        after = next(p for p in built if pairs.index(p) > pairs.index(skipped))

        def fails(t, x, y, delta):
            if (x, y) in (skipped, after):
                raise cli.FamilyConstructionError("planted")
            return real(t, x, y, delta)

        monkeypatch.setattr(cli, "build_family", fails)
        record = cli._paths_unit(arg)
        assert record == unfolded(monkeypatch, cli._paths_unit, arg)
        assert record["status"] == "violated"
        assert record["pairs"] == pairs.index(skipped) + 1
        assert record["instance"] == {"x": list(skipped[0]), "y": list(skipped[1]),
                                      "error": "planted"}

    def test_failing_representative_reuses_the_token_graph(self, monkeypatch):
        # the unfolded second pass runs on the F_k that the folded pass built
        real, built = cli.build_token_graph, []
        monkeypatch.setattr(cli, "build_token_graph", lambda *a: built.append(a) or real(*a))

        def fails(*args):
            raise cli.FamilyConstructionError("planted")

        monkeypatch.setattr(cli, "build_family", fails)
        record = cli._paths_unit(make_unit("Eh_G", 3))
        assert len(built) == 1
        assert record["status"] == "violated" and record["pairs"] == 1
        assert record["instance"] == {"x": [0, 1, 2], "y": [0, 2, 3], "error": "planted"}

    def test_sweep_builds_no_token_paths(self, capsys, monkeypatch):
        # a unit reads each family's size; its TokenPath objects are built
        # only when something reads `family`, and no sweep does
        assert main(["paths", "--n-max", "7", "--json"]) == 0
        plain = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

        def refuse(*args, **kwargs):
            raise RuntimeError("a paths sweep built a TokenPath")

        monkeypatch.setattr(families, "TokenPath", refuse)
        assert main(["paths", "--n-max", "7", "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == plain

    def test_paths_digest(self, capsys, monkeypatch):
        # sha256 of the records computed before orbit folding existed
        refuse_decoding(monkeypatch)
        assert main(["paths", "--n-max", "9", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "f02e16c2a1b641fe7536840db1cfb85ae0a1fa562328a997366ba62ce499dd86"


class TestFlowFolding:
    """theorem and conjecture run one flow per symmetry orbit of flow pairs."""

    @staticmethod
    def count_flows(monkeypatch):
        real, calls = connectivity._unit_flow, []
        monkeypatch.setattr(connectivity, "_unit_flow",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    @staticmethod
    def flow_units(graphs, ks):
        """The unit of each F_k with minimum degree 3 or more, where flows run."""
        return [(emit_graph6(g), g, k) for g in graphs for k in ks(g)
                if build_token_graph(g, k).min_degree() >= 3]

    def folded_and_unfolded(self, monkeypatch, unit, args):
        flows = self.count_flows(monkeypatch)
        counts = []
        for arg in args:
            before = len(flows)
            record = unit(arg)
            middle = len(flows)
            assert record == unfolded(monkeypatch, unit, arg), arg
            counts.append((middle - before, len(flows) - middle))
        return counts

    def test_theorem_units_up_to_n10(self, monkeypatch):
        trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
        args = self.flow_units(trees, lambda t: range(2, t.n // 2 + 1))
        assert len(args) == 21
        counts = self.folded_and_unfolded(monkeypatch, cli._theorem_unit, args)
        assert all(folded < plain for folded, plain in counts)

    def test_seeded_theorem_units_with_11_and_12_vertices(self, monkeypatch):
        # many leaves make delta >= 3 likely; the seed picks trees among them
        rng = random.Random(11)
        trees = [t for n in (11, 12) for t in enumerate_trees(n)
                 if sum(len(a) == 1 for a in t.adjacency) >= t.n - 4]
        args = self.flow_units(rng.sample(trees, 6), lambda t: range(3, t.n // 2 + 1))
        assert len(args) == 3
        counts = self.folded_and_unfolded(monkeypatch, cli._theorem_unit, args)
        assert sum(folded for folded, _ in counts) < sum(plain for _, plain in counts)

    def test_conjecture_units_with_2k_equal_n(self, monkeypatch):
        graphs = [g for g in girth5_catalog(9) if g.n % 2 == 0 and g.n >= 4]
        args = [(emit_graph6(g), g, g.n // 2) for g in graphs]
        counts = self.folded_and_unfolded(monkeypatch, cli._conjecture_unit, args)
        assert len(args) == 57
        # only the trees fold: complementing fixes no source and, with n > 4,
        # maps no pair of a scan onto another pair of the same scan
        trees = [g.is_tree() for g in graphs]
        assert all(folded == plain for (folded, plain), tree in zip(counts, trees) if not tree)
        assert sum(folded for (folded, _), tree in zip(counts, trees) if tree) < sum(
            plain for (_, plain), tree in zip(counts, trees) if tree)

    @pytest.mark.parametrize("leaves, k, most", [(29, 3, 20), (11, 6, 40)])
    def test_star_units_run_few_flows(self, monkeypatch, leaves, k, most):
        # the automorphisms that fix the source configuration leave a handful
        # of sink orbits, however large the star's group
        flows = self.count_flows(monkeypatch)
        star = star_graph(leaves)
        record = cli._conjecture_unit((emit_graph6(star), star, k))
        assert record["status"] == "confirmed"
        assert len(flows) <= most

    def test_large_symmetric_tree_stays_small(self, tmp_path):
        # the star K_{1,29} has 29! automorphisms and 4,060 3-configurations;
        # folding by the stabiliser of each scan's source must stay within
        # 256 MiB, and the scan must still finish exactly
        (tmp_path / "star.g6").write_text(emit_graph6(star_graph(29)) + "\n")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

        proc = subprocess.run(
            [sys.executable, "-m", "tokengraphs", "conjecture", "--input",
             str(tmp_path / "star.g6"), "--k", "3", "--json"],
            capture_output=True, text=True, timeout=300, preexec_fn=cap_memory,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert (record["delta"], record["kappa"], record["status"]) == (3, 3, "confirmed")

    def test_theorem_routes_n9(self, capsys, monkeypatch):
        # of the 343 token graphs `theorem --n-max 9` builds, the BFS
        # (`connected`) settles 262 and the DFS (`cut_flags`) 81, and 129
        # flows run, so a new search kernel cannot move a unit to another route
        flows, searches = self.count_flows(monkeypatch), Counter()
        for name in ("connected", "cut_flags"):
            def counted(tg, compute=getattr(MaskGraph, name).func, name=name):
                searches[name] += 1
                return compute(tg)

            prop = cached_property(counted)
            prop.__set_name__(TokenGraph, name)
            monkeypatch.setattr(TokenGraph, name, prop, raising=False)
        assert main(["theorem", "--n-max", "9", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "835734700d5f64e0d485f059dc6a7b0c60a7e92dbf23313c52605e397c80ecd4"
        assert searches == {"connected": 262, "cut_flags": 81}
        assert len(flows) == 129

    def test_theorem_digest_n11(self, capsys, monkeypatch):
        # sha256 of the records computed before flows folded, and the number
        # of flows the folded sweep runs, so a change to the fold shows here;
        # the count follows F_k's colex vertex order, which picks each scan's
        # source (the first minimum-degree vertex) and orders its sinks
        flows = self.count_flows(monkeypatch)
        assert main(["theorem", "--n-max", "11", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a5d1040462540c33f4d5eee0a484e5eb600d9cdc11188fa62d4b5cb4c94c5260"
        assert len(flows) == 1698


class TestPlantedGenerator:
    """A tree generator that is not an automorphism fails the unit, not a pair."""

    @pytest.fixture
    def bad_generator(self, monkeypatch):
        def swap_leaf_and_inner(tree, marked=0):
            degrees = [len(a) for a in tree.adjacency]
            if max(degrees) < 2:
                return []
            perm = list(range(tree.n))
            leaf, inner = degrees.index(1), degrees.index(max(degrees))
            perm[leaf], perm[inner] = inner, leaf
            return [tuple(perm)]

        monkeypatch.setattr(tokens, "tree_automorphism_generators", swap_leaf_and_inner)

    def test_theorem(self, capsys, bad_generator):
        # the star K_{1,5} with k = 3 is the one unit up to n = 6 that runs flows
        code, records, _, _ = run(capsys, ["theorem", "--n-max", "6", "--json"])
        assert code == 3
        errors = [r for r in records if r["status"] == "error"]
        assert [(r["graph_id"], r["k"]) for r in errors] == [("Esa?", 3)]
        assert "is not an automorphism" in errors[0]["error"]

    def test_paths(self, capsys, bad_generator):
        code, records, _, _ = run(capsys, ["paths", "--n-max", "4", "--json"])
        assert code == 3
        # only the two-vertex tree has no leaf to swap with an inner vertex
        assert [r["status"] for r in records] == ["confirmed"] + ["error"] * 8
        assert all("is not an automorphism" in r["error"] for r in records[1:])

    def test_generator_that_moves_the_source(self, capsys, monkeypatch):
        # automorphisms of the whole tree, ignoring the marked source configuration
        real = tokens.tree_automorphism_generators
        monkeypatch.setattr(tokens, "tree_automorphism_generators",
                            lambda tree, marked=0: real(tree))
        code, records, _, _ = run(capsys, ["theorem", "--n-max", "6", "--json"])
        assert code == 3
        errors = [r for r in records if r["status"] == "error"]
        assert [(r["graph_id"], r["k"]) for r in errors] == [("Esa?", 3)]
        assert "moves" in errors[0]["error"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["theorem", "--n-max", "14"],
            ["theorem", "--n-max", "1"],
            ["paths", "--n-max", "11"],
            ["hfamily", "--m-min", "7"],
            ["conjecture"],
            ["conjecture", "--input", "x.g6", "--k", "two"],
            ["theorem", "--jobs", "0"],
        ],
    )
    def test_bad_invocations(self, capsys, argv):
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem", "--n-max", "x"],
            ["paths", "--jobs", "x"],
            ["hfamily", "--m-min", "x"],
            ["hfamily", "--m-max", "x"],
            ["conjecture", "--input", "x.g6", "--k", "x"],
        ],
    )
    def test_non_int_names_the_type(self, capsys, argv):
        # a range-checked option words it as argparse does for type=int
        assert main(argv) == 2
        _, err = capsys.readouterr()
        assert err.splitlines()[-1].endswith(f"argument {argv[-2]}: invalid int value: 'x'")

    def test_m_range_inverted(self, capsys):
        assert main(["hfamily", "--m-min", "6", "--m-max", "3"]) == 2
        _, err = capsys.readouterr()
        assert "--m-min above --m-max" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


TRACED_SWEEP = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from tokengraphs import cli
tr = tracer.Tracer()
tracer.install(tr)
code = tr.full("cli.main", cli.main)(["theorem", "--n-max", "6", "--json"])
print(json.dumps({"code": code, "metrics": tracer.layer_metrics(tr)}))
"""

TRACED_PATHS_AND_THEOREM = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from tokengraphs import cli
tr = tracer.Tracer()
tracer.install(tr)
main = tr.full("cli.main", cli.main)
codes = [main(["paths", "--n-max", "6", "--json"]), main(["theorem", "--n-max", "8", "--json"])]
print(json.dumps({"codes": codes, "metrics": tracer.layer_metrics(tr)}))
"""

# the spans a paths and a theorem sweep reach; the tracer also wraps
# min_token_degree, parse_graph6, girth and TokenGraph.as_graph, which
# neither sweep calls
REACHED_SPANS = (
    "cli.main", "cli.unit", "cli.wait", "cli.write",
    "connectivity.vertex_connectivity", "connectivity.edge_connectivity",
    "graphs.enumerate_trees", "graphs.emit_graph6",
    "tokens.build_token_graph", "tokens.distance2_pairs",
    "families.build_family", "families.normalize",
    "moves.token_path", "moves.check_trace", "moves.disjoint",
)


class TestTracerSeams:
    """The benchmark's tracer wraps module names in cli and families; a traced
    sweep must still pass through them."""

    def test_traced_theorem_sweep(self, capsys):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_SWEEP, str(root / "perfbench"), str(root / "src")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *records, last = proc.stdout.splitlines()
        result = json.loads(last)
        assert result["code"] == 0
        assert main(["theorem", "--n-max", "6", "--json"]) == 0
        assert records == capsys.readouterr().out.splitlines()
        metrics = result["metrics"]
        # one span per computed unit: the 30 units with k <= n - k
        assert metrics["connectivity.vertex_connectivity_calls"] == 30
        assert metrics["connectivity.edge_connectivity_calls"] == 30
        assert metrics["tokens.build_token_graph_calls"] == 30
        assert metrics["tokens.fk_vertices"] > 0

    def test_traced_paths_and_theorem_sweeps(self):
        # build_family reaches the path engine through the module globals the
        # tracer wraps; a family built past one of them leaves its span empty
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-B", "-c", TRACED_PATHS_AND_THEOREM,
             str(root / "perfbench"), str(root / "src")],
            capture_output=True, text=True, timeout=120, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0]
        metrics = result["metrics"]
        assert [name for name in REACHED_SPANS if not metrics.get(f"{name}_calls")] == []
        # one normalisation and one disjointness check per family, and one
        # TokenPath per path out (the tracer reads result.family once)
        calls = [metrics[f"{name}_calls"]
                 for name in ("families.build_family", "families.normalize", "moves.disjoint")]
        assert calls == [182] * 3
        assert metrics["moves.token_path_calls"] == metrics["families.paths_out"] == 365

def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestClosedStdout:
    """A reader that closes stdout early ends the sweep quietly with 141."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_closed_pipe_exits_141_without_traceback(self, jobs):
        env = src_env()
        # 149 kB of records: more than the pipe and stdout buffers hold, so a
        # write must meet the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "tokengraphs", "theorem", "--n-max", "10", "--json",
             "--jobs", jobs],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert json.loads(proc.stdout.readline())["graph_id"] == "A_"
        proc.stdout.close()
        # stderr ends only when every process holding it, workers included, has exited
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141, err.decode()
        assert b"Traceback" not in err


DEAD_WORKER = """
import os, signal, sys
from tokengraphs import cli

run = cli._UNIT_RUNNERS["hfamily"]

def unit(m):
    if m == 4:  # in a forked worker: end it as the kernel's OOM killer would
        os.kill(os.getpid(), signal.SIGKILL)
    return run(m)

cli._UNIT_RUNNERS["hfamily"] = unit
sys.exit(cli.main(["hfamily", "--m-min", "3", "--m-max", "6", "--jobs", "2", "--json"]))
"""


class TestDeadWorker:
    """A --jobs worker that dies ends the sweep with exit code 3, not a hang."""

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers do not inherit patches")
    def test_killed_worker_exits_3(self):
        proc = subprocess.Popen([sys.executable, "-c", DEAD_WORKER], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=src_env(),
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the sweep hung after a worker died")
        assert proc.returncode == 3, err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        # the m = 3 record is written when it returned before the pool broke
        assert [json.loads(line)["m"] for line in out.splitlines()] in ([], [3])
        with pytest.raises(ProcessLookupError):  # no worker outlives the sweep
            os.killpg(proc.pid, 0)


class TestImports:
    def test_serial_sweep_modules_stay_unloaded(self):
        # a --jobs pool and a unit's traceback import these where they are used
        code = ("import sys, tokengraphs.cli; print([m for m in ('multiprocessing', "
                "'concurrent.futures', 'traceback') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), timeout=120)
        assert proc.stdout == "[]\n", proc.stderr


class TestModuleEntryPoint:
    def test_standard_library_only(self, capsys):
        # -S keeps site-packages, and with them networkx and hypothesis, off the path
        argv = ["hfamily", "--m-min", "3", "--m-max", "4", "--json"]
        proc = subprocess.run([sys.executable, "-S", "-m", "tokengraphs", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tokengraphs", "theorem", "--n-max", "2", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.strip())
        assert record["status"] == "confirmed"
