"""Command-line interface: formats, exit codes, round trips, determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_regular
from starpcg import MODE_EXHAUSTIVE, MODE_RANDOM, Graph, Witness, cycle_witness, make_cycle
from starpcg import cli
from starpcg.cli import (
    EDGE_BUDGET,
    EXIT_MISMATCH,
    EXIT_NO_CERTIFICATE,
    EXIT_OK,
    EXIT_USAGE,
    STEP_BUDGET,
    VERTEX_BUDGET,
    main,
)
from starpcg.search import SPACE_LIMIT, SearchConfig, search_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestGenerate:
    def test_cycle_json(self, capsys):
        code, obj = run_json(capsys, "generate", "cycle", "8")
        assert code == EXIT_OK
        assert obj["n"] == 8 and len(obj["edges"]) == 8

    def test_grid_dot(self, capsys):
        code, out = run_cli(capsys, "generate", "grid", "4", "2", "--dot")
        assert code == EXIT_OK
        assert out.startswith("graph G {")
        assert out.count("--") == 10

    def test_grid_4d(self, capsys):
        code, obj = run_json(capsys, "generate", "grid", "3", "3", "3", "3")
        assert code == EXIT_OK
        assert obj["n"] == 81 and len(obj["edges"]) == 216

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out = run_cli(capsys, "generate", "path", "4", "-o", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["n"] == 4

    def test_bad_size_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "generate", "cycle", "2")
        assert code == EXIT_USAGE

    def test_non_integer_param(self, capsys):
        code, _ = run_cli(capsys, "generate", "cycle", "abc")
        assert code == EXIT_USAGE

    def test_unknown_family(self, capsys):
        code, _ = run_cli(capsys, "generate", "torus", "4")
        assert code == EXIT_USAGE

    def test_cycle_needs_one_param(self, capsys):
        code, _ = run_cli(capsys, "generate", "cycle", "4", "5")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "grid", "100000", "100000"),
            ("generate", "cycle", str(VERTEX_BUDGET + 1)),
            ("generate", "grid", "10", "10", "10", "10", "11"),
            ("witness", "grid", "1000", "1000"),
            ("witness", "path", str(10**30)),
            ("mink", "grid", "1000", "1000"),
        ],
    )
    def test_over_vertex_budget_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"the limit is {VERTEX_BUDGET}" in captured.err

    def test_vertex_budget_is_inclusive(self, capsys):
        code, obj = run_json(capsys, "generate", "path", str(VERTEX_BUDGET))
        assert code == EXIT_OK and obj["n"] == VERTEX_BUDGET

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize(
        "argv",
        [
            ("witness", "grid", "3", "33333"),
            ("witness", "grid", "33333", "3"),
            ("witness", "grid", "2", "50000"),
            ("witness", "grid", "50000", "2"),
            ("witness", "path", "100000"),
            ("witness", "cycle", "100000"),
            ("generate", "grid", "3", "33333"),
        ],
    )
    def test_accepted_request_at_the_budget_runs_in_512_mb(self, argv):
        # a witness for a 3 x 33333 grid once built the 33333 x 33333 square's
        # 1.1 * 10^9 weights first and died with a MemoryError traceback
        def cap_address_space():  # runs in the child only
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            limit = 512 * 2**20
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == EXIT_OK and "Traceback" not in proc.stderr, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["n" if argv[0] == "generate" else "weights"]


class TestFamilyRefusals:
    @pytest.mark.parametrize("command", ["generate", "witness", "mink"])
    @pytest.mark.parametrize(
        "target, message",
        [
            (("cycle", "x"), "expected an integer size, got 'x'"),
            (("cycle", "4", "5"), "cycle takes exactly one size parameter"),
            (("grid",), "grid takes one or more dimension sizes"),
            (("grid", "316", "317"), "grid 316 317 has 100172 vertices; the limit is 100000"),
            (("path", "100001"), "path 100001 has 100001 vertices; the limit is 100000"),
            (("grid", *["2"] * 18), "grid 2 2 2 2 2 2 ... has 262144 vertices; the limit is 100000"),
        ],
    )
    def test_exact_message(self, capsys, command, target, message):
        if command != "mink" and len(target) == 1:
            # generate and witness declare their sizes nargs="+", so argparse
            # refuses an empty size list before the family check sees it
            message = "the following arguments are required: params"
        code = main([command, *target])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", f"starpcg: {message}\n")

    def test_many_huge_sizes_are_refused_from_their_bit_lengths(self, capsys):
        # multiplying these 200 sizes of 10^4000 out took 1.1 to 1.8 s; each is
        # at least 2^13287, so the refusal names that bound without the product
        start = time.perf_counter()
        code = main(["generate", "grid", *["1" + "0" * 4000] * 200])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.endswith(f" ... has 2^{200 * 13287} or more vertices; the limit is {VERTEX_BUDGET}\n")
        assert elapsed < 1


class TestWitness:
    def test_cycle_odd(self, capsys):
        code, obj = run_json(capsys, "witness", "cycle", "7")
        assert code == EXIT_OK
        assert obj["construction"] == "cycle-odd"
        assert obj["weights"] == [8, 5, 10, 3, 12, 1, 6]
        assert obj["intervals"] == [[13, 15], [7, 7]]
        assert obj["k"] == 2

    def test_cycle_even(self, capsys):
        code, obj = run_json(capsys, "witness", "cycle", "8")
        assert obj["construction"] == "cycle-even"
        assert obj["weights"] == [12, 1, 11, 2, 10, 3, 9, 4]

    def test_grid_square(self, capsys):
        code, obj = run_json(capsys, "witness", "grid", "4", "4")
        assert obj["construction"] == "grid-square"
        assert obj["intervals"] == [[24, 25], [29, 30]]
        assert obj["h"] == 4

    def test_grid_two_columns(self, capsys):
        code, obj = run_json(capsys, "witness", "grid", "4", "2")
        assert obj["construction"] == "grid-two-columns"
        assert obj["intervals"] == [[8, 10]]

    def test_grid_restricted(self, capsys):
        code, obj = run_json(capsys, "witness", "grid", "3", "5")
        assert obj["construction"] == "grid-square-restricted"
        assert obj["h"] == 5 and obj["n1"] == 3 and obj["n2"] == 5

    def test_grid_single_row_is_path(self, capsys):
        code, obj = run_json(capsys, "witness", "grid", "1", "6")
        assert obj["construction"] == "path"

    def test_path(self, capsys):
        code, obj = run_json(capsys, "witness", "path", "9")
        assert obj["construction"] == "path" and obj["k"] == 1

    def test_witness_grid_needs_two_dims(self, capsys):
        code, _ = run_cli(capsys, "witness", "grid", "2", "2", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "sizes, record",
        [
            ("cycle 5", '"cycle-odd", "n": 5, "k": 2, "weights": [6, 3, 8, 1, 4], '
                        '"intervals": [[9, 11], [5, 5]]'),
            ("cycle 6", '"cycle-even", "n": 6, "k": 2, "weights": [9, 1, 8, 2, 7, 3], '
                        '"intervals": [[9, 10], [12, 12]]'),
            ("path 4", '"path", "n": 4, "k": 1, "weights": [8, 2, 6, 4], "intervals": [[8, 10]]'),
            ("grid 1 3", '"path", "n1": 1, "n2": 3, "k": 1, "weights": [6, 2, 4], '
                         '"intervals": [[6, 8]]'),
            ("grid 3 1", '"path", "n1": 3, "n2": 1, "k": 1, "weights": [6, 2, 4], '
                         '"intervals": [[6, 8]]'),
            ("grid 3 2", '"grid-two-columns", "n1": 3, "n2": 2, "k": 1, '
                         '"weights": [6, 1, 2, 5, 4, 3], "intervals": [[6, 8]]'),
            ("grid 2 3", '"grid-two-columns", "n1": 2, "n2": 3, "k": 1, '
                         '"weights": [6, 2, 4, 1, 5, 3], "intervals": [[6, 8]]'),
            ("grid 2 2", '"grid-two-columns", "n1": 2, "n2": 2, "k": 1, '
                         '"weights": [4, 1, 2, 3], "intervals": [[4, 6]]'),
            ("grid 3 3", '"grid-square", "h": 3, "n1": 3, "n2": 3, "k": 2, '
                         '"weights": [16, 0, 13, 1, 12, 4, 11, 5, 8], '
                         '"intervals": [[12, 13], [16, 17]]'),
            ("grid 3 4", '"grid-square-restricted", "h": 4, "n1": 3, "n2": 4, "k": 2, '
                         '"weights": [29, 0, 25, 4, 1, 24, 5, 20, 23, 6, 19, 10], '
                         '"intervals": [[24, 25], [29, 30]]'),
            ("grid 4 3", '"grid-square-restricted", "h": 4, "n1": 4, "n2": 3, "k": 2, '
                         '"weights": [29, 0, 25, 1, 24, 5, 23, 6, 19, 7, 18, 11], '
                         '"intervals": [[24, 25], [29, 30]]'),
        ],
    )
    def test_record_is_pinned(self, capsys, sizes, record):
        # the whole stdout, key order included, for each case the constructions name
        code, out = run_cli(capsys, "witness", *sizes.split())
        assert code == EXIT_OK
        assert out == '{"construction": ' + record + "}\n"


class TestVerify:
    def _write(self, capsys, tmp_path, name, *argv):
        path = tmp_path / name
        assert main([*argv, "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        return str(path)

    def test_constructed_witness_verifies(self, capsys, tmp_path):
        graph = self._write(capsys, tmp_path, "g.json", "generate", "cycle", "8")
        witness = self._write(capsys, tmp_path, "w.json", "witness", "cycle", "8")
        code, obj = run_json(capsys, "verify", graph, witness)
        assert code == EXIT_OK
        assert obj == {"equal": True, "missing": [], "extra": []}

    def test_dropped_interval_reports_missing_edge(self, capsys, tmp_path):
        graph = self._write(capsys, tmp_path, "g.json", "generate", "cycle", "8")
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [12, 1, 11, 2, 10, 3, 9, 4], "intervals": [[12, 13]]}))
        code, obj = run_json(capsys, "verify", graph, str(witness))
        assert code == EXIT_MISMATCH
        assert obj["equal"] is False
        assert obj["missing"] == [[0, 7]]
        assert obj["extra"] == []

    def test_wrong_graph_is_mismatch(self, capsys, tmp_path):
        graph = self._write(capsys, tmp_path, "g.json", "generate", "path", "8")
        witness = self._write(capsys, tmp_path, "w.json", "witness", "cycle", "8")
        code, _ = run_json(capsys, "verify", graph, witness)
        assert code == EXIT_MISMATCH

    def test_edgeless_empty_witness(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [0, 0, 0], "intervals": []}))
        code, obj = run_json(capsys, "verify", str(graph), str(witness))
        assert code == EXIT_OK and obj["equal"] is True

    def test_graph_from_stdin(self, capsys, tmp_path, monkeypatch):
        witness = self._write(capsys, tmp_path, "w.json", "witness", "cycle", "5")
        graph_json = json.dumps({"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(graph_json))
        code, obj = run_json(capsys, "verify", "-", witness)
        assert code == EXIT_OK and obj["equal"] is True

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "verify", str(bad), str(bad))
        assert code == EXIT_USAGE

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "verify", str(tmp_path / "absent.json"), str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE

    def test_round_trip_over_supported_families(self, capsys, tmp_path):
        cases = [("cycle", [str(n)]) for n in range(3, 11)]
        cases += [("path", [str(n)]) for n in range(1, 9)]
        cases += [
            ("grid", [str(a), str(b)])
            for a, b in ((4, 2), (2, 5), (1, 7), (3, 3), (4, 4), (3, 5), (5, 3))
        ]
        for family, params in cases:
            graph = self._write(capsys, tmp_path, "g.json", "generate", family, *params)
            witness = self._write(capsys, tmp_path, "w.json", "witness", family, *params)
            code, obj = run_json(capsys, "verify", graph, witness)
            assert code == EXIT_OK and obj["equal"] is True, (family, params)


class TestObstruct:
    def _files(self, tmp_path, graph_obj, weights_obj):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(graph_obj))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(weights_obj))
        return str(graph), str(weights)

    def test_c5_certificate(self, capsys, tmp_path):
        graph, weights = self._files(
            tmp_path,
            {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]},
            [1, 2, 3, 4, 5],
        )
        code, obj = run_json(capsys, "obstruct", graph, weights, "1")
        assert code == EXIT_OK
        assert obj == {"kind": "interleaving", "x": 0, "vs": [1, 4], "us": [2], "k": 1}

    def test_weights_may_come_from_witness_json(self, capsys, tmp_path):
        graph, weights = self._files(
            tmp_path,
            {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]},
            {"weights": [1, 2, 3, 4, 5], "intervals": []},
        )
        code, obj = run_json(capsys, "obstruct", graph, weights, "1")
        assert code == EXIT_OK and obj["x"] == 0

    def test_triangle_yields_none(self, capsys, tmp_path):
        graph, weights = self._files(
            tmp_path, {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}, [4, 1, 2]
        )
        code, out = run_cli(capsys, "obstruct", graph, weights, "1")
        assert code == EXIT_NO_CERTIFICATE
        assert out == "none\n"

    def test_bad_weights_payload(self, capsys, tmp_path):
        graph, weights = self._files(tmp_path, {"n": 3, "edges": []}, {"nope": 1})
        code, _ = run_cli(capsys, "obstruct", graph, weights, "1")
        assert code == EXIT_USAGE

    def test_non_integer_k(self, capsys, tmp_path):
        graph, weights = self._files(tmp_path, {"n": 3, "edges": []}, [1, 2, 3])
        code, _ = run_cli(capsys, "obstruct", graph, weights, "one")
        assert code == EXIT_USAGE


class TestMink:
    def test_family_target(self, capsys):
        code, obj = run_json(capsys, "mink", "cycle", "4", "--max-weight", "6")
        assert code == EXIT_OK
        assert obj["best_k"] == 1
        assert obj["exhaustive_within_bound"] is True

    def test_graph_file_target(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        assert main(["generate", "cycle", "3", "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        code, obj = run_json(capsys, "mink", str(path), "--max-weight", "4")
        assert code == EXIT_OK and obj["best_k"] == 1

    def test_stdin_target(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"n": 2, "edges": [[0, 1]]}))
        )
        code, obj = run_json(capsys, "mink", "-", "--max-weight", "2")
        assert code == EXIT_OK and obj["best_k"] == 1

    def test_human_output(self, capsys):
        code, out = run_cli(capsys, "mink", "cycle", "4", "--max-weight", "4", "--human")
        assert code == EXIT_OK
        assert "best: 1 interval(s)" in out
        assert "covered all vectors" in out

    @staticmethod
    def _reference_parser():
        # the mink options as declared with the search layer's own mode names;
        # --help shows no default, so none is declared here
        p = cli._Parser(prog="starpcg mink")
        p.add_argument("target", nargs="+", help="graph file, '-', or family with sizes")
        p.add_argument("--max-weight", type=int)
        p.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_RANDOM))
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--target-k", type=int)
        p.add_argument("--jobs", type=int, help="census worker processes (random mode runs in-process)")
        p.add_argument(
            "--prune-symmetry", action="store_true", help="target runs only (a census uses symmetry itself)"
        )
        p.add_argument("--human", action="store_true", help="render a text summary instead of JSON")
        p.add_argument("-o", "--output", default="-")
        return p

    def test_help_and_mode_choices_match_the_search_layer(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["mink", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == self._reference_parser().format_help()
        assert "[--mode {exhaustive,random}]" in out
        assert cli.SEARCH_MODES == (MODE_EXHAUSTIVE, MODE_RANDOM)

    @pytest.mark.parametrize(
        "argv, fields",
        [
            ([], {}),
            (["--max-weight", "4"], {"max_weight": 4}),
            # neither --trials nor --seed: the library's show in explored and config
            (["--mode", "random"], {"mode": MODE_RANDOM}),
            (["--trials", "7"], {"trials": 7}),
            (["--seed", "3"], {"rng_seed": 3}),
            (["--target-k", "2"], {"target_k": 2}),
            (["--jobs", "2"], {"jobs": 2}),
            (["--prune-symmetry"], {"prune_symmetry": True}),
        ],
    )
    def test_an_option_left_out_keeps_the_search_default(self, capsys, argv, fields):
        code, out = run_cli(capsys, "mink", "cycle", "5", *argv)
        assert code == EXIT_OK
        assert out == json.dumps(search_report(make_cycle(5), SearchConfig(**fields))) + "\n"
        args = cli.build_parser().parse_args(["mink", "cycle", "5", *argv])
        assert {f.name for f in dataclasses.fields(SearchConfig)} & vars(args).keys() == fields.keys()

    def test_unknown_mode_is_usage_error(self, capsys):
        assert main(["mink", "cycle", "5", "--mode", "bogus"]) == EXIT_USAGE
        with pytest.raises(cli._UsageError) as want:
            self._reference_parser().parse_args(["cycle", "5", "--mode", "bogus"])
        assert capsys.readouterr().err == f"starpcg: {want.value}\n"
        assert "invalid choice: 'bogus'" in str(want.value)

    def test_random_mode_flags(self, capsys):
        code, obj = run_json(
            capsys,
            "mink", "cycle", "5", "--mode", "random", "--trials", "60", "--seed", "9",
        )
        assert code == EXIT_OK
        assert obj["explored"] == 60
        assert obj["config"]["seed"] == 9
        assert obj["exhaustive_within_bound"] is False

    def test_jobs_do_not_change_findings(self, capsys):
        code1, obj1 = run_json(capsys, "mink", "cycle", "4", "--max-weight", "4")
        code2, obj2 = run_json(capsys, "mink", "cycle", "4", "--max-weight", "4", "--jobs", "2")
        assert code1 == code2 == EXIT_OK
        obj1.pop("config")
        obj2.pop("config")
        assert obj1 == obj2

    def test_target_k_early_exit(self, capsys):
        code, obj = run_json(
            capsys, "mink", "cycle", "5", "--max-weight", "6", "--target-k", "2"
        )
        assert code == EXIT_OK
        assert obj["best_k"] == 2
        assert obj["explored"] < 7**5

    def test_prune_symmetry_flag(self, capsys):
        code, obj = run_json(
            capsys, "mink", "cycle", "4", "--max-weight", "4", "--prune-symmetry"
        )
        assert code == EXIT_OK and obj["best_k"] == 1

    def test_prune_symmetry_on_an_asymmetric_cubic_graph_finishes(self, tmp_path):
        # the automorphism search once ran for over 45 s on this 24-vertex graph;
        # pruning applies to target runs, and target 0 is never hit on a graph with edges
        target = tmp_path / "g.json"
        target.write_text(json.dumps(random_regular(random.Random(24), 24, 3).to_dict()))
        argv = ["mink", str(target), "--max-weight", "1", "--target-k", "0", "--prune-symmetry"]
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["exhaustive_within_bound"] is True

    def test_oversized_space_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mink", "cycle", "3", "--max-weight", "1000")
        assert code == EXIT_USAGE

    def test_one_vertex_at_a_huge_bound_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mink", "path", "1", "--max-weight", "999999999")
        assert code == EXIT_USAGE

    def test_two_vertices_past_the_word_limit_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mink", "path", "2", "--max-weight", "31621")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("target", [["grid", "60", "60"], ["path", "3000"], ["{edgeless}"]])
    def test_work_past_the_int_print_limit_is_refused_briefly(self, capsys, tmp_path, target):
        # (W+1)^n runs to over 10^4 digits here, which Python 3.11 refuses to print
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"n": 50_000, "edges": []}))
        start = time.perf_counter()
        code = main(["mink", *(arg.format(edgeless=graph) for arg in target)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"or more exceeds {SPACE_LIMIT}" in captured.err, captured.err
        assert len(captured.err) < 300 and "set_int_max_str_digits" not in captured.err
        assert elapsed < 1

    def test_bad_target_words(self, capsys):
        code, _ = run_cli(capsys, "mink", "nonsense", "words")
        assert code == EXIT_USAGE

    def test_missing_graph_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "mink", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE


class TestMalformedGraph:
    @pytest.mark.parametrize(
        "payload",
        [
            {"n": True, "edges": []},
            {"n": 3, "edges": [1]},
            {"n": 3, "edges": [[0, True]]},
            {"n": 3, "edges": 5},
        ],
        ids=["bool-n", "non-pair-edge", "bool-endpoint", "edges-not-a-list"],
    )
    def test_verify_and_mink_exit_usage(self, capsys, tmp_path, payload):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(payload))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [0, 0, 0], "intervals": []}))
        code, out = run_cli(capsys, "verify", str(graph), str(witness))
        assert code == EXIT_USAGE and out == ""
        code, out = run_cli(capsys, "mink", str(graph), "--max-weight", "2")
        assert code == EXIT_USAGE and out == ""


class TestMalformedWitness:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"weights": [0, 0, 0], "intervals": 5}, "intervals must be a list"),
            ({"weights": [0, 0, 0], "intervals": [[True, 3]]}, "endpoints must be integers"),
            ({"weights": [0, 0, 0], "intervals": [[1]]}, "[1] is not a [lo, hi] pair"),
            ({"weights": [0, 0, 0], "intervals": [[1, 2, 3]]}, "is not a [lo, hi] pair"),
            ({"weights": [0, 0, 0], "intervals": [7]}, "7 is not a [lo, hi] pair"),
            ({"weights": 5, "intervals": []}, "weights must be a sequence"),
        ],
        ids=[
            "intervals-not-a-list",
            "bool-endpoint",
            "one-endpoint",
            "three-endpoints",
            "interval-not-a-pair",
            "weights-not-a-list",
        ],
    )
    def test_verify_exits_usage(self, capsys, tmp_path, payload, message):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(payload))
        code = main(["verify", str(graph), str(witness)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert message in captured.err


class TestLongValuesInRefusals:
    LONG = "a" * 200_000

    @pytest.mark.parametrize(
        "graph, payload, command",
        [
            ({"n": 3, "edges": []}, {"weights": [LONG, 0, 0], "intervals": []}, "verify"),
            ({"n": 3, "edges": []}, [LONG, 0, 0], "obstruct"),
            ({"n": 3, "edges": [[LONG, 1]]}, {"weights": [0, 0, 0], "intervals": []}, "verify"),
            ({"n": 3, "edges": []}, {"weights": [0, 0, 0], "intervals": LONG}, "verify"),
            (
                {"n": 3, "edges": []},
                {"weights": [0, 0, 0], "intervals": [list(range(10**5))]},
                "verify",
            ),
            ({"n": 3, "edges": []}, {"weights": [0, 0, 0], "intervals": [[LONG, 1]]}, "verify"),
        ],
        ids=["weight", "obstruct-weight", "edge", "intervals", "interval", "endpoint"],
    )
    def test_message_is_shortened(self, capsys, tmp_path, graph, payload, command):
        (tmp_path / "g.json").write_text(json.dumps(graph))
        (tmp_path / "p.json").write_text(json.dumps(payload))
        argv = [command, str(tmp_path / "g.json"), str(tmp_path / "p.json")]
        code = main(argv + ["1"] if command == "obstruct" else argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert 0 < len(captured.err) < 300, captured.err[:300]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.11"
    )
    def test_number_past_the_digit_limit_names_the_file(self, capsys, tmp_path):
        (tmp_path / "g.json").write_text(json.dumps({"n": 1, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text('{"weights": [' + "9" * 5000 + '], "intervals": []}')
        code = main(["verify", str(tmp_path / "g.json"), str(witness)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith(f"starpcg: cannot read witness from {witness}: "), captured.err
        assert "too long" in captured.err and "set_int_max_str_digits" not in captured.err
        assert len(captured.err) < 300

    def test_file_that_is_not_utf8_names_the_file(self, capsys, tmp_path):
        (tmp_path / "g.json").write_text(json.dumps({"n": 1, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_bytes(b"\xff\xfe{")
        code = main(["verify", str(tmp_path / "g.json"), str(witness)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith(f"starpcg: cannot read witness from {witness}: 'utf-8' codec")


# small integers only, so no payload can ask for a large graph
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
_SPOTS = ("graph", "n", "edges", "edge", "witness", "weights", "weight", "intervals", "interval", "endpoint")


@st.composite
def _cli_payloads(draw):
    """Well-formed graph and witness payloads, one spot of them often replaced by arbitrary JSON."""
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    edge = st.lists(vertex, min_size=2, max_size=2, unique=True)
    graph = {"n": n, "edges": draw(st.lists(edge, max_size=8)) if n >= 2 else []}
    ends = sorted(draw(st.lists(st.integers(0, 20), unique=True, max_size=6)))
    witness = {
        "weights": draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
        "intervals": [list(pair) for pair in zip(ends[::2], ends[1::2])],
    }
    spot = draw(st.sampled_from((None, None, None) + _SPOTS))
    junk = draw(_json)
    if spot == "graph":
        graph = junk
    elif spot == "witness":
        witness = junk
    elif spot in ("n", "edges"):
        graph[spot] = junk
    elif spot in ("weights", "intervals"):
        witness[spot] = junk
    elif spot == "edge":
        graph["edges"].append(junk)
    elif spot == "weight":
        witness["weights"].append(junk)
    elif spot == "interval":
        witness["intervals"].append(junk)
    elif spot == "endpoint":
        witness["intervals"].append([draw(st.integers(0, 20)), junk])
    return graph, witness


class TestInputBoundary:
    def test_oversized_graph_file_is_refused_before_building(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": VERTEX_BUDGET + 1, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [], "intervals": []}))
        for argv in (["verify", str(graph), str(witness)], ["mink", str(graph)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_USAGE and captured.out == ""
            assert f"the limit is {VERTEX_BUDGET}" in captured.err

    def test_witness_over_edge_budget_is_refused_promptly(self, capsys, tmp_path):
        # 10^5 equal weights and [0, 0] accept all 5*10^9 pairs
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": VERTEX_BUDGET, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [0] * VERTEX_BUDGET, "intervals": [[0, 0]]}))
        start = time.perf_counter()
        code = main(["verify", str(graph), str(witness)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"the limit is {EDGE_BUDGET}" in captured.err
        assert elapsed < 10

    def test_edge_budget_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "EDGE_BUDGET", 3)
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [0, 0, 0], "intervals": [[0, 0]]}))
        assert run_json(capsys, "verify", str(graph), str(witness)) == (
            EXIT_OK,
            {"equal": True, "missing": [], "extra": []},
        )
        graph.write_text(json.dumps({"n": 4, "edges": []}))
        witness.write_text(json.dumps({"weights": [0, 0, 0, 0], "intervals": [[0, 0]]}))
        code, out = run_cli(capsys, "verify", str(graph), str(witness))
        assert code == EXIT_USAGE and out == ""

    def test_witness_over_step_budget_is_refused_promptly(self, capsys, tmp_path):
        # 4000 even weights under 8000 odd singleton intervals realize no
        # edge, but the empty interval steps alone took 11 s to walk
        n = 4000
        assert n * n > STEP_BUDGET
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": n, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({
            "weights": [2 * i for i in range(n)],
            "intervals": [[2 * j + 1, 2 * j + 1] for j in range(2 * n)],
        }))
        start = time.perf_counter()
        code = main(["verify", str(graph), str(witness)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"the limit is {STEP_BUDGET}" in captured.err
        assert elapsed < 2

    def test_step_budget_is_inclusive(self, capsys, tmp_path, monkeypatch):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 2, "edges": []}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"weights": [0, 2], "intervals": [[1, 1], [3, 3]]}))
        monkeypatch.setattr(cli, "STEP_BUDGET", 4)
        assert run_json(capsys, "verify", str(graph), str(witness)) == (
            EXIT_OK,
            {"equal": True, "missing": [], "extra": []},
        )
        monkeypatch.setattr(cli, "STEP_BUDGET", 3)
        code, out = run_cli(capsys, "verify", str(graph), str(witness))
        assert code == EXIT_USAGE and out == ""

    def test_witness_of_another_size_is_refused_before_the_budgets(self, capsys, tmp_path):
        # both budgets pass, and counting this witness's edges took about 3 s
        n = 10**5
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({
            "weights": [2 * i for i in range(n)],
            "intervals": [[4000 * j + 1, 4000 * j + 1] for j in range(100)],
        }))
        start = time.perf_counter()
        code = main(["verify", str(graph), str(witness)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == f"starpcg: {n} weights for a graph on 3 vertices\n"
        assert elapsed < 0.5

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text("[" * 100_000)
        code, out = run_cli(capsys, "verify", str(graph), str(graph))
        assert code == EXIT_USAGE and out == ""

    @settings(max_examples=200, deadline=None)
    @given(payloads=_cli_payloads())
    def test_arbitrary_json_never_escapes(self, tmp_path_factory, payloads):
        graph_obj, witness_obj = payloads
        folder = tmp_path_factory.getbasetemp()
        graph, witness = folder / "fuzz_g.json", folder / "fuzz_w.json"
        graph.write_text(json.dumps(graph_obj))
        witness.write_text(json.dumps(witness_obj))
        for argv in (["verify", str(graph), str(witness)], ["obstruct", str(graph), str(witness), "1"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_NO_CERTIFICATE, EXIT_USAGE)
            if code == EXIT_MISMATCH:
                # a mismatch is only reported between two well-formed payloads
                Graph.from_dict(graph_obj)
                Witness.from_dict(witness_obj)


def test_every_command_names_its_handler_and_takes_output():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["generate", "mink", "obstruct", "verify", "witness"]
    for name, p in sub.choices.items():
        assert callable(p.get_default("run")), name
        assert p._option_string_actions["-o"].dest == "output", name


class TestUnwritableOutput:
    # exit 1 would read as a verify mismatch, so a failed write is a usage error
    def _argvs(self, tmp_path):
        c5 = tmp_path / "c5.json"
        c5.write_text(json.dumps({"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}))
        p5 = tmp_path / "p5.json"
        p5.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps([1, 2, 3, 4, 5]))
        triangle = tmp_path / "k3.json"
        triangle.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        triangle_weights = tmp_path / "k3_weights.json"
        triangle_weights.write_text(json.dumps([0, 1, 2]))
        witness = tmp_path / "witness.json"
        assert main(["witness", "cycle", "5", "-o", str(witness)]) == EXIT_OK
        return (
            ("generate", "cycle", "3"),
            ("generate", "grid", "2", "2", "--dot"),
            ("witness", "cycle", "5"),
            ("verify", str(c5), str(witness)),
            ("verify", str(p5), str(witness)),  # a mismatch
            ("obstruct", str(c5), str(weights), "1"),
            ("obstruct", str(triangle), str(triangle_weights), "1"),  # no certificate
            ("mink", "cycle", "3", "--max-weight", "2"),
            ("mink", "cycle", "3", "--max-weight", "2", "--human"),
        )

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_every_command_exits_usage(self, capsys, tmp_path, target):
        out = str(tmp_path / target)
        for argv in self._argvs(tmp_path):
            capsys.readouterr()
            assert main([*argv, "-o", out]) == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"starpcg: cannot write output to {out}: "), argv

    def test_no_traceback_via_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", "generate", "cycle", "3",
             "-o", str(tmp_path / "missing" / "x")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert "cannot write output" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


class TestDeterminismAndEntryPoints:
    def test_byte_identical_witness_output(self, capsys):
        _, first = run_cli(capsys, "witness", "grid", "4", "4")
        _, second = run_cli(capsys, "witness", "grid", "4", "4")
        assert first == second

    def test_byte_identical_random_search(self, capsys):
        argv = ("mink", "cycle", "5", "--mode", "random", "--trials", "80", "--seed", "5")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", "witness", "cycle", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["construction"] == "cycle-even"

    def test_console_script(self):
        exe = shutil.which("starpcg")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "generate", "path", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 3

    def test_usage_error_exit_code_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", "generate", "cycle", "nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, code, layers",
        [
            (["generate", "cycle", "5"], EXIT_OK, {"cli", "graphs"}),
            (["witness", "grid", "4", "5"], EXIT_OK, {"cli", "graphs", "constructions", "stars"}),
            (["verify", "{g}", "{w}"], EXIT_OK, {"cli", "graphs", "stars"}),
            (["obstruct", "{g}", "{weights}", "1"], EXIT_OK, {"cli", "graphs", "obstruction"}),
            (["mink", "cycle", "5", "--max-weight", "3"], EXIT_OK, {"cli", "graphs", "search", "stars"}),
            (["verify", "{bad}", "{w}"], EXIT_USAGE, {"cli", "graphs"}),
        ],
    )
    def test_each_command_loads_only_its_layers(self, tmp_path, argv, code, layers):
        files = {
            "g": json.dumps(make_cycle(5).to_dict()),
            "w": json.dumps(cycle_witness(5).to_dict()),
            "weights": "[0, 1, 0, 2, 2]",
            "bad": '{"n": 4, "edges": [[0, 1], [1',
        }
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in argv]
        script = (
            "import contextlib, io, json, sys\n"
            "import starpcg\n"
            "def layers():\n"
            "    return sorted(k[len('starpcg.'):] for k in sys.modules if k.startswith('starpcg.'))\n"
            "bare = layers()\n"
            "from starpcg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([bare, code, layers()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], code, sorted(layers)]

    def test_module_entry_point_imports_only_graphs(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "starpcg", "generate", "cycle", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {m for m in imported if m.startswith("starpcg")} == {
            "starpcg",
            "starpcg.cli",
            "starpcg.graphs",
        }

    def test_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, about a third of
        # `generate`'s import time; -S keeps site's own imports out of the check
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = "import sys\nimport starpcg.cli\nprint('dataclasses' in sys.modules)\n"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_import_starts_no_pool_machinery(self):
        # only a census with jobs > 1 loads the process pool
        script = (
            "import sys\n"
            "import starpcg.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
