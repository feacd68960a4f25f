"""Command-line interface: formats, exit codes, round trips, determinism."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starpcg import Graph, Witness
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

    def test_oversized_space_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mink", "cycle", "3", "--max-weight", "1000")
        assert code == EXIT_USAGE

    def test_one_vertex_at_a_huge_bound_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mink", "path", "1", "--max-weight", "999999999")
        assert code == EXIT_USAGE

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
