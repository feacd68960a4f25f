"""Tests of the benchmark itself: seeded inputs, gates, percentiles and span accounting."""

from __future__ import annotations

import dataclasses

import pytest

import run
import workloads
from tracing import OP_SPAN, Tracer, layer_metrics, patched


@pytest.fixture(scope="module")
def program():
    return run.load_program(run.ROOT, fresh=False)


def make(name):
    return workloads.WORKLOADS[name]()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, program, tmp_path):
    wl = make(name)
    _, first = run.build_round(wl, program, 7, tmp_path / "a")
    _, again = run.build_round(wl, program, 7, tmp_path / "b")
    _, held_out = run.build_round(wl, program, 8, tmp_path / "c")
    assert first == again
    assert held_out != first


def test_gated_round_is_clean_and_repeatable(program, tmp_path):
    wl = make("certify")
    items, _ = run.build_round(wl, program, 3, tmp_path)
    record = run.Run()
    first = run.gated_round(wl, program, items, record)
    second = run.gated_round(wl, program, items, record)
    assert record.failed == 0 and record.attempted == 2 * len(items)
    assert run.digest(first) == run.digest(second)


def test_search_gate_rejects_corrupted_witness(program):
    wl = make("search-census")
    item = ("path4", program.graphs.make_path(4), 3)
    out = wl.run(program, item)
    assert out.best_k == 1 and wl.gate(program, item, out) is None
    wit = out.best_witness
    bent = program.stars.Witness((wit.weights[0] + 3,) + wit.weights[1:], wit.intervals)
    assert wl.gate(program, item, dataclasses.replace(out, best_witness=bent))
    assert wl.gate(program, item, dataclasses.replace(out, explored=out.explored - 1))


def test_oracle_gate_rejects_wrong_answers(program):
    wl = make("oracle-large")
    stars = program.stars
    item = ("path60/construction", program.graphs.make_path(60), program.constructions.path_witness(60))
    report, oracle = wl.run(program, item)
    assert wl.gate(program, item, (report, oracle)) is None
    shifted = stars.Feasible(oracle.k, tuple((lo + 1, hi + 1) for lo, hi in oracle.intervals))
    assert wl.gate(program, item, (report, shifted))
    assert wl.gate(program, item, (report, stars.Infeasible(edge=(0, 1), nonedge=(0, 2))))
    wrong = dataclasses.replace(report, equal=False, extra=((0, 2),))
    assert wl.gate(program, item, (wrong, oracle))


def test_certify_gate_rejects_corrupted_certificate(program):
    wl = make("certify")
    grid4 = program.graphs.make_grid((3, 3, 3, 3))
    item = ("grid4d", grid4, tuple((7 * v) % 11 for v in range(grid4.n)), 2)
    cert = wl.run(program, item)
    assert wl.gate(program, item, cert) is None
    assert wl.gate(program, item, dataclasses.replace(cert, us=cert.us[::-1], vs=cert.vs[::-1]))
    assert wl.gate(program, item, dataclasses.replace(cert, x=(cert.x + 1) % grid4.n))
    assert wl.gate(program, item, None)


def test_cli_gate_compares_exit_code_and_stdout(program):
    wl = make("cli")
    item = (["generate", "cycle", "5"], 0)
    code, stdout = wl.in_process(program, item)
    assert wl.gate(program, item, (code, stdout)) is None
    assert wl.gate(program, item, (code, stdout + b" "))
    assert wl.gate(program, item, (1, stdout))


def test_failures_are_counted_and_do_not_stop_the_run(program, tmp_path):
    wl = make("certify")
    items, _ = run.build_round(wl, program, 4, tmp_path)
    items = items[:5]
    record = run.Run()
    expected = run.gated_round(wl, program, items, record)
    expected[0] = "corrupted"
    run.closed_loop(wl, program, items, expected, 0, record, run.Speed())
    assert (record.attempted, record.failed) == (10, 1)

    class Crashing(workloads.Certify):
        def run(self, mods, item):
            raise RuntimeError("boom")

    run.gated_round(Crashing(), program, items, record)
    assert (record.attempted, record.failed) == (15, 6)


@pytest.mark.parametrize(
    "n, tail", [(30, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10**4, 99.9)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, tail):
    assert run.tail_percentile(n) == tail


def test_traced_self_times_add_up_and_patches_are_undone(program):
    original = program.stars.verify
    tracer = Tracer()
    graph, wit = program.graphs.make_cycle(12), program.constructions.cycle_witness(12)
    with patched(tracer, program):
        tracer.op_id = 0
        tracer.call(OP_SPAN, program.stars.verify, wit, graph)
        tracer.call(OP_SPAN, program.stars.min_intervals_for_weights, graph, wit.weights)
    metrics, accounting = layer_metrics(tracer, 1.0, 1.0)
    assert program.stars.verify is original
    assert accounting["adds_up"] and accounting["ops"] == 2
    assert metrics["stars.oracle_calls"] == 1 and metrics["stars.pairs"] == 66
    assert metrics["stars.realize_ms"] > 0  # realize is reached through verify
    parts = sum(metrics[f"{layer}.self_ms"] for layer in ("graphs", "stars")) + metrics["trace.harness_ms"]
    assert parts == pytest.approx(metrics["trace.op_ms"])
