"""Layered benchmark for starpcg, standard library only.

Run from the repository root:

    python3 bench/run.py --workload search-census --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the harness builds a seeded round of
inputs, runs it once with every output checked by the workload's gate
(outside any timing), then replays the round until `--seconds` have passed,
requiring each repeat to reproduce the gated output.  `--trace 0` prints the
end-to-end metrics; `--trace 1` spends half the time untraced and half with
every public call into the six layers traced, and prints per-layer metrics.
End-to-end times are wall times scaled to a nominal machine speed, measured
all through the run with a fixed reference kernel (see `Speed`), because the
shared host's slow phases would otherwise move them by up to 1.8x; the raw
throughput and the kernel's median time are kept in the record.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with the machine, input and output
digests, error rate and failures, goes to .bench_out/BENCH_<...>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from tracing import OP_SPAN, Tracer, layer_metrics, patched
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("graphs", "constructions", "stars", "obstruction", "search", "cli")
SETUP_REPEATS = 7
# Nominal time of the reference kernel: about its time on the 2-vCPU machine
# the bounds were set on, in a quiet phase.  Reported times are scaled to it.
REFERENCE_NS = 1_200_000
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
CLI_MAIN_PASSES = 3  # traced in-process cli.main passes over the cli round
JOBS2_GRAPH, JOBS2_MAX_WEIGHT = 6, 6  # the cycle C_6 at W = 6: 117,649 vectors


def load_program(root: Path, fresh: bool) -> SimpleNamespace:
    """Import starpcg from root/src and return its layers plus two entry points.

    fresh=True drops any loaded copy first, so the import is paid again.
    """
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for key in [k for k in sys.modules if k == "starpcg" or k.startswith("starpcg.")]:
            del sys.modules[key]
    pkg = importlib.import_module("starpcg")
    if Path(pkg.__file__).resolve().parent != (src / "starpcg").resolve():
        raise ImportError(f"starpcg was imported from {pkg.__file__}, not from {src}")
    layers = {name: importlib.import_module(f"starpcg.{name}") for name in LAYERS}
    env = dict(os.environ, PYTHONPATH=str(src))

    def process(argv):
        """Run `python -m starpcg argv` to completion; return (exit code, stdout bytes)."""
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", *argv],
            capture_output=True, env=env, cwd=str(root), timeout=60,
        )
        return proc.returncode, proc.stdout

    return SimpleNamespace(**layers, Graph=layers["graphs"].Graph, process=process)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile p among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(sorted_ns, p: float) -> float:
    """Nearest-rank percentile of sorted nanosecond values, in milliseconds."""
    return sorted_ns[_rank(p, len(sorted_ns)) - 1] / 1e6


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n values beyond its rank."""
    return max(p for p in TAIL_LADDER if p == TAIL_LADDER[0] or n - _rank(p, n) >= 10)


def build_round(wl, program, seed: int, workdir: Path) -> tuple[list, str]:
    """The workload's seeded round of inputs and a digest of them."""
    items = wl.build(program, random.Random(f"{wl.name}:{seed}"), workdir)
    return items, digest(json.dumps(wl.describe(item)) for item in items)


class Speed:
    """How fast the machine runs a fixed reference kernel right now.

    The shared host has slow phases, seconds to minutes long and up to 1.8x,
    that move every timing of a run together.  The kernel (a sort and a dict
    pass, about 1 ms) runs every INTERVAL_S between operations; an operation's
    wall time times `factor` is its time at the nominal speed REFERENCE_NS.
    """

    INTERVAL_S = 0.05
    WINDOW = 5  # factor uses the median of the last WINDOW kernel times

    def __init__(self):
        rng = random.Random(0)
        self._data = [(rng.randrange(1000), rng.randrange(1000), i) for i in range(3000)]
        self.samples: list[int] = []
        for _ in range(self.WINDOW):
            self._measure()

    def _measure(self) -> None:
        t0 = perf_counter_ns()
        totals: dict[int, int] = {}
        for a, b, _ in sorted(self._data):
            totals[a] = totals.get(a, 0) + b
        self.samples.append(perf_counter_ns() - t0)
        self.factor = REFERENCE_NS / statistics.median(self.samples[-self.WINDOW:])
        self._due = perf_counter() + self.INTERVAL_S

    def tick(self) -> None:
        if perf_counter() >= self._due:
            self._measure()


class Run:
    """Counts and failure messages across every phase of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.raw_ns = 0  # unscaled wall time of all timed operations

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def gated_round(wl, program, items, run: Run) -> list:
    """Run the round once, gate every output, and return the canonical outputs.

    An item whose output fails the gate keeps None, so its repeats fail too.
    """
    expected = []
    for i, item in enumerate(items):
        run.attempted += 1
        try:
            out = wl.run(program, item)
            error = wl.gate(program, item, out)
            canon = wl.canon(out)
        except Exception as exc:  # a crashing operation is a failed operation
            error, canon = f"{type(exc).__name__}: {exc}", None
        if error:
            run.fail(f"item {i}: {error}")
            canon = None
        expected.append(canon)
    return expected


def closed_loop(wl, program, items, expected, seconds, run: Run, speed: Speed, tracer=None, after_round=None):
    """Replay whole rounds until `seconds` pass; return each item's scaled nanoseconds.

    Raw wall time goes to run.raw_ns.  after_round(elapsed_s), if given, runs
    between rounds, outside all timings.
    """
    times: list[list[float]] = [[] for _ in items]
    start = perf_counter()
    while True:
        for i, item in enumerate(items):
            run.attempted += 1
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    out = wl.run(program, item)
                else:
                    tracer.op_id += 1
                    out = tracer.call(OP_SPAN, wl.run, program, item)[0]
                error = None
            except Exception as exc:  # a crashing operation is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            ns = perf_counter_ns() - t0
            run.raw_ns += ns
            times[i].append(ns * speed.factor)
            speed.tick()
            if error is None and (expected[i] is None or wl.canon(out) != expected[i]):
                error = "output differs from the gated first round"
            if error:
                run.fail(f"item {i}: {error}")
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return times
        if after_round is not None:
            after_round(elapsed)


def end_to_end(times: list[list[int]]) -> tuple[dict, dict]:
    """Throughput and latency percentiles over the round's inputs.

    Each input's operation time is the first quartile of its (scaled) repeats,
    which also keeps out bursts of interference shorter than the run.
    """
    per_input = sorted(sorted(t)[_rank(25, len(t)) - 1] for t in times)
    tail = tail_percentile(len(per_input))
    metrics = {
        "ops_per_s": len(per_input) / (sum(per_input) / 1e9),
        "op_p50_ms": percentile(per_input, 50),
        "op_tail_ms": percentile(per_input, tail),
    }
    return metrics, {"percentile": tail, "inputs": len(per_input), "operations": sum(map(len, times))}


def jobs2_probe(program, seed: int) -> tuple[float, bool]:
    """One search-census query at jobs=1 and jobs=2: speedup and identical reports."""
    search = program.search
    rng = random.Random(f"jobs2:{seed}")
    perm = list(range(JOBS2_GRAPH))
    rng.shuffle(perm)
    cycle = program.graphs.make_cycle(JOBS2_GRAPH)
    graph = program.Graph(JOBS2_GRAPH, [(perm[u], perm[v]) for u, v in cycle.edges()])
    reports, seconds = [], []
    for jobs in (1, 2):
        t0 = perf_counter()
        report = search.search_report(graph, search.SearchConfig(max_weight=JOBS2_MAX_WEIGHT, jobs=jobs))
        seconds.append(perf_counter() - t0)
        del report["config"]["jobs"]  # the only field that names the worker count
        reports.append(json.dumps(report, sort_keys=True))
    return seconds[0] / seconds[1], reports[0] == reports[1]


def machine(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "starpcg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def set_up(wl, seed: int, workdir: Path, speed: Speed):
    """Import starpcg afresh and build the round: (scaled seconds, program, items, input digest)."""
    speed.tick()
    t0 = perf_counter()
    program = load_program(ROOT, fresh=True)
    items, inputs = build_round(wl, program, seed, workdir)
    return (perf_counter() - t0) * speed.factor, program, items, inputs


def benchmark(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    run = Run()
    speed = Speed()
    setup_s, program, items, inputs = set_up(wl, seed, workdir, speed)
    setup = [setup_s]
    expected = gated_round(wl, program, items, run)
    # Every input has now run once; later rounds repeat them, so this peak is
    # the program's, without the harness's growing list of timings.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "input_digest": inputs,
        "output_digest": digest(str(e) for e in expected),
        "round_size": len(items),
    }
    if not trace:
        def set_up_again(elapsed):
            # Repeats spread over the run, so that one slow phase of the
            # machine cannot move the median; the timed rounds keep using
            # the first program, and every repeat must build the same inputs.
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                again = set_up(wl, seed, workdir, speed)
                setup.append(again[0])
                if again[3] != inputs:
                    run.fail("set-up built different inputs from the same seed")

        times = closed_loop(wl, program, items, expected, seconds, run, speed, after_round=set_up_again)
        metrics, tail = end_to_end(times)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb
        record["setup_samples_s"] = setup
        record["raw_ops_per_s"] = tail["operations"] / (run.raw_ns / 1e9)
        record.update(metrics=metrics, tail=tail)
    else:
        untraced, _ = end_to_end(closed_loop(wl, program, items, expected, seconds / 2, run, speed))
        tracer = Tracer()
        with patched(tracer, program):
            traced_items, traced_inputs = build_round(wl, program, seed, workdir)
            tracer.op_id = 0
            traced, _ = end_to_end(closed_loop(wl, program, traced_items, expected, seconds / 2, run, speed, tracer))
            for _ in range(CLI_MAIN_PASSES if hasattr(wl, "in_process") else 0):
                for item in traced_items:
                    tracer.op_id += 1
                    tracer.call(OP_SPAN, wl.in_process, program, item)
        if traced_inputs != inputs:
            run.fail("traced set-up built different inputs from the same seed")
        metrics, accounting = layer_metrics(tracer, traced["ops_per_s"], untraced["ops_per_s"])
        if not accounting["adds_up"]:
            run.fail(f"self times plus harness time do not add up to op wall time: {accounting}")
        speedup, identical = jobs2_probe(program, seed)
        if not identical:
            run.fail("search_report differs between jobs=1 and jobs=2")
        metrics["search.jobs2_speedup"] = speedup
        record.update(metrics=metrics, accounting=accounting, jobs2_identical=identical)
        tracer.write(workdir.parent / f"spans_{wl.name}_seed{seed}.jsonl.gz")
    record.update(
        reference_ms=statistics.median(speed.samples) / 1e6,
        attempted=run.attempted,
        failed=run.failed,
        error_rate=run.failed / run.attempted,
        failures=run.failures,
    )
    return record


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starpcg" / "__init__.py").is_file():
        print(f"bench: no starpcg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec(ROOT)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    try:
        record = benchmark(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(ROOT, args.seed),
        **record,
    }
    name = f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        f"{wl.name} seed={args.seed}: error_rate={record['error_rate']:.4g} "
        f"output_digest={record['output_digest'][:16]} record=.bench_out/{name}"
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
