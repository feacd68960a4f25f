"""In-memory span tracer for the benchmark's traced run.

While `patched` is active, every public function of the six layers (and the
harness's two entry points, `Graph` construction and the `python -m
starpcg` process) runs inside a span that records its name, parent span,
operation id and start/end times.  The wrapping lives entirely in the
benchmark: module attributes are swapped for wrappers and restored on exit,
so the program's own code is unchanged.  Counters (vectors explored, pairs
sorted, certificates found, ...) are taken at the same boundaries from the
calls' arguments and results.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

OP_SPAN = "harness.op"

# The public calls into each layer that get a span.
LAYER_API = {
    "graphs": ("make_cycle", "make_path", "make_grid", "induced_subgraph"),
    "constructions": (
        "cycle_witness",
        "path_witness",
        "grid2_witness",
        "grid_square_witness",
        "grid_witness",
    ),
    "stars": ("realize", "verify", "min_intervals_for_weights", "universal_witness"),
    "obstruction": (
        "check_certificate",
        "interleaving_certificate",
        "cycle_star1_obstruction",
        "grid4d_certificate",
    ),
    "search": ("search_min_k", "search_report"),
    "cli": ("main",),
}
# Entry points the harness reaches through its program namespace, not a module.
HARNESS_API = {"Graph": "graphs.Graph", "process": "cli.process"}
CERT_CALLS = ("obstruction.interleaving_certificate", "obstruction.cycle_star1_obstruction",
              "obstruction.grid4d_certificate")
GRID4_CENTER = 40  # flat id of (1, 1, 1, 1) in the 3x3x3x3 grid


def _count_graph(counts, args, result, outer):
    counts["graphs.vertices"] += result.n
    counts["graphs.edges"] += result.num_edges


def _count_oracle(counts, args, result, outer):
    n = args[0].n
    counts["stars.pairs"] += n * (n - 1) // 2
    counts["stars.infeasible"] += hasattr(result, "nonedge")


def _count_search(counts, args, result, outer):
    counts["search.vectors"] += result.explored
    counts["search.feasible"] += sum(result.k_histogram.values())


def _count_certificate(counts, args, result, outer):
    if outer:
        counts["obstruction.found"] += result is not None


def _count_grid4d(counts, args, result, outer):
    _count_certificate(counts, args, result, outer)
    counts["obstruction.grid4d"] += 1
    counts["obstruction.center_pivot"] += result.x == GRID4_CENTER


HOOKS = {
    "graphs.make_cycle": _count_graph,
    "graphs.make_path": _count_graph,
    "graphs.make_grid": _count_graph,
    "graphs.induced_subgraph": _count_graph,
    "graphs.Graph": _count_graph,
    "stars.min_intervals_for_weights": _count_oracle,
    "search.search_min_k": _count_search,
    "obstruction.interleaving_certificate": _count_certificate,
    "obstruction.cycle_star1_obstruction": _count_certificate,
    "obstruction.grid4d_certificate": _count_grid4d,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans in column arrays (about 40 bytes each), plus boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1  # -1 while building inputs; operations count up from 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`; return (result, span index)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs), idx
        finally:
            self.end[idx] = perf_counter_ns()
            stack.pop()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        layer = layer_of(name)

        def traced(*args, **kwargs):
            result, idx = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                p = self.parent[idx]
                hook(self.counts, args, result, p < 0 or layer_of(self.names[self.name[p]]) != layer)
            return result

        return traced

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write(self, path) -> None:
        """Write every span as one JSON array per line: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([i, self.parent[i], self.op[i], self.span_name(i),
                                     self.start[i], self.end[i]]) + "\n")


@contextmanager
def patched(tracer: Tracer, program):
    """Route every public call into a layer through a tracer span until exit."""
    wrappers = {}
    for layer, names in LAYER_API.items():
        module = getattr(program, layer)
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fname}", fn))
    owners = [m for key, m in sys.modules.items() if key == "starpcg" or key.startswith("starpcg.")]
    restore = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((owner, attr, value))
                setattr(owner, attr, hit[1])
    for attr, name in HARNESS_API.items():
        fn = getattr(program, attr)
        restore.append((program, attr, fn))
        setattr(program, attr, tracer.wrap(name, fn))
    try:
        yield
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def self_times(tracer: Tracer) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Spans are stored in start order, so each parent's children arrive in
    order; a child is clipped to its parent and to the end of the sibling
    before it, so overlapping or escaping children show up in `accounting`.
    """
    start, end, parent = tracer.start, tracer.end, tracer.parent
    cursor = list(start)
    own = [end[i] - start[i] for i in range(len(start))]
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            lo, hi = max(start[i], cursor[p]), min(end[i], end[p])
            if hi > lo:
                own[p] -= hi - lo
                cursor[p] = hi
    return own


def layer_metrics(tracer: Tracer, ops_per_s: float, untraced_ops_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time accounting of one traced run."""
    own = self_times(tracer)
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    op_wall = n_ops = 0
    for i in range(len(tracer.start)):
        name = tracer.span_name(i)
        layer = layer_of(name)
        dur = tracer.end[i] - tracer.start[i]
        if tracer.op[i] >= 0:
            self_ns[layer] += own[i]
            if name == OP_SPAN:
                op_wall += dur
                n_ops += 1
        p = tracer.parent[i]
        if layer == "obstruction" and p >= 0 and layer_of(tracer.span_name(p)) == layer:
            continue  # obstruction counts only calls that enter the layer from outside
        calls[name] += 1
        busy[name] += dur

    def total(names):
        return sum(calls[n] for n in names), sum(busy[n] for n in names)

    def mean_ms(names):
        c, ns = total(names)
        return ns / c / 1e6 if c else 0.0

    def per_s(count, names):
        ns = total(names)[1]
        return count / (ns / 1e9) if ns else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    cnt = tracer.counts
    graph_calls = [f"graphs.{f}" for f in LAYER_API["graphs"]] + ["graphs.Graph"]
    witness_calls = [f"constructions.{f}" for f in LAYER_API["constructions"]]
    search, oracle = ["search.search_min_k"], ["stars.min_intervals_for_weights"]
    per_op = (lambda ns: ns / n_ops / 1e6) if n_ops else (lambda ns: 0.0)
    m = {
        "search.scan_ms": mean_ms(search),
        "search.calls": calls["search.search_min_k"],
        "search.vectors": cnt["search.vectors"],
        "search.vectors_per_s": per_s(cnt["search.vectors"], search),
        "search.feasible_ratio": ratio(cnt["search.feasible"], cnt["search.vectors"]),
        "stars.oracle_ms": mean_ms(oracle),
        "stars.oracle_calls": calls["stars.min_intervals_for_weights"],
        "stars.pairs": cnt["stars.pairs"],
        "stars.pairs_per_s": per_s(cnt["stars.pairs"], oracle),
        "stars.infeasible_ratio": ratio(cnt["stars.infeasible"], calls["stars.min_intervals_for_weights"]),
        "stars.verify_ms": mean_ms(["stars.verify"]),
        "stars.realize_ms": mean_ms(["stars.realize"]),
        "graphs.build_ms": mean_ms(graph_calls),
        "graphs.calls": total(graph_calls)[0],
        "graphs.vertices": cnt["graphs.vertices"],
        "graphs.edges": cnt["graphs.edges"],
        "constructions.witness_ms": mean_ms(witness_calls),
        "constructions.calls": total(witness_calls)[0],
        "obstruction.cert_ms": mean_ms(CERT_CALLS),
        "obstruction.check_ms": mean_ms(["obstruction.check_certificate"]),
        "obstruction.calls": total(CERT_CALLS)[0],
        "obstruction.found_ratio": ratio(cnt["obstruction.found"], total(CERT_CALLS)[0]),
        "obstruction.center_pivot_ratio": ratio(cnt["obstruction.center_pivot"], cnt["obstruction.grid4d"]),
        "cli.process_ms": mean_ms(["cli.process"]),
        "cli.main_ms": mean_ms(["cli.main"]),
        "cli.calls": calls["cli.process"] + calls["cli.main"],
    }
    m["cli.startup_ms"] = m["cli.process_ms"] - m["cli.main_ms"] if calls["cli.process"] and calls["cli.main"] else 0.0
    for layer in LAYER_API:
        m[f"{layer}.self_ms"] = per_op(self_ns[layer])
    m["trace.harness_ms"] = per_op(self_ns["harness"])
    m["trace.op_ms"] = per_op(op_wall)
    m["trace.spans"] = len(tracer.start)
    m["trace.ops_per_s"] = ops_per_s
    m["trace.untraced_ops_per_s"] = untraced_ops_per_s
    m["trace.overhead_ratio"] = ratio(ops_per_s, untraced_ops_per_s)
    accounted = sum(self_ns.values())
    accounting = {
        "ops": n_ops,
        "op_wall_ns": op_wall,
        "self_ns": dict(self_ns),
        "self_sum_ns": accounted,
        "adds_up": accounted == op_wall,
    }
    return m, accounting
