"""The benchmark's workloads: seeded inputs, the timed operation, and its gate.

Each workload builds one *round* of inputs from a seeded generator; the
harness replays the round closed-loop.  `run` is the timed operation; it
reaches the program only through `mods` (the six `starpcg` layer modules,
the `Graph` constructor and a `process` runner for `python -m starpcg`), so
that the tracer can wrap those calls.  `gate` checks one output against a source
independent of the code path that produced it and returns an error message,
or None when the output is right.  `canon` turns an output into the string
that the output digest covers and that every later repeat must reproduce.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from bisect import bisect_right
from pathlib import Path


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _relabeled(mods, graph, rng):
    """The graph with its vertex labels shuffled: same cost, different input."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return mods.Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def _random_graph(mods, n, rng, p=0.5):
    return mods.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _in_intervals(intervals):
    ordered = sorted(intervals)
    los = [lo for lo, _ in ordered]

    def contains(s):
        i = bisect_right(los, s) - 1
        return i >= 0 and s <= ordered[i][1]

    return contains


def _realization_errors(graph, weights, intervals):
    """Independently compare the graph that (weights, intervals) realizes with `graph`.

    Returns (missing, extra): target edges not realized, realized non-edges.
    """
    contains = _in_intervals(intervals)
    missing, extra = [], []
    n = graph.n
    for u in range(n):
        wu = weights[u]
        nb = graph.neighbors(u)
        for v in range(u + 1, n):
            hit = contains(wu + weights[v])
            if hit != (v in nb):
                (extra if hit else missing).append((u, v))
    return missing, extra


def _oracle_errors(graph, weights, result) -> str | None:
    """Check an oracle answer without re-running the oracle.

    Feasible: the intervals realize the graph, and between each two
    consecutive intervals lies a non-edge sum, so no two could merge.
    Infeasible: the reported edge and non-edge really have equal sums.
    """
    if hasattr(result, "nonedge"):
        (a, b), (c, d) = result.edge, result.nonedge
        if not graph.has_edge(a, b) or graph.has_edge(c, d) or c == d:
            return f"infeasible pair is not an edge/non-edge pair: {result}"
        if weights[a] + weights[b] != weights[c] + weights[d]:
            return f"infeasible pair sums differ: {result}"
        return None
    ivs = list(result.intervals)
    if result.k != len(ivs) or ivs != sorted(ivs):
        return f"feasible result is not k sorted intervals: {result}"
    missing, extra = _realization_errors(graph, weights, ivs)
    if missing or extra:
        return f"oracle intervals miss {len(missing)} edge(s), add {len(extra)}"
    non_sums = sorted({
        weights[u] + weights[v]
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    })
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        i = bisect_right(non_sums, hi)
        if i == len(non_sums) or non_sums[i] >= lo:
            return f"intervals ending {hi} and starting {lo} could merge; k is not minimal"
    return None


def _beats(oracle, k) -> bool:
    """True when the oracle value for fixed weights exceeds k."""
    return hasattr(oracle, "nonedge") or oracle.k > k


def _chain_exists(graph, w, k) -> bool:
    """Depth-first search for any interleaving chain ruling out k intervals."""
    n = graph.n

    def extend(x, nb, non, chain_len, last, used):
        if chain_len == 2 * k + 1:
            return True
        pool = nb if chain_len % 2 == 0 else non
        for v in pool:
            if v not in used and w[v] >= last:
                used.add(v)
                if extend(x, nb, non, chain_len + 1, w[v], used):
                    return True
                used.discard(v)
        return False

    for x in range(n):
        nb = sorted(graph.neighbors(x))
        non = [u for u in range(n) if u != x and u not in graph.neighbors(x)]
        if len(nb) >= k + 1 and len(non) >= k and extend(x, nb, non, 0, 0, set()):
            return True
    return False


def _certificate_errors(graph, w, cert) -> str | None:
    """Re-derive a certificate's claim with code separate from check_certificate."""
    x, vs, us, k = cert.x, list(cert.vs), list(cert.us), cert.k
    nb = graph.neighbors(x)
    if len(set(vs)) != len(vs) or any(v not in nb for v in vs):
        return f"chain vertices {vs} are not distinct neighbors of {x}"
    if any(u == x or u in nb for u in us) or len(set(us)) != len(us):
        return f"separators {us} are not distinct non-neighbors of {x}"
    if cert.kind == "interleaving":
        chain = [w[vs[0]]]
        for u, v in zip(us, vs[1:]):
            chain += [w[u], w[v]]
        if len(vs) != k + 1 or len(us) != k or chain != sorted(chain):
            return f"weights along the chain do not interleave: {chain}"
    elif cert.kind == "cycle-triangle-free":
        if k != 1 or us or len(vs) != 2 or set(vs) != set(nb) or graph.has_edge(*vs):
            return "malformed triangle-free certificate"
        if not w[vs[0]] <= w[x] <= w[vs[1]]:
            return "pivot weight is not between its neighbors' weights"
    else:
        return f"unknown certificate kind {cert.kind!r}"
    return None


class SearchCensus:
    name = "search-census"
    # (label, family, size, max_weight): each case is built VARIANTS times,
    # relabeled or redrawn from the seed; one op explores 15k to 20k vectors.
    CASES = (
        ("cycle5", "cycle", 5, 6),
        ("path5", "path", 5, 6),
        ("cycle6", "cycle", 6, 4),
        ("grid2x3", "grid", (2, 3), 4),
        ("grid3x3", "grid", (3, 3), 2),
        ("random6", "random", 6, 4),
        ("random6", "random", 6, 4),
        ("random5", "random", 5, 6),
    )
    VARIANTS = 6

    def build(self, mods, rng, workdir):
        g = mods.graphs
        items = []
        for label, family, size, bound in self.CASES:
            for _ in range(self.VARIANTS):
                if family == "random":
                    graph = _random_graph(mods, size, rng)
                else:
                    base = {"cycle": g.make_cycle, "path": g.make_path, "grid": g.make_grid}[family](size)
                    graph = _relabeled(mods, base, rng)
                items.append((label, graph, bound))
        rng.shuffle(items)
        return items

    def describe(self, item):
        label, graph, bound = item
        return [label, graph.n, graph.edges(), bound]

    def run(self, mods, item):
        _, graph, bound = item
        return mods.search.search_min_k(graph, mods.search.SearchConfig(max_weight=bound))

    def canon(self, out):
        wit = out.best_witness
        return json.dumps([
            out.best_k,
            None if wit is None else wit.to_dict(),
            out.explored,
            sorted(out.k_histogram.items()),
            out.infeasible_count,
            out.exhaustive_within_bound,
        ])

    def gate(self, mods, item, out):
        _, graph, bound = item
        if out.explored != (bound + 1) ** graph.n or not out.exhaustive_within_bound:
            return f"explored {out.explored}, want (W+1)^n = {(bound + 1) ** graph.n}"
        if sum(out.k_histogram.values()) + out.infeasible_count != out.explored:
            return "histogram total plus infeasible count differs from explored"
        if out.best_k is None:
            return "a best witness is reported with no feasible vector" if out.best_witness else None
        wit = out.best_witness
        if wit is None or wit.k != out.best_k or out.best_k != min(out.k_histogram):
            return f"best_k {out.best_k} disagrees with its witness or the histogram"
        missing, extra = _realization_errors(graph, wit.weights, wit.intervals)
        if missing or extra or not mods.stars.verify(wit, graph).equal:
            return "best witness does not realize the graph"
        oracle = mods.stars.min_intervals_for_weights(graph, wit.weights)
        if hasattr(oracle, "nonedge") or oracle.k != out.best_k:
            return f"oracle gives {oracle} for the best weights, search says k={out.best_k}"
        return None


class OracleLarge:
    name = "oracle-large"
    # (label, family, size): 1.1M vertex pairs in all, from 10k to 404k per graph
    GRAPHS = (
        ("grid30x30", "grid", (30, 30)),
        ("path600", "path", 600),
        ("cycle500", "cycle", 500),
        ("grid20x20", "grid", (20, 20)),
        ("path400", "path", 400),
        ("path350", "path", 350),
        ("cycle300", "cycle", 300),
        ("cycle250", "cycle", 250),
        ("grid15x15", "grid", (15, 15)),
        ("path200", "path", 200),
        ("cycle200", "cycle", 200),
        ("path180", "path", 180),
        ("cycle150", "cycle", 150),
        ("grid15x10", "grid", (15, 10)),
        ("grid12x12", "grid", (12, 12)),
    )
    KINDS = ("construction", "perturbed", "random")

    def build(self, mods, rng, workdir):
        g, c, stars = mods.graphs, mods.constructions, mods.stars
        items = []
        for label, family, size in self.GRAPHS:
            if family == "grid":
                graph, wit = g.make_grid(size), c.grid_witness(*size)
            elif family == "cycle":
                graph, wit = g.make_cycle(size), c.cycle_witness(size)
            else:
                graph, wit = g.make_path(size), c.path_witness(size)
            top = max(wit.weights)
            for kind in self.KINDS:
                weights = list(wit.weights)
                if kind == "perturbed":
                    for v in rng.sample(range(graph.n), rng.randint(1, 3)):
                        weights[v] = max(0, weights[v] + rng.choice((-2, -1, 1, 2)))
                elif kind == "random":
                    weights = [rng.randint(0, top) for _ in weights]
                items.append((f"{label}/{kind}", graph, stars.Witness(tuple(weights), wit.intervals)))
        rng.shuffle(items)
        return items

    def describe(self, item):
        label, graph, wit = item
        return [label, graph.n, _sha(graph.edges()), wit.to_dict()]

    def run(self, mods, item):
        _, graph, wit = item
        report = mods.stars.verify(wit, graph)
        return report, mods.stars.min_intervals_for_weights(graph, wit.weights)

    def canon(self, out):
        report, oracle = out
        if hasattr(oracle, "nonedge"):
            answer = ["infeasible", oracle.edge, oracle.nonedge]
        else:
            answer = ["feasible", oracle.k, oracle.intervals]
        return json.dumps([report.equal, _sha(report.to_dict()), answer])

    def gate(self, mods, item, out):
        label, graph, wit = item
        report, oracle = out
        missing, extra = _realization_errors(graph, wit.weights, wit.intervals)
        if list(report.missing) != missing or list(report.extra) != extra:
            return f"verify reports {len(report.missing)}/{len(report.extra)} missing/extra, want {len(missing)}/{len(extra)}"
        if report.equal != (not missing and not extra):
            return "verify's equal flag disagrees with its diff"
        if label.endswith("/construction"):
            if not report.equal:
                return "construction witness does not verify"
            if hasattr(oracle, "nonedge") or oracle.k > wit.k:
                return f"oracle {oracle} is worse than the construction's k={wit.k}"
        return _oracle_errors(graph, wit.weights, oracle)


class Certify:
    name = "certify"
    # A fixed mix of about 1,150 certificates per round; the seed picks only
    # weights and edges, so per-seed averages converge.
    GRID4D = 300  # weightings of the 3x3x3x3 grid; every third one tie-heavy
    CYCLE_SIZES, CYCLE_WEIGHTINGS = range(5, 41), 6
    RANDOM_SIZES, RANDOM_GRAPHS = range(8, 15), 30  # graphs per size, each tried at k = 1, 2, 3

    def build(self, mods, rng, workdir):
        g = mods.graphs
        grid4 = g.make_grid((3, 3, 3, 3))
        items = []
        for i in range(self.GRID4D):
            top = 4 if i % 3 == 0 else 1000
            items.append(("grid4d", grid4, tuple(rng.randint(0, top) for _ in range(grid4.n)), 2))
        for n in self.CYCLE_SIZES:
            cycle = g.make_cycle(n)
            for _ in range(self.CYCLE_WEIGHTINGS):
                items.append(("cycle", cycle, tuple(rng.randint(0, 2 * n) for _ in range(n)), 1))
        for n in self.RANDOM_SIZES:
            for _ in range(self.RANDOM_GRAPHS):
                graph = _random_graph(mods, n, rng)
                weights = tuple(rng.randint(0, 3 * n) for _ in range(n))
                items.extend(("interleaving", graph, weights, k) for k in (1, 2, 3))
        rng.shuffle(items)
        return items

    def describe(self, item):
        kind, graph, weights, k = item
        return [kind, graph.n, graph.edges(), weights, k]

    def run(self, mods, item):
        kind, graph, weights, k = item
        ob = mods.obstruction
        if kind == "grid4d":
            cert = ob.grid4d_certificate(weights)
        elif kind == "cycle":
            cert = ob.cycle_star1_obstruction(graph.n, weights)
        else:
            cert = ob.interleaving_certificate(graph, weights, k)
        if cert is not None:
            ob.check_certificate(cert, graph, weights)
        return cert

    def canon(self, out):
        return json.dumps(None if out is None else out.to_dict())

    def gate(self, mods, item, out):
        kind, graph, weights, k = item
        if out is None:
            if kind != "interleaving":
                return f"{kind} gave no certificate"
            return "a chain exists but none was returned" if _chain_exists(graph, weights, k) else None
        if out.k != k:
            return f"certificate is for k={out.k}, asked for k={k}"
        err = _certificate_errors(graph, weights, out)
        if err:
            return err
        if not _beats(mods.stars.min_intervals_for_weights(graph, weights), k):
            return f"oracle value does not exceed k={k}"
        return None


class Cli:
    name = "cli"
    VARIANTS = 4  # seeded copies of the ten command kinds below

    def __init__(self):
        self._files: dict[str, str] = {}  # path of each written input file -> its text

    def build(self, mods, rng, workdir):
        """Write the input files and return (argv, expected exit code) items."""
        items = []
        self._files = {}
        for j in range(self.VARIANTS):
            items.extend(self._variant(mods, rng, Path(workdir) / f"v{j}"))
        rng.shuffle(items)
        return items

    def _variant(self, mods, rng, workdir: Path):
        g, c = mods.graphs, mods.constructions
        n = rng.randint(6, 30)
        cycle, wit = g.make_cycle(n), c.cycle_witness(n)
        bad = wit.to_dict()
        bad["weights"][rng.randrange(n)] += 10 * n  # lifts both edge sums past every interval
        # pivot 0 sees neighbours 1 and n-1 around non-neighbour 2, so k=1 is always refuted
        cycle_weights = [rng.randint(0, 2 * n) for _ in range(n)]
        cycle_weights[1], cycle_weights[2], cycle_weights[n - 1] = 0, 1, 2
        path_n = rng.randint(5, 30)
        files = {
            "cycle.json": json.dumps(cycle.to_dict()),
            "witness.json": json.dumps(wit.to_dict()),
            "bad_witness.json": json.dumps(bad),
            "cycle_weights.json": json.dumps(cycle_weights),
            "path.json": json.dumps(g.make_path(path_n).to_dict()),
            "path_weights.json": json.dumps(list(c.path_witness(path_n).weights)),
            "malformed.json": '{"n": 4, "edges": [[0, 1], [1',
        }
        workdir.mkdir(parents=True, exist_ok=True)
        f = {}
        for name, text in files.items():
            f[name] = str(workdir / name)
            (workdir / name).write_text(text, encoding="utf-8")
            self._files[f[name]] = text
        a, b = rng.randint(2, 12), rng.randint(2, 12)
        return [
            (["generate", "cycle", str(rng.randint(3, 200))], 0),
            (["generate", "grid", str(a), str(b)], 0),
            (["witness", "grid", str(b), str(a)], 0),
            (["witness", "path", str(rng.randint(1, 200))], 0),
            (["verify", f["cycle.json"], f["witness.json"]], 0),
            (["verify", f["cycle.json"], f["bad_witness.json"]], 1),
            (["obstruct", f["cycle.json"], f["cycle_weights.json"], "1"], 0),
            (["obstruct", f["path.json"], f["path_weights.json"], "1"], 2),
            (["mink", "cycle", "5", "--max-weight", str(rng.randint(3, 4))], 0),
            (["verify", f["malformed.json"], f["witness.json"]], 64),
        ]

    def describe(self, item):
        argv, code = item
        texts = [self._files.get(arg, arg) for arg in argv]  # file paths become contents
        return [texts, code]

    def run(self, mods, item):
        return mods.process(item[0])

    def in_process(self, mods, item):
        """cli.main on the same argv, with stdout captured as bytes."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(item[0])
        return code, out.getvalue().encode("utf-8")

    def canon(self, out):
        code, stdout = out
        return json.dumps([code, hashlib.sha256(stdout).hexdigest()])

    def gate(self, mods, item, out):
        argv, want = item
        code, stdout = out
        if code != want:
            return f"{argv[0]} exited {code}, want {want}"
        if (code, stdout) != self.in_process(mods, item):
            return f"{argv[0]}: process output differs from in-process cli.main"
        return None


WORKLOADS = {cls.name: cls for cls in (SearchCensus, OracleLarge, Certify, Cli)}
