"""Bounded exhaustive and randomized weight-space search."""

import concurrent.futures
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from itertools import permutations, product

import pytest
from helpers import random_regular

import starpcg.search
import starpcg.stars
from starpcg import (
    Feasible,
    Graph,
    Infeasible,
    MODE_EXHAUSTIVE,
    MODE_RANDOM,
    SearchConfig,
    SearchResult,
    Witness,
    format_search_report,
    make_cycle,
    make_grid,
    make_path,
    min_intervals_for_weights,
    search_min_k,
    search_report,
    verify,
)


def best_or_inf(result):
    return math.inf if result.best_k is None else result.best_k


def orbit_of_zero(graph):
    """Images of vertex 0 under all automorphisms, by trying every permutation."""
    edges = set(graph.edges())
    return {
        p[0]
        for p in permutations(range(graph.n))
        if all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
    }


def fold(graph, vectors, target_k=None):
    """The promised SearchResult, by scoring each vector with the oracle in order."""
    explored = infeasible = 0
    histogram = {}
    best = None
    hit = False
    for vec in vectors:
        explored += 1
        res = min_intervals_for_weights(graph, vec)
        if not isinstance(res, Feasible):
            infeasible += 1
            continue
        histogram[res.k] = histogram.get(res.k, 0) + 1
        if best is None or (res.k, vec) < (best.k, best.weights):
            best = Witness(vec, res.intervals)
        if target_k is not None and res.k <= target_k:
            hit = True
            break
    return SearchResult(
        best_k=None if best is None else best.k,
        best_witness=best,
        explored=explored,
        exhaustive_within_bound=not hit,
        k_histogram=dict(sorted(histogram.items())),
        infeasible_count=infeasible,
    )


def reference_census(graph, bound, target_k=None):
    """Plain lexicographic scan of {0..W}^n with the first-hit stop."""
    return fold(graph, product(range(bound + 1), repeat=graph.n), target_k)


def half_dense_graph(n, rng):
    """A random graph with each pair an edge with probability 1/2, as the benchmark draws them."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


def tie_cut(graph):
    """J: the first j >= 2 at which vertices 0..j-1 hold an edge and a non-edge, or n."""
    return next(
        (
            j
            for j in range(2, graph.n)
            if 0 < sum(graph.has_edge(u, v) for v in range(j) for u in range(v)) < j * (j - 1) // 2
        ),
        graph.n,
    )


def sweep_graphs():
    rng = random.Random(2209)
    graphs = [
        Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)]),  # pendant triangle: no symmetry at 0
        Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),  # no ties: K_5
        Graph(5),  # no ties: edgeless
        make_cycle(5),
        Graph(1),
    ]
    for _ in range(16):
        n = rng.randint(2, 5)
        p = rng.random()
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    return graphs


class TestExhaustive:
    def test_triangle_is_star1(self):
        res = search_min_k(make_cycle(3), SearchConfig(max_weight=4))
        assert res.best_k == 1
        assert res.exhaustive_within_bound
        assert res.explored == 5**3

    def test_square_is_star1(self):
        res = search_min_k(make_cycle(4), SearchConfig(max_weight=6))
        assert res.best_k == 1

    def test_c5_needs_two(self):
        res = search_min_k(make_cycle(5), SearchConfig(max_weight=6))
        assert res.best_k == 2
        assert res.k_histogram.get(1, 0) == 0
        assert res.k_histogram.get(0, 0) == 0

    def test_path_is_star1(self):
        res = search_min_k(make_path(3), SearchConfig(max_weight=4))
        assert res.best_k == 1

    def test_edgeless(self):
        res = search_min_k(Graph(3), SearchConfig(max_weight=1))
        assert res.best_k == 0
        assert res.best_witness.intervals == ()

    def test_single_edge(self):
        res = search_min_k(Graph(2, [(0, 1)]), SearchConfig(max_weight=1))
        assert res.best_k == 1
        assert verify(res.best_witness, Graph(2, [(0, 1)])).equal

    def test_best_witness_always_verifies(self):
        for graph in (make_cycle(4), make_path(4), make_grid([2, 2])):
            res = search_min_k(graph, SearchConfig(max_weight=4))
            assert res.best_witness.k == res.best_k
            assert verify(res.best_witness, graph).equal

    def test_monotone_in_weight_bound(self):
        for n in (3, 4, 5):
            g = make_cycle(n)
            ks = [
                best_or_inf(search_min_k(g, SearchConfig(max_weight=w)))
                for w in (2, 4, 6)
            ]
            assert ks == sorted(ks, reverse=True)

    def test_matches_direct_enumeration(self):
        # the census must agree field for field with folding the oracle over
        # the whole space, whatever the early stop and worker count
        rng = random.Random(11860)
        for graph in sweep_graphs():
            bound = rng.randint(1, 3)
            for target_k in (None, 0, 1, 2):
                want = reference_census(graph, bound, target_k)
                for jobs in (1, 2):
                    cfg = SearchConfig(max_weight=bound, target_k=target_k, jobs=jobs)
                    assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)

    def test_matches_direct_enumeration_past_one_machine_word(self):
        # sums reach 2W, so at these bounds the tie masks and sum bitsets span
        # several machine words; on the 4-vertex graphs a target hit stops a
        # level that still has tied weights above the hit, which stay uncounted
        pendant = sweep_graphs()[0]
        cases = (
            (Graph(2, [(0, 1)]), 100, (None, 1)),
            (Graph(2), 100, (None, 0)),
            (make_path(3), 32, (None, 1)),
            (Graph(3, [(0, 2)]), 33, (None, 0)),
            (make_cycle(4), 6, (1,)),
            (make_path(4), 7, (1,)),
            (pendant, 8, (1, 2)),
            (Graph(4, [(0, 1), (0, 2), (0, 3)]), 7, (1,)),
        )
        for graph, bound, targets in cases:
            for target_k in targets:
                want = reference_census(graph, bound, target_k)
                cfg = SearchConfig(max_weight=bound, target_k=target_k)
                assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)

    def test_matches_direct_enumeration_at_even_bounds(self):
        # at even W the census splits chunk W/2 into the boxes "vertices 0..j-1
        # at W/2, vertex j below W/2", which count twice, and one box of the
        # rest, which counts once: on edgeless and complete graphs that is the
        # all-W/2 vector, which is feasible; at n = 2 the fused last two levels
        # start at the root, and n = 1 is answered in closed form
        rng = random.Random(2804)
        # on the two 3-vertex graphs only vertex 1 tells vertex 2 from vertex 0,
        # so w = (y, x, y) ties only through the pair of vertices 1 and 2
        graphs = [Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(3, [(1, 2)]), Graph(3, [(0, 1)])]
        for n in range(3, 6):
            complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs += [Graph(n), Graph(n, complete), half_dense_graph(n, rng), half_dense_graph(n, rng)]
        for graph in graphs:
            for bound in (2, 4, 6):
                full = reference_census(graph, bound)
                for target_k in (None, 0, 1):
                    # a census is the full scan, and so is a run whose target lies
                    # below every k, since it stops nothing
                    if target_k is None or full.best_k is None or full.best_k > target_k:
                        want = full
                    else:
                        want = reference_census(graph, bound, target_k)
                    cfg = SearchConfig(max_weight=bound, target_k=target_k)
                    assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)
                    if graph.n == 5 and target_k is None:
                        assert search_min_k(graph, replace(cfg, jobs=2)) == want, (graph.edges(), cfg)

    def test_relative_census_matches_direct_enumeration(self, monkeypatch):
        # a census without a target counts each vector once up to translation; it
        # must agree field for field with folding the oracle over {0..W}^n, at odd
        # and even W, on graphs whose orbit moves vertex 0 (cycles, complete and
        # edgeless graphs) or not, and with the first box split for a pool, which
        # runs in-process here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor([], []))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = random.Random(3607)
        for n in range(2, 7):
            complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs = [Graph(n), Graph(n, complete), half_dense_graph(n, rng), half_dense_graph(n, rng)]
            if n >= 3:
                graphs.append(make_cycle(n))
            for graph in graphs:
                for bound in (2, 3) if n == 6 else (rng.choice((1, 3, 5)), rng.choice((2, 4))):
                    want = reference_census(graph, bound)
                    for jobs in (1, 2):
                        cfg = SearchConfig(max_weight=bound, jobs=jobs)
                        assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)

    def test_slowest_accepted_small_censuses_run_at_once(self):
        # the largest two-vertex census and the largest path-3 census under
        # SPACE_LIMIT took 21 s and 62 s when every translate was scored apart
        start = time.perf_counter()
        for graph, bound in ((Graph(2), 3167), (Graph(2, [(0, 1)]), 3167), (make_path(3), 415)):
            res = search_min_k(graph, SearchConfig(max_weight=bound))
            size = bound + 1
            assert res.explored == size**graph.n and res.exhaustive_within_bound
            if graph.n == 2:
                # one pair sum, never tied: k is the number of edges
                assert res.k_histogram == {len(graph.edges()): size**2} and res.infeasible_count == 0
            else:
                # the non-edge {0, 2} ties unless w1 differs from w0 and w2; it lies
                # between the two edge sums exactly when w1 lies between w0 and w2
                outside = sum(w1 * w1 + (bound - w1) ** 2 for w1 in range(size))
                between = sum(2 * w1 * (bound - w1) for w1 in range(size))
                assert res.k_histogram == {1: outside, 2: between}
            assert verify(res.best_witness, graph).equal
            assert res.best_witness.weights == ((0, 0) if graph.n == 2 else (0, 1, 0))
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize(
        "edges, bound, hit",
        [
            ([(0, 1), (0, 2), (1, 2), (1, 3)], 2, (1, 0, 1, 2)),
            ([(0, 1), (0, 2), (1, 2), (2, 3)], 2, (1, 1, 0, 2)),
            ([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2, (1, 1, 0, 0, 2)),
            ([(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3)], 4, (2, 0, 1, 2, 4)),
            ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)], 4, (2, 2, 1, 0, 4)),
        ],
    )
    def test_target_hit_inside_the_split_middle_chunk(self, edges, bound, hit):
        # the first vector with k <= 1 has vertex 0 at W/2, inside one of the
        # boxes that split chunk W/2, so explored is that box's rank plus every
        # box before it
        graph = Graph(len(hit), edges)
        want = reference_census(graph, bound, 1)
        assert want.best_witness.weights == hit and not want.exhaustive_within_bound
        for jobs in (1, 2):
            cfg = SearchConfig(max_weight=bound, target_k=1, jobs=jobs)
            assert search_min_k(graph, cfg) == want, cfg

    def test_even_bounds_where_the_all_half_prefix_ties_early(self):
        # with vertices 0..J-1 at W/2 every pair sums to W, so once they hold an
        # edge and a non-edge (J < n) the rest of chunk W/2 is one box that ties
        # throughout and counts once; relabeling a grid moves J
        rng = random.Random(2911)
        graphs = []
        for base in (make_grid([3, 3]), make_grid([2, 4])):
            perm = rng.sample(range(base.n), base.n)
            graphs.append(Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges()]))
        for n, count, seeded in ((6, 3, random.Random(54)), (5, 2, rng), (4, 2, rng)):
            while count:
                p = seeded.random()
                graph = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if seeded.random() < p])
                if tie_cut(graph) < n:
                    graphs.append(graph)
                    count -= 1
        split_hits = set()
        for graph in graphs:
            assert tie_cut(graph) < graph.n, graph.edges()
            # every graph at W = 2, and larger W while the reference scan stays short
            for bound in (2, 4, 6, 8):
                if bound > 2 and (bound + 1) ** graph.n > 10**4:
                    break
                full = reference_census(graph, bound)
                for target_k in (None, 0, 1, 2):
                    misses = target_k is None or full.best_k is None or full.best_k > target_k
                    want = full if misses else reference_census(graph, bound, target_k)
                    cfg = SearchConfig(max_weight=bound, target_k=target_k)
                    assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)
                    hit = want.best_witness.weights if not want.exhaustive_within_bound else ()
                    if hit and 2 * hit[0] == bound:
                        # the split box "vertices 0..j-1 at W/2, vertex j below W/2" holding the hit
                        split_hits.add(next(j for j, x in enumerate(hit) if 2 * x != bound))
        assert split_hits == {1, 2}

    def test_one_vertex_census_is_answered_in_closed_form(self, monkeypatch):
        # W+1 vectors without pair sums, each with k = 0: no box is scanned and
        # no pool starts, whatever jobs asks for
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor(sizes, []))
        graph = Graph(1)
        for bound in range(1, 41):
            for target_k in (None, 0, 3):
                want = reference_census(graph, bound, target_k)
                for jobs in (1, 2):
                    cfg = SearchConfig(max_weight=bound, target_k=target_k, jobs=jobs)
                    assert search_min_k(graph, cfg) == want, cfg
        assert sizes == []

    @pytest.mark.parametrize(
        "graph, bound",
        [
            (make_cycle(5), 6),
            (make_path(5), 6),
            (make_cycle(6), 4),
            (make_grid([2, 3]), 4),
            (make_grid([3, 3]), 2),
            (half_dense_graph(6, random.Random(6)), 4),
        ],
        ids=["cycle5-W6", "path5-W6", "cycle6-W4", "grid2x3-W4", "grid3x3-W2", "random6-W4"],
    )
    def test_matches_direct_enumeration_on_benchmark_shapes(self, graph, bound):
        # one graph of each search-census benchmark family at its benchmark
        # bound, so the histogram and infeasible count it reports are checked
        assert search_min_k(graph, SearchConfig(max_weight=bound)) == reference_census(graph, bound)

    def test_kernel_disagreeing_with_oracle_raises(self, monkeypatch):
        # the oracle cross-check on the best witness is a real check, not an
        # assert, so it also runs under python -O; only the search's leaf run
        # count is broken, so the oracle keeps its own run scan
        monkeypatch.setattr(starpcg.search, "_run_count", lambda E, N: 0)
        with pytest.raises(RuntimeError, match="oracle"):
            search_min_k(make_cycle(4), SearchConfig(max_weight=3))

    def test_histogram_accounts_for_everything(self):
        # each of the 4^4 weightings of C_4 at W = 3 lands in one bucket,
        # counted here straight from the oracle's answers
        graph = make_cycle(4)
        buckets = Counter()
        for vec in product(range(4), repeat=4):
            res = min_intervals_for_weights(graph, vec)
            buckets["infeasible" if isinstance(res, Infeasible) else res.k] += 1
        infeasible = buckets.pop("infeasible")
        res = search_min_k(graph, SearchConfig(max_weight=3))
        assert res.explored == 4**4
        assert res.infeasible_count == infeasible
        assert res.k_histogram == dict(buckets)


class TestRunCount:
    def test_matches_the_oracle_run_scan(self):
        # the leaf's bitset run count and the oracle's class-byte run scan
        # against a plain scan of the sorted sums
        cases = [
            (set(), set()),
            (set(), {0, 7}),  # no edge sum
            ({0}, set()),  # no non-edge sum, edge at bit 0
            ({0, 1, 2}, {3}),  # adjacent edge sums, then adjacent kinds
            ({1}, {0}),  # non-edge at bit 0
            ({7}, {0, 1}),  # edge at the top bit
            ({0}, {7}),  # non-edge at the top bit
            ({2, 3, 5, 200}, {4, 6, 130}),  # gaps, and sums past one machine word
            ({0, 2, 4}, {1, 3, 5}),
        ]
        rng = random.Random(5077)
        for _ in range(500):
            width = rng.randint(1, 140)
            sums = rng.sample(range(width), rng.randint(0, width))
            cut = rng.randint(0, len(sums))
            cases.append((set(sums[:cut]), set(sums[cut:])))
        for edges, nonedges in cases:
            sums = sorted(edges | nonedges)
            want = sum(s in edges and (i == 0 or sums[i - 1] not in edges) for i, s in enumerate(sums))
            E = sum(1 << s for s in edges)
            N = sum(1 << s for s in nonedges)
            assert starpcg.search._run_count(E, N) == want, (sorted(edges), sorted(nonedges))
            classes = bytes(1 if s in edges else 2 for s in sums)
            assert len(starpcg.stars._edge_runs(classes, sums)) == want, (sorted(edges), sorted(nonedges))
            # the dense layout: one class byte per sum up to the top one, 0 for no pair
            slots = range(sums[-1] + 1 if sums else 0)
            classes = bytes(1 if s in edges else 2 if s in nonedges else 0 for s in slots)
            assert len(starpcg.stars._edge_runs(classes, slots)) == want, (sorted(edges), sorted(nonedges))


def inline_executor(sizes, submitted):
    """A ProcessPoolExecutor stand-in: records its size and each box's spans, and scans in-process."""

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, task):
            submitted.append(task[1])
            future = concurrent.futures.Future()
            future.set_result(func(task))
            return future

    return InlineExecutor


class TestDeterminismAndJobs:
    def test_identical_configs_identical_results(self):
        cfg = SearchConfig(max_weight=4)
        assert search_min_k(make_cycle(4), cfg) == search_min_k(make_cycle(4), cfg)

    def test_worker_count_does_not_change_output(self):
        g = make_cycle(4)
        serial = search_min_k(g, SearchConfig(max_weight=4, jobs=1))
        parallel = search_min_k(g, SearchConfig(max_weight=4, jobs=2))
        assert serial == parallel

    def test_worker_count_with_early_exit(self):
        g = make_cycle(5)
        serial = search_min_k(g, SearchConfig(max_weight=6, target_k=2, jobs=1))
        parallel = search_min_k(g, SearchConfig(max_weight=6, target_k=2, jobs=3))
        assert serial == parallel
        assert serial.best_k == 2
        assert serial.explored < 7**5
        assert not serial.exhaustive_within_bound

    def test_pool_size_is_capped(self, monkeypatch):
        # no process starts: the executor is replaced by a recorder that scans in-process
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor(sizes, []))
        g = make_cycle(4)
        serial = search_min_k(g, SearchConfig(max_weight=3, jobs=1))
        assert sizes == []
        assert search_min_k(g, SearchConfig(max_weight=3, jobs=10**6)) == serial
        assert all(size <= min(3 + 2, os.cpu_count() or 1) for size in sizes)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # vertex 0's orbit on C_4 is every vertex, so a census is one box, split by
        # vertex 1's weight, W..2W
        for bound in (3, 4):
            sizes.clear()
            cfg = SearchConfig(max_weight=bound, jobs=10**6)
            assert search_min_k(g, cfg) == search_min_k(g, replace(cfg, jobs=1))
            assert sizes == [bound + 1]
        # vertex 0's orbit on the path 0-1-2-3 is {0, 3}, so the census keeps the
        # mirror.  Vertices 0..2 hold an edge and a non-edge, so J = 3: the pool gets
        # the box "vertex 1 below W" split into W boxes by vertex 1's weight, the box
        # "vertex 1 at W, vertex 2 below W", and the box "vertices 0..2 at W"
        for bound in (3, 4):
            sizes.clear()
            cfg = SearchConfig(max_weight=bound, jobs=10**6)
            assert search_min_k(make_path(4), cfg) == search_min_k(make_path(4), replace(cfg, jobs=1))
            assert sizes == [bound + 2]
        # a target run scans lexicographic chunks: the W//2 + 1 chunks w0 <= W/2 at
        # odd W, and the W/2 chunks below W/2 and chunk W/2 as J boxes at even W;
        # C_4 never gets k = 0, so every box runs
        for bound, count in ((3, 3 // 2 + 1), (4, 4 // 2 + 3)):
            sizes.clear()
            cfg = SearchConfig(max_weight=bound, target_k=0, jobs=10**6)
            assert search_min_k(g, cfg) == search_min_k(g, replace(cfg, jobs=1))
            assert sizes == [count]

    def test_pool_feed_stays_near_the_fold(self, monkeypatch):
        submitted = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor([], submitted))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for graph, bound, target_k in ((Graph(2, [(0, 1)]), 300, 1), (make_cycle(5), 30, 2)):
            submitted.clear()
            res = search_min_k(graph, SearchConfig(max_weight=bound, target_k=target_k, jobs=2))
            assert not res.exhaustive_within_bound
            hit = res.best_witness.weights[0]
            assert [spans[0].bit_length() - 1 for spans in submitted] == list(range(len(submitted)))
            assert hit < len(submitted) <= hit + 1 + 2 * 2
        # with no target every box is submitted, vertex 0 at W = 6.  On the path 5
        # the box "vertex 1 below W" comes split by vertex 1's weight, then "vertex 1
        # at W, vertex 2 below W" and "vertices 0..2 at W", where vertices 0..2 hold
        # an edge and a non-edge.  On C_5 the one orbit-weighted box comes split by
        # vertex 1's weight, W..2W
        F, L, M, U = (1 << 13) - 1, (1 << 6) - 1, 1 << 6, (1 << 13) - (1 << 6)
        for graph, boxes in (
            (make_path(5), [[M, 1 << x, F, F, F] for x in range(6)] + [[M, M, L, F, F], [M, M, M, F, F]]),
            (make_cycle(5), [[M, 1 << x, U, U, U] for x in range(6, 13)]),
        ):
            submitted.clear()
            res = search_min_k(graph, SearchConfig(max_weight=6, jobs=2))
            assert res == search_min_k(graph, SearchConfig(max_weight=6))
            assert submitted == boxes

    def test_early_stops_in_a_pool_shut_down(self):
        # ending a pool while a worker writes a result can hang its shutdown,
        # so repeat early-stopping pool scans in a child under a time limit
        script = (
            "from starpcg import SearchConfig, make_cycle, make_path, search_min_k\n"
            "cases = ((make_cycle(5), 6, 2), (make_cycle(4), 8, 1), (make_path(3), 20, 1),"
            " (make_path(2), 300, 1))\n"
            "for _ in range(30):\n"
            "    for g, w, k in cases:\n"
            "        search_min_k(g, SearchConfig(max_weight=w, target_k=k, jobs=2))\n"
        )
        src = os.path.dirname(os.path.dirname(starpcg.search.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only a forked worker sees the patched chunk scan",
    )
    def test_dead_worker_raises_instead_of_hanging(self):
        script = (
            "import os\n"
            "import starpcg.search\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from starpcg import SearchConfig, make_path, search_min_k\n"
            "scan = starpcg.search._scan_box\n"
            "def dying_scan(args):\n"
            "    if args[1][1] == 1 << 1:\n"
            "        os._exit(1)\n"
            "    return scan(args)\n"
            "starpcg.search._scan_box = dying_scan\n"
            "try:\n"
            "    search_min_k(make_path(5), SearchConfig(max_weight=6, jobs=2))\n"
            "except BrokenProcessPool:\n"
            "    print('BrokenProcessPool')\n"
        )
        src = os.path.dirname(os.path.dirname(starpcg.search.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "BrokenProcessPool\n"

    def test_census_holds_one_chunk_at_a_time(self, monkeypatch):
        # a target run scans lexicographic chunks: two vertices at W = 2000 make
        # 1002 boxes, 1001 of them twinned, and no leaf of the path reaches k = 0;
        # each stand-in box holds a 300-key histogram, about 12 MB if every box were kept
        def wide_scan(args):
            return starpcg.search._ChunkStats(explored=300, histogram=dict.fromkeys(range(300), 1))

        monkeypatch.setattr(starpcg.search, "_scan_box", wide_scan)
        tracemalloc.start()
        try:
            res = search_min_k(make_path(2), SearchConfig(max_weight=2000, target_k=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.k_histogram == dict.fromkeys(range(300), 1002 + 1001)
        assert res.explored == 300 * (1002 + 1001)
        assert peak < 10**6

    def test_mirror_chunks_are_not_scanned(self, monkeypatch):
        # a census without a target scans relative vectors, vertex 0 at W in offset
        # weights 0..2W and a span of at most W, each standing for its translates.
        # When vertex 0's orbit has three or more vertices the census is one box,
        # vertex 0 at W and the rest of its orbit at W..2W, each leaf weighted by
        # |orbit|/m for its m orbit vertices at W.  Otherwise the mirror
        # u -> 2W - u keeps every count, so it scans one vector of each mirror
        # pair, except in the last box, which is its own image and counts once
        scanned = []
        scan = starpcg.search._scan_box

        def recording_scan(args):
            scanned.append([[x for x in range(span.bit_length()) if span >> x & 1] for span in args[1]])
            return scan(args)

        monkeypatch.setattr(starpcg.search, "_scan_box", recording_scan)
        pendant = sweep_graphs()[0]
        assert orbit_of_zero(pendant) == {0}
        cycle = make_cycle(5)
        assert orbit_of_zero(cycle) == set(range(5))
        for graph, bound in product((cycle, pendant), (4, 5, 6)):
            scanned.clear()
            res = search_min_k(graph, SearchConfig(max_weight=bound))
            assert res == reference_census(graph, bound), (graph.edges(), bound)
            n = graph.n
            F, L, M, U = list(range(2 * bound + 1)), list(range(bound)), [bound], list(range(bound, 2 * bound + 1))
            covered = Counter()
            if graph is cycle:
                assert scanned == [[M] + [U] * (n - 1)]
                for u in product(*scanned[0]):
                    lo, hi = min(u), max(u)
                    if hi - lo <= bound:
                        for t in range(bound - (hi - lo) + 1):
                            covered[tuple(x - lo + t for x in u)] += 1
                # each vector in which vertex 0 is lightest among the orbit, once
                space = [v for v in product(range(bound + 1), repeat=n) if v[0] == min(v)]
                assert covered == dict.fromkeys(space, 1), bound
                continue
            # "vertex 1 below W", "vertex 1 at W, vertex 2 below W", then "vertices
            # 0..2 at W": vertices 0..2 hold an edge and a non-edge
            assert scanned == [[M, L] + [F] * (n - 2), [M, M, L] + [F] * (n - 3), [M] * 3 + [F] * (n - 3)]
            for index, box in enumerate(scanned):
                twice = index < len(scanned) - 1
                for u in product(*box):
                    lo, hi = min(u), max(u)
                    if hi - lo > bound:
                        continue
                    if not twice:
                        # every vector of the last box ties: its vertices 0..2 share one weight
                        assert isinstance(min_intervals_for_weights(graph, u), Infeasible), u
                    for t in range(bound - (hi - lo) + 1):
                        covered[tuple(x - lo + t for x in u)] += 1
                        if twice:
                            covered[tuple(hi - x + t for x in u)] += 1
            assert covered == dict.fromkeys(product(range(bound + 1), repeat=n), 1), bound

    def test_lexicographic_chunks_are_not_scanned_twice(self, monkeypatch):
        # a target run scans boxes of absolute weights in lexicographic order: the
        # chunks w0 < W/2, which count twice, once for their images under the mirror
        # w -> W - w, and at even W chunk W/2 as the boxes "vertices 0..j-1 at W/2,
        # vertex j below W/2" for j < J, which count twice too, and one box of the
        # rest, its own image, which counts once.  Target 0 is never hit on graphs
        # with an edge, so every box runs
        scanned = []
        scan = starpcg.search._scan_box

        def recording_scan(args):
            scanned.append([[x for x in range(span.bit_length()) if span >> x & 1] for span in args[1]])
            return scan(args)

        monkeypatch.setattr(starpcg.search, "_scan_box", recording_scan)
        pendant = sweep_graphs()[0]
        cycle = make_cycle(5)
        for graph, bound in product((cycle, pendant), (4, 5, 6)):
            assert tie_cut(graph) == 3
            scanned.clear()
            res = search_min_k(graph, SearchConfig(max_weight=bound, target_k=0))
            assert res.exhaustive_within_bound
            n = graph.n
            F, half = list(range(bound + 1)), bound // 2
            want = [[[w0]] + [F] * (n - 1) for w0 in range((bound + 1) // 2)]
            twinned = len(want)
            if bound % 2 == 0:
                M, L = [half], F[:half]
                want += [[M, L] + [F] * (n - 2), [M, M, L] + [F] * (n - 3), [M] * 3 + [F] * (n - 3)]
                twinned += 2
            assert scanned == want, (graph.edges(), bound)
            covered = Counter()
            for index, box in enumerate(scanned):
                for u in product(*box):
                    covered[u] += 1
                    if index < twinned:
                        covered[tuple(bound - x for x in u)] += 1
                    else:
                        # the last box at even W: vertices 0..2 share one weight and
                        # hold an edge and a non-edge, so every vector ties
                        assert isinstance(min_intervals_for_weights(graph, u), Infeasible), u
            space = list(product(F, repeat=n))
            assert covered == dict.fromkeys(space, 1), (graph.edges(), bound)
            assert res.explored == len(space)

    def test_target_misses_match_the_census(self):
        # a target below every k stops nothing, so the lexicographic scan must give
        # the relative census's result field for field; these spaces are too large
        # for reference_census, and no benchmark workload runs a target.  C_6, the
        # 2x3 grid and K_{3,3} take the orbit-weighted census
        start = time.perf_counter()
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        cases = (
            (make_path(3), 120, 0),
            (make_cycle(7), 10, 1),
            (make_grid([3, 3]), 9, 2),
            (make_cycle(6), 8, 1),
            (make_grid([2, 3]), 8, 0),
            (k33, 6, 0),
        )
        for graph, bound, target_k in cases:
            census = search_min_k(graph, SearchConfig(max_weight=bound))
            assert census.best_k > target_k
            assert search_min_k(graph, SearchConfig(max_weight=bound, target_k=target_k)) == census, graph.edges()
        assert time.perf_counter() - start < 10

    def test_target_k_zero_stops_immediately(self):
        res = search_min_k(Graph(3), SearchConfig(max_weight=2, target_k=0))
        assert res.best_k == 0
        assert res.explored == 1


class TestRandomMode:
    def test_seeded_reproducibility(self):
        g = make_cycle(5)
        cfg = SearchConfig(max_weight=8, mode=MODE_RANDOM, trials=400, rng_seed=11)
        assert search_min_k(g, cfg) == search_min_k(g, cfg)

    def test_explores_exactly_trials(self):
        g = make_cycle(5)
        res = search_min_k(g, SearchConfig(max_weight=8, mode=MODE_RANDOM, trials=250, rng_seed=0))
        assert res.explored == 250
        assert not res.exhaustive_within_bound
        assert sum(res.k_histogram.values()) + res.infeasible_count == 250

    def test_matches_oracle_fold_over_the_same_draws(self):
        for graph in sweep_graphs()[:8]:
            for target_k in (None, 1):
                cfg = SearchConfig(
                    max_weight=6, mode=MODE_RANDOM, trials=300, rng_seed=graph.n, target_k=target_k
                )
                rng = random.Random(cfg.rng_seed)
                draws = [
                    tuple(rng.randint(0, 6) for _ in range(graph.n)) for _ in range(cfg.trials)
                ]
                want = fold(graph, draws, target_k)
                want = SearchResult(**{**want.__dict__, "exhaustive_within_bound": False})
                assert search_min_k(graph, cfg) == want, (graph.edges(), target_k)

    def test_reads_adjacency_only_as_far_as_trials_reach(self, monkeypatch):
        # a trial on a long path ties within a few vertices, so the search
        # must not look up all n(n-1)/2 vertex pairs before it
        calls = []
        has_edge = Graph.has_edge
        monkeypatch.setattr(
            Graph, "has_edge", lambda self, u, v: calls.append((u, v)) or has_edge(self, u, v)
        )
        graph = make_path(2000)
        cfg = SearchConfig(mode=MODE_RANDOM, trials=1, max_weight=10)
        res = search_min_k(graph, cfg)
        assert len(calls) < 10**4
        rng = random.Random(cfg.rng_seed)
        want = fold(graph, [tuple(rng.randint(0, 10) for _ in range(graph.n))])
        assert res == SearchResult(**{**want.__dict__, "exhaustive_within_bound": False})

    def test_a_wide_trial_runs_without_recursion(self):
        # RANDOM_WORK_LIMIT admits one trial on up to 3,161 vertices; a walk
        # that recursed once per vertex raised RecursionError from about 1,200
        res = search_min_k(Graph(1500), SearchConfig(mode=MODE_RANDOM, trials=1, max_weight=3))
        assert res.best_k == 0 and res.explored == 1

    def test_never_beats_known_cycle_minimum(self):
        # random probing at the default bound never undercuts two intervals
        for n in (6, 7, 8):
            g = make_cycle(n)
            res = search_min_k(g, SearchConfig(mode=MODE_RANDOM, trials=100_000, rng_seed=n))
            assert res.best_k is None or res.best_k >= 2, n


class TestExhaustiveEvidence:
    """Whole-space scans that a vector-by-vector census could not afford."""

    def test_grid33_never_one_interval_up_to_space_limit(self):
        grid = make_grid([3, 3])
        res = search_min_k(grid, SearchConfig(max_weight=9))
        assert res.explored == 10**9
        assert res.exhaustive_within_bound
        assert res.k_histogram and min(res.k_histogram) > 1
        assert res.best_witness.k == res.best_k
        assert verify(res.best_witness, grid).equal
        oracle = min_intervals_for_weights(grid, res.best_witness.weights)
        assert isinstance(oracle, Feasible) and oracle.k == res.best_k

    def test_c8_never_one_interval(self):
        g = make_cycle(8)
        res = search_min_k(g, SearchConfig(max_weight=8))
        assert res.explored == 9**8
        assert res.exhaustive_within_bound
        assert res.k_histogram and min(res.k_histogram) > 1
        assert res.best_witness.k == res.best_k
        assert verify(res.best_witness, g).equal


def relabeled(graph, seed):
    """`graph` with its vertices permuted by a seeded shuffle."""
    perm = random.Random(seed).sample(range(graph.n), graph.n)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


class TestOrbitWeightedCensus:
    # a census whose vertex 0 has an orbit O of three or more vertices scans one
    # box, vertex 0 at W and the rest of O at W..2W, and counts each leaf |O|/m
    # times for its m orbit vertices at W.  On K_4, the edgeless graph, C_4 and
    # K_{3,2} with vertex 0 in the part of three, orbit vertices are twins and
    # share weights in feasible vectors, so m >= 2 occurs (all four at W, on K_4)
    TWINS = (
        Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
        Graph(4),
        make_cycle(4),
        Graph(5, [(u, v) for u in range(3) for v in (3, 4)]),
    )

    @staticmethod
    def recorded(monkeypatch):
        """Patch in an in-process pool of two workers; return the orbit sizes that boxes are weighted by."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor([], []))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        weighted = []
        scan = starpcg.search._scan_box

        def recording_scan(args):
            weighted.append(len(args[4]))
            return scan(args)

        monkeypatch.setattr(starpcg.search, "_scan_box", recording_scan)
        return weighted

    def test_weighted_census_matches_direct_enumeration(self, monkeypatch):
        # W on both sides of n - 1: below it every tie-free vector gives two
        # vertices one weight, so the census skips the orbit search
        weighted = self.recorded(monkeypatch)
        cases = [(make_cycle(5), 5), (relabeled(make_cycle(5), 5), 5), *zip(self.TWINS, (4, 4, 4, 3))]
        for graph, orbit in cases:
            n = graph.n
            for bound in (n - 2, n - 1, n):
                want = reference_census(graph, bound)
                for jobs in (1, 2):
                    weighted.clear()
                    assert search_min_k(graph, SearchConfig(max_weight=bound, jobs=jobs)) == want, (graph.edges(), bound)
                    assert set(weighted) == {orbit if bound >= n - 1 else 0}

    def test_weighted_census_matches_the_mirror_census(self, monkeypatch):
        # past five vertices direct enumeration takes too long, so the reference is
        # the census with no budget for the orbit search, which keeps the mirror's
        # boxes (checked against direct enumeration in TestExhaustive)
        weighted = self.recorded(monkeypatch)
        steps = starpcg.search.ORBIT_STEPS
        cases = [
            (make_cycle(6), 6),
            (make_cycle(7), 7),
            (make_cycle(8), 8),
            (relabeled(make_cycle(7), 7), 7),
            (relabeled(make_cycle(8), 8), 8),
            (make_grid([2, 3]), 4),
            (relabeled(make_grid([2, 3]), 21), 4),
            # vertex 0 is a middle vertex, whose orbit of 2 keeps the mirror
            (relabeled(make_grid([2, 3]), 23), 0),
            (make_grid([3, 3]), 4),
            (make_grid([2, 2, 2]), 8),
        ]
        for graph, orbit in cases:
            n = graph.n
            for bound in (n - 2, n - 1, n):
                cfg = SearchConfig(max_weight=bound)
                monkeypatch.setattr(starpcg.search, "ORBIT_STEPS", 0)
                mirror = search_min_k(graph, cfg)
                monkeypatch.setattr(starpcg.search, "ORBIT_STEPS", steps)
                for jobs in (1, 2):
                    weighted.clear()
                    assert search_min_k(graph, replace(cfg, jobs=jobs)) == mirror, (graph.edges(), bound)
                    assert set(weighted) == {orbit if bound >= n - 1 else 0}, (graph.edges(), bound)

    def test_any_orbit_search_budget_keeps_the_census(self, monkeypatch):
        # a spent budget leaves the orbit of the maps found so far, the orbit of a
        # group of automorphisms, and a census weighted by it stays exact; on Q_3
        # some budgets stop between the group's orbits of sizes 2, 4 and 8
        graphs = [(make_grid([2, 2, 2]), 7), (make_cycle(6), 6), (make_grid([3, 3]), 8), (self.TWINS[0], 4)]
        want = [search_min_k(graph, SearchConfig(max_weight=bound)) for graph, bound in graphs]
        sizes = set()
        for budget in range(0, 40, 3):
            monkeypatch.setattr(starpcg.search, "ORBIT_STEPS", budget)
            sizes.add(len(starpcg.search._orbit_of_zero(graphs[0][0])))
            for (graph, bound), result in zip(graphs, want):
                assert search_min_k(graph, SearchConfig(max_weight=bound)) == result, (graph.edges(), budget)
        assert sizes == {1, 2, 4, 8}
        # the orbit is closed under every map found, so two maps of C_40, a
        # reflection and a rotation, reach the whole orbit within 100 steps
        monkeypatch.setattr(starpcg.search, "ORBIT_STEPS", 100)
        assert starpcg.search._orbit_of_zero(make_cycle(40)) == tuple(range(40))


class TestSymmetryPruning:
    def test_orbit_backtracker_matches_every_permutation(self):
        # a vertex tried as an image and then given up must be freed again:
        # without that, 0 -> 2 on edges (0,3), (1,4), (2,3) is never found
        assert starpcg.search._orbit_of_zero(Graph(5, [(0, 3), (1, 4), (2, 3)])) == (0, 2)
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(4, 7)
            p = rng.random()
            graph = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            assert set(starpcg.search._orbit_of_zero(graph)) == orbit_of_zero(graph), graph.edges()

    def test_orbit_backtracker_is_fast_on_asymmetric_cubic_graphs(self):
        # placing vertices in id order with only a degree filter took 4.5 s
        # at n = 20 and over 45 s at n = 24 on these graphs
        for n in (20, 24):
            graph = random_regular(random.Random(n), n, 3)
            start = time.perf_counter()
            orbit = starpcg.search._orbit_of_zero(graph)
            assert time.perf_counter() - start < 1, n
            # relabeling the graph with vertex 0 fixed relabels the orbit
            perm = [0] + random.Random(n).sample(range(1, n), n - 1)
            relabeled = Graph(n, [(perm[u], perm[v]) for u, v in graph.edges()])
            start = time.perf_counter()
            moved = starpcg.search._orbit_of_zero(relabeled)
            assert time.perf_counter() - start < 1, n
            assert set(moved) == {perm[v] for v in orbit}, n


class TestValidation:
    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            search_min_k(Graph(0), SearchConfig(max_weight=2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=2, mode="guess"))

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=2, jobs=0))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=2, mode=MODE_RANDOM, trials=0))

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_weight must be an integer >= 1"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=0))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target_k"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=2, target_k=-1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_weight", 2.5),
            ("max_weight", True),
            ("max_weight", "3"),
            ("trials", 2.5),
            ("trials", None),
            ("target_k", "1"),
            ("target_k", False),
            ("jobs", 1.5),
            ("jobs", True),
            ("jobs", None),
            ("mode", None),
            ("mode", 1),
            ("trials", True),
            ("rng_seed", None),
            ("rng_seed", True),
            ("rng_seed", 1.5),
            ("rng_seed", [1]),
        ],
    )
    def test_rejects_wrong_field_types(self, field, value):
        for mode in (MODE_EXHAUSTIVE, MODE_RANDOM):
            cfg = SearchConfig(max_weight=2, mode=mode, trials=5)
            with pytest.raises(ValueError, match=field):
                search_min_k(make_cycle(3), replace(cfg, **{field: value}))

    def test_rejects_oversized_space(self):
        with pytest.raises(ValueError, match="exceeds"):
            search_min_k(make_cycle(3), SearchConfig(max_weight=1000))

    def test_rejects_a_one_vertex_space_past_the_limit_at_once(self):
        # (W+1)^1 = 10^9 is within the limit, but not times 1 + (2W+1)//64 words
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            search_min_k(make_path(1), SearchConfig(max_weight=999999999))
        assert time.perf_counter() - start < 1

    def test_rejects_a_two_vertex_census_past_the_word_limit_at_once(self):
        # (W+1)^2 < 10^9 here, but every leaf reads 63,000-bit sum tables
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            search_min_k(Graph(2), SearchConfig(max_weight=31621))
        assert time.perf_counter() - start < 1

    def test_census_work_limit_boundary(self):
        # (W+1)^n * (1 + (2W+1)//64) on every number of vertices
        limit = starpcg.search.SPACE_LIMIT
        for graph, bound in ((Graph(2), 3167), (make_path(3), 415), (make_grid([3, 3]), 9)):
            starpcg.search._validated(graph, SearchConfig(max_weight=bound))
            with pytest.raises(ValueError, match=f"exceeds {limit}"):
                starpcg.search._validated(graph, SearchConfig(max_weight=bound + 1))
        start = time.perf_counter()
        assert search_min_k(make_path(1), SearchConfig(max_weight=178879)).explored == 178880
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match=f"work {178881 * 5591} exceeds {limit}"):
            starpcg.search._validated(make_path(1), SearchConfig(max_weight=178880))

    def test_work_figures_print_in_full_up_to_256_bits(self):
        # a work of 41 to 78 digits is printed digit for digit, past 256 bits as 2^N
        limit = starpcg.search.SPACE_LIMIT
        full = 101**30 * (1 + 201 // 64)
        assert 10**40 < full < 2**256
        with pytest.raises(ValueError) as exc:
            starpcg.search._validated(make_path(30), SearchConfig(max_weight=100))
        assert str(exc.value).startswith(f"exhaustive work {full} exceeds {limit}:")
        huge = 1001**30 * (1 + 2001 // 64)
        with pytest.raises(ValueError) as exc:
            starpcg.search._validated(make_path(30), SearchConfig(max_weight=1000))
        assert str(exc.value).startswith(f"exhaustive work 2^{huge.bit_length() - 1} or more exceeds")

    def test_census_work_names_the_tighter_bound_until_its_bit_lengths_pass_1024(self):
        # n * bitlen(W+1) = 1200 here, but 3^600 has only 951 bits, so the product is
        # built and _shown names its 2^(bit length - 1) floor, not the 2^600 of bit lengths
        with pytest.raises(ValueError) as exc:
            starpcg.search._validated(Graph(600), SearchConfig(max_weight=2))
        assert str(exc.value).startswith(f"exhaustive work 2^{(3**600).bit_length() - 1} or more exceeds")

    def test_huge_max_weight_is_refused_from_bit_lengths(self):
        # the exact (W+1)^n here has 26.6 million bits and took seconds to build
        graph, bound = Graph(2000), 10**4000
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            search_min_k(graph, SearchConfig(max_weight=bound))
        assert time.perf_counter() - start < 1
        limit = starpcg.search.SPACE_LIMIT
        named = int(re.match(rf"exhaustive work 2\^(\d+) or more exceeds {limit}:", str(exc.value))[1])
        # the figure named is a true lower bound on the work, and past the limit
        words = 1 + (2 * bound + 1) // 64
        assert limit.bit_length() <= named <= 2000 * math.log2(bound + 1) + math.log2(words)
        # random mode still prints its exact work past 256 bits as 2^N
        work = 1000 * (2000 * 2001 // 2) * words
        with pytest.raises(ValueError) as exc:
            search_min_k(graph, SearchConfig(mode=MODE_RANDOM, max_weight=bound))
        assert f"= 2^{work.bit_length() - 1} or more exceeds" in str(exc.value)


    def test_rejects_oversized_random_work_at_once(self):
        # unbounded, the first ran 4.5 s at 299 MB peak and the others ran
        # until killed: bitsets of 2W+1 bits, or trials that never hit the target
        cases = (
            (make_cycle(5), 10, 10**8, None),
            (make_cycle(5), 10, 10**9, None),
            (make_path(2000), 3, 10**9, None),
            (make_cycle(5), 10**11, 3, 5),
        )
        for graph, trials, bound, target_k in cases:
            cfg = SearchConfig(mode=MODE_RANDOM, trials=trials, max_weight=bound, target_k=target_k)
            start = time.perf_counter()
            with pytest.raises(ValueError, match="random work .* exceeds"):
                search_min_k(graph, cfg)
            with pytest.raises(ValueError, match="random work .* exceeds"):
                search_report(graph, cfg)
            assert time.perf_counter() - start < 1

    def test_random_work_limit_boundary(self):
        # one vertex holds no bitset, so its work at the limit runs at once
        limit = starpcg.search.RANDOM_WORK_LIMIT
        bound = (limit - 1) * 32  # 1 + (2W+1)//64 == limit
        cfg = SearchConfig(mode=MODE_RANDOM, trials=1, max_weight=bound)
        assert search_min_k(Graph(1), cfg).explored == 1
        with pytest.raises(ValueError, match=f"= {limit + 1} exceeds {limit}"):
            search_min_k(Graph(1), replace(cfg, max_weight=bound + 32))

    def test_cli_refuses_oversized_random_work(self):
        src = os.path.dirname(os.path.dirname(starpcg.search.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (
            ("cycle", "5", "--trials", "10", "--max-weight", "100000000"),
            ("cycle", "5", "--trials", "10", "--max-weight", "1000000000"),
            ("path", "2000", "--trials", "3", "--max-weight", "1000000000"),
            ("cycle", "5", "--trials", "100000000000", "--max-weight", "3", "--target-k", "5"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "starpcg", "mink", *argv, "--mode", "random"],
                env=env, capture_output=True, text=True, timeout=30,
            )
            assert proc.returncode == 64, (argv, proc.stderr)
            assert "exceeds" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


class TestReporting:
    def test_report_shape(self):
        report = search_report(make_cycle(3), SearchConfig(max_weight=4))
        assert report["best_k"] == 1
        assert report["exhaustive_within_bound"] is True
        assert report["config"]["max_weight"] == 4
        assert report["config"]["trials"] is None  # exhaustive mode
        # the echo names every SearchConfig field in order, rng_seed as seed, and no other key
        names = ["seed" if f.name == "rng_seed" else f.name for f in fields(SearchConfig)]
        assert list(report["config"]) == names
        assert set(report["k_histogram"]) <= {"1", "2", "3"}
        wit = report["best_witness"]
        assert isinstance(wit["weights"], list) and isinstance(wit["intervals"], list)

    def test_report_default_bound_is_twice_n(self):
        report = search_report(Graph(2, [(0, 1)]))
        assert report["config"]["max_weight"] == 4

    def test_human_rendering_exhaustive(self):
        text = format_search_report(search_report(make_cycle(3), SearchConfig(max_weight=4)))
        assert "best: 1 interval(s)" in text
        assert "covered all vectors" in text

    def test_human_rendering_partial(self):
        text = format_search_report(
            search_report(make_cycle(5), SearchConfig(max_weight=6, mode=MODE_RANDOM, trials=50))
        )
        assert "partial scan" in text

    def test_human_rendering_no_feasible(self):
        text = format_search_report(
            {
                "best_k": None,
                "best_witness": None,
                "explored": 4,
                "infeasible_count": 4,
                "k_histogram": {},
                "exhaustive_within_bound": False,
                "config": {"max_weight": 1},
            }
        )
        assert "no feasible weighting" in text
        assert "(empty)" in text
