"""Bounded exhaustive and randomized weight-space search."""

import concurrent.futures
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import permutations, product

import pytest

import starpcg.search
import starpcg.stars
from starpcg import (
    Feasible,
    Graph,
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


def fold(graph, vectors, target_k=None, skip=lambda vec: False):
    """The promised SearchResult, by scoring each vector with the oracle in order."""
    explored = infeasible = 0
    histogram = {}
    best = None
    hit = False
    for vec in vectors:
        if skip(vec):
            continue
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


def reference_census(graph, bound, target_k=None, prune_symmetry=False):
    """Plain lexicographic scan of {0..W}^n with the symmetry skip and first-hit stop."""
    orbit = orbit_of_zero(graph) if prune_symmetry else ()
    return fold(
        graph,
        product(range(bound + 1), repeat=graph.n),
        target_k,
        skip=lambda vec: any(vec[v] < vec[0] for v in orbit),
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
        # the whole space, whatever the early stop, pruning and worker count
        rng = random.Random(11860)
        for graph in sweep_graphs():
            bound = rng.randint(1, 3)
            for target_k in (None, 0, 1, 2):
                for prune in (False, True):
                    want = reference_census(graph, bound, target_k, prune)
                    for jobs in (1, 2):
                        cfg = SearchConfig(
                            max_weight=bound, target_k=target_k, prune_symmetry=prune, jobs=jobs
                        )
                        assert search_min_k(graph, cfg) == want, (graph.edges(), cfg)

    def test_kernel_disagreeing_with_oracle_raises(self, monkeypatch):
        # the oracle cross-check on the best witness is a real check, not an
        # assert, so it also runs under python -O; only the search's leaf run
        # count is broken, so the oracle keeps its own run scan
        monkeypatch.setattr(starpcg.search, "_run_count", lambda E, N: 0)
        with pytest.raises(RuntimeError, match="oracle"):
            search_min_k(make_cycle(4), SearchConfig(max_weight=3))

    def test_histogram_accounts_for_everything(self):
        res = search_min_k(make_cycle(4), SearchConfig(max_weight=3))
        assert sum(res.k_histogram.values()) + res.infeasible_count == res.explored


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
    """A ProcessPoolExecutor stand-in: records its size and each chunk's w0, and scans in-process."""

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, task):
            submitted.append(task[2])
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
        assert all(size <= min(3 + 1, os.cpu_count() or 1) for size in sizes)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        sizes.clear()
        assert search_min_k(g, SearchConfig(max_weight=3, jobs=10**6)) == serial
        assert sizes == [3 // 2 + 1]
        # vertex 0's orbit on C_4 is every vertex, so a pruned census scans every chunk
        sizes.clear()
        pruned = SearchConfig(max_weight=3, jobs=10**6, prune_symmetry=True)
        assert search_min_k(g, pruned) == search_min_k(g, replace(pruned, jobs=1))
        assert sizes == [3 + 1]

    def test_pool_feed_stays_near_the_fold(self, monkeypatch):
        submitted = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_executor([], submitted))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for graph, bound, target_k in ((make_path(1), 300, 0), (make_cycle(5), 30, 2)):
            submitted.clear()
            res = search_min_k(graph, SearchConfig(max_weight=bound, target_k=target_k, jobs=2))
            assert not res.exhaustive_within_bound
            hit = res.best_witness.weights[0]
            assert submitted == list(range(len(submitted)))
            assert hit < len(submitted) <= hit + 1 + 2 * 2
        # with no hit every scanned chunk is submitted
        submitted.clear()
        res = search_min_k(make_cycle(5), SearchConfig(max_weight=6, jobs=2))
        assert res == search_min_k(make_cycle(5), SearchConfig(max_weight=6))
        assert submitted == list(range(6 // 2 + 1))

    def test_early_stops_in_a_pool_shut_down(self):
        # ending a pool while a worker writes a result can hang its shutdown,
        # so repeat early-stopping pool scans in a child under a time limit
        script = (
            "from starpcg import SearchConfig, make_cycle, make_path, search_min_k\n"
            "cases = ((make_cycle(5), 6, 2), (make_cycle(4), 8, 1), (make_path(3), 20, 1),"
            " (make_path(1), 300, 0))\n"
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
            "from starpcg import SearchConfig, make_cycle, search_min_k\n"
            "scan = starpcg.search._scan_chunk\n"
            "def dying_scan(args):\n"
            "    if args[2] == 1:\n"
            "        os._exit(1)\n"
            "    return scan(args)\n"
            "starpcg.search._scan_chunk = dying_scan\n"
            "try:\n"
            "    search_min_k(make_cycle(5), SearchConfig(max_weight=6, jobs=2))\n"
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

    def test_census_holds_one_chunk_at_a_time(self):
        # one chunk per first weight: 2*10^4 + 1 chunks must not all be kept
        tracemalloc.start()
        try:
            res = search_min_k(make_path(1), SearchConfig(max_weight=2 * 10**4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.explored == 2 * 10**4 + 1
        assert res.k_histogram == {0: 2 * 10**4 + 1}
        assert peak < 10**6

    def test_mirror_chunks_are_not_scanned(self, monkeypatch):
        # chunk W - w0 is chunk w0 mirrored; the orbit bound of a pruned census
        # does not survive the mirror, so there every chunk is scanned
        scanned = []
        scan = starpcg.search._scan_chunk

        def recording_scan(args):
            scanned.append(args[2])
            return scan(args)

        monkeypatch.setattr(starpcg.search, "_scan_chunk", recording_scan)
        pendant = sweep_graphs()[0]
        assert orbit_of_zero(pendant) == {0}
        cases = (
            (make_cycle(5), 5, False, range(3)),
            (make_cycle(5), 6, False, range(4)),
            (make_cycle(5), 5, True, range(6)),
            (pendant, 5, True, range(3)),
            (pendant, 4, True, range(3)),
        )
        for graph, bound, prune, chunks in cases:
            scanned.clear()
            cfg = SearchConfig(max_weight=bound, prune_symmetry=prune, jobs=1)
            res = search_min_k(graph, cfg)
            assert scanned == list(chunks)
            if not prune:
                assert res.explored == (bound + 1) ** graph.n

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

    def test_never_beats_known_cycle_minimum(self):
        # random probing at the default bound never undercuts two intervals
        for n in (6, 7, 8):
            g = make_cycle(n)
            res = search_min_k(g, SearchConfig(mode=MODE_RANDOM, trials=100_000, rng_seed=n))
            assert res.best_k is None or res.best_k >= 2, n


class TestExhaustiveEvidence:
    """Whole-space scans that a vector-by-vector census could not afford."""

    def test_grid33_never_one_interval_up_to_space_limit(self):
        res = search_min_k(make_grid([3, 3]), SearchConfig(max_weight=9))
        assert res.explored == 10**9
        assert res.exhaustive_within_bound
        assert res.k_histogram and min(res.k_histogram) > 1
        assert sum(res.k_histogram.values()) + res.infeasible_count == res.explored

    def test_c8_never_one_interval(self):
        g = make_cycle(8)
        res = search_min_k(g, SearchConfig(max_weight=8))
        assert res.explored == 9**8
        assert res.exhaustive_within_bound
        assert res.k_histogram and min(res.k_histogram) > 1
        assert res.best_witness.k == res.best_k
        assert verify(res.best_witness, g).equal


class TestSymmetryPruning:
    def test_same_minimum_with_and_without(self):
        for graph in (make_cycle(5), make_path(3), make_grid([2, 2])):
            plain = search_min_k(graph, SearchConfig(max_weight=4))
            pruned = search_min_k(graph, SearchConfig(max_weight=4, prune_symmetry=True))
            assert plain.best_k == pruned.best_k
            assert pruned.explored < plain.explored
            assert verify(pruned.best_witness, graph).equal

    def test_asymmetric_graph_prunes_nothing(self):
        # a pendant triangle has no automorphism moving vertex 0
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        plain = search_min_k(g, SearchConfig(max_weight=3))
        pruned = search_min_k(g, SearchConfig(max_weight=3, prune_symmetry=True))
        assert plain == pruned


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
            ("prune_symmetry", "no"),
            ("prune_symmetry", 1),
            ("prune_symmetry", None),
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
        # (W+1)^1 = 10^9 is within the limit, but the census would walk 5*10^8 chunks
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            search_min_k(make_path(1), SearchConfig(max_weight=999999999))
        assert time.perf_counter() - start < 1


class TestReporting:
    def test_report_shape(self):
        report = search_report(make_cycle(3), SearchConfig(max_weight=4))
        assert report["best_k"] == 1
        assert report["exhaustive_within_bound"] is True
        assert report["config"]["max_weight"] == 4
        assert report["config"]["trials"] is None  # exhaustive mode
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
