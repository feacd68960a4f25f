"""Witness model: realization, verification, and the minimum-interval oracle."""

import itertools
import json
import random
import time
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starpcg import (
    Feasible,
    Graph,
    GridShape,
    Infeasible,
    Witness,
    check_intervals,
    check_weights,
    cycle_witness,
    grid_witness,
    induced_subgraph,
    interleaving_certificate,
    make_cycle,
    make_grid,
    make_path,
    min_intervals_for_weights,
    path_witness,
    realize,
    universal_witness,
    verify,
)
import starpcg.stars as stars_mod
from starpcg.graphs import _check_int

from helpers import random_graph, random_weights
from naive_oracle import INFEASIBLE, naive_min_intervals
from reference_oracle import brute_force_edges, reference_min_intervals

FIG2A = Witness((12, 1, 11, 2, 10, 3, 9, 4), ((12, 13), (16, 16)))


class TestValidation:
    def test_weights_must_be_non_negative_ints(self):
        assert check_weights([0, 3]) == (0, 3)
        with pytest.raises(ValueError):
            check_weights([-1])
        with pytest.raises(ValueError):
            check_weights([1.5])
        with pytest.raises(ValueError):
            check_weights([True])

    def test_matches_the_per_item_rule(self):
        # a vector of plain ints is settled in one pass; every vector must
        # still be accepted or refused exactly as this per-item rule says,
        # with the same message: every bad item here is short, and an int of
        # at most 256 bits prints in full
        class Level(IntEnum):
            TWO = 2

        def per_item(weights):
            out = tuple(weights)
            for i, w in enumerate(out):
                if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                    return f"weight {i} must be a non-negative integer, got {w!r}"
            return out

        good = tuple(range(80))
        cases = [(), (0,), (2**200,), (3, 2**200, 0), good, (Level.TWO,), (*good, Level.TWO)]
        for bad in (True, False, -1, -(2**200), 1.5, 2.0, None, "3"):
            cases += [(bad,), (*good, bad), (bad, *good), (*good, bad, 2**200)]
        for case in cases:
            want = per_item(case)
            if isinstance(want, str):
                with pytest.raises(ValueError) as exc:
                    check_weights(list(case))
                assert str(exc.value) == want
            else:
                got = check_weights(iter(case))
                assert got == want and list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize(
        "weights", [{9: 0, 0: 1, 5: 2}, {9, 0, 5}, frozenset({9, 0, 5}), set(range(10**4))]
    )
    def test_refuses_mappings_and_sets(self, weights):
        # a dict would give its keys, a set its hash order, as the weights;
        # the message shows a huge one shortened
        msg = "weights must be a sequence of integers, got "
        path = make_path(3)
        calls = (
            lambda: check_weights(weights),
            lambda: min_intervals_for_weights(path, weights),
            lambda: Witness(weights, [[9, 9]]),
            lambda: interleaving_certificate(path, weights, 1),
        )
        for call in calls:
            with pytest.raises(ValueError, match=msg) as exc:
                call()
            assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("bad", [True, -1])
    def test_witness_refuses_bool_and_negative_weights(self, bad):
        with pytest.raises(ValueError, match=f"weight 1 must be a non-negative integer, got {bad}"):
            Witness((0, bad, 2), ((1, 2),))

    def test_refusals_name_huge_ints_by_bit_length(self):
        # Python 3.11 refuses to print an int of more than 4300 digits, so a
        # refusal shows an int past 256 bits as a power of two, nested or not
        huge = 10**5000
        big, neg = f"2^{huge.bit_length() - 1} or more", f"-2^{huge.bit_length() - 1} or less"
        cases = [
            (lambda: check_weights([0, -huge]), f"weight 1 must be a non-negative integer, got {neg}"),
            (lambda: _check_int(-huge, "n", 1), f"n must be an integer >= 1, got {neg}"),
            (lambda: Graph(3, [(0, huge)]), f"edge (0, {big}) out of range for n=3"),
            (lambda: Graph(3, [(huge, 0.5)]), f"edge ({big}, 0.5) is not a pair of integer vertices"),
            (lambda: Graph(3, [(huge, huge)]), f"self-loop at vertex {big}"),
            (lambda: check_intervals([[3, -huge]]), f"interval [3, {neg}] is not a valid range"),
            (lambda: check_intervals([[huge, 1.5]]), f"interval endpoints must be integers, got [{big}, 1.5]"),
            (lambda: check_intervals([[0, huge], [huge, huge]]), f"intervals overlap near [{big}, ...]"),
            (lambda: GridShape(huge), f"grid shape must be a sequence of dimension sizes, got {big}"),
            (
                lambda: GridShape((2, -huge)),
                f"each of the dimension sizes (2, {neg}) must be an integer >= 1, got {neg}",
            ),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_refusals_up_to_256_bits_read_as_before(self):
        # an int of at most 256 bits prints digit for digit, bare or inside a
        # list or tuple; a tuple of more than six items shows its first six
        edge = 2**256 - 1
        cases = [
            (lambda: _check_int(-edge, "n", 1), f"n must be an integer >= 1, got {-edge}"),
            (
                lambda: check_weights([-(10**50)]),
                f"weight 0 must be a non-negative integer, got {-(10**50)}",
            ),
            (
                lambda: check_intervals([[edge, 1.5]]),
                f"interval endpoints must be integers, got [{edge}, 1.5]",
            ),
            (lambda: Graph(3, [(0, edge)]), f"edge (0, {edge}) out of range for n=3"),
            (lambda: Graph(3, [(edge, edge)]), f"self-loop at vertex {edge}"),
            (lambda: check_intervals([[3, -edge]]), f"interval [3, {-edge}] is not a valid range"),
            (lambda: check_intervals([[0, edge], [edge, edge]]), f"intervals overlap near [{edge}, ...]"),
            (
                lambda: GridShape((1, 2, 3, 4, 5, 6, 7, -edge)),
                "each of the dimension sizes (1, 2, 3, 4, 5, 6, ...) must be an integer >= 1, "
                f"got {-edge}",
            ),
            (lambda: Graph(3, [(0, 2**256)]), "edge (0, 2^256 or more) out of range for n=3"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_intervals_validated(self):
        assert check_intervals([(1, 2), (4, 4)]) == ((1, 2), (4, 4))
        with pytest.raises(ValueError):
            check_intervals([(2, 1)])
        with pytest.raises(ValueError):
            check_intervals([(-1, 2)])
        with pytest.raises(ValueError):
            check_intervals([(1, 5), (5, 7)])
        with pytest.raises(ValueError):
            check_intervals([(1.0, 2)])

    def test_interval_order_is_preserved(self):
        # constructions may emit the singleton second even when it is lower
        assert check_intervals([(13, 15), (7, 7)]) == ((13, 15), (7, 7))

    def test_witness_round_trip(self):
        d = FIG2A.to_dict()
        assert d == {"weights": [12, 1, 11, 2, 10, 3, 9, 4], "intervals": [[12, 13], [16, 16]]}
        assert Witness.from_dict(d) == FIG2A
        with pytest.raises(ValueError):
            Witness.from_dict({"weights": [1]})


class TestRealize:
    def test_two_column_grid_example(self):
        wit = Witness((8, 1, 2, 7, 6, 3, 4, 5), ((8, 10),))
        assert realize(wit) == make_grid([4, 2])

    def test_cycle_eight_example(self):
        assert realize(FIG2A) == make_cycle(8)

    def test_empty_intervals_realize_edgeless(self):
        assert realize(Witness((5, 9, 2), ())) == Graph(3)

    @given(
        weights=st.lists(st.integers(0, 15), min_size=2, max_size=6),
        cuts=st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True),
    )
    def test_adding_an_interval_never_removes_edges(self, weights, cuts):
        cuts = sorted(cuts)
        intervals = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
        base = realize(Witness(tuple(weights), tuple(intervals[:-1])))
        grown = realize(Witness(tuple(weights), tuple(intervals)))
        assert set(base.edges()) <= set(grown.edges())


class TestVerify:
    def test_cycle_eight_equal(self):
        report = verify(FIG2A, make_cycle(8))
        assert report.equal and not report.missing and not report.extra

    def test_perturbed_target_reports_extra(self):
        target = Graph(8, [e for e in make_cycle(8).edges() if e != (0, 1)])
        report = verify(FIG2A, target)
        assert not report.equal
        assert report.extra == ((0, 1),)
        assert report.missing == ()

    def test_dropping_an_interval_reports_missing(self):
        report = verify(Witness(FIG2A.weights, ((12, 13),)), make_cycle(8))
        assert not report.equal
        assert report.missing == ((0, 7),)

    def test_edgeless(self):
        report = verify(Witness((0, 0, 0), ()), Graph(3))
        assert report.equal

    def test_report_json(self):
        report = verify(Witness(FIG2A.weights, ((12, 13),)), make_cycle(8))
        as_json = json.loads(json.dumps(report.to_dict()))
        assert as_json == {"equal": False, "missing": [[0, 7]], "extra": []}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify(FIG2A, make_cycle(7))


class TestOracle:
    def test_cycle_eight(self):
        res = min_intervals_for_weights(make_cycle(8), FIG2A.weights)
        assert res == Feasible(2, ((12, 13), (16, 16)))

    def test_edgeless(self):
        res = min_intervals_for_weights(Graph(4), (3, 1, 4, 1))
        assert res == Feasible(0, ())

    def test_path_all_equal_weights(self):
        res = min_intervals_for_weights(make_grid([3]), (1, 1, 1))
        assert res == Infeasible(edge=(0, 1), nonedge=(0, 2))

    def test_feasible_intervals_realize_the_graph(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, n_max=7)
            w = random_weights(rng, g.n, 12)
            res = min_intervals_for_weights(g, w)
            if isinstance(res, Feasible):
                assert verify(Witness(w, res.intervals), g).equal
                assert res.k == len(res.intervals)
                assert list(res.intervals) == sorted(res.intervals)

    def test_matches_naive_enumeration_seeded(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_graph(rng, n_max=6)
            w = random_weights(rng, g.n, rng.choice([4, 8, 20]))
            res = min_intervals_for_weights(g, w)
            expected = naive_min_intervals(g, w)
            if isinstance(res, Infeasible):
                assert expected == INFEASIBLE
                u, v = res.edge
                assert g.has_edge(u, v)
                p, q = res.nonedge
                assert not g.has_edge(p, q)
                assert w[u] + w[v] == w[p] + w[q]
            else:
                assert res.k == expected

    @given(
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_matches_naive_enumeration_fuzz(self, n, data):
        pair_count = n * (n - 1) // 2
        bits = data.draw(st.lists(st.booleans(), min_size=pair_count, max_size=pair_count))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [p for p, keep in zip(pairs, bits) if keep])
        w = tuple(data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        res = min_intervals_for_weights(g, w)
        expected = naive_min_intervals(g, w)
        if isinstance(res, Infeasible):
            assert expected == INFEASIBLE
        else:
            assert res.k == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            min_intervals_for_weights(make_cycle(3), (1, 2))

    def test_one_graph_object_scores_many_weightings(self):
        # the oracle reads the graph's cached endpoint arrays: weightings scored
        # in turn on one graph object must match a fresh copy of the graph each time
        seen = set()
        for seed in range(30):
            shared = random_graph(random.Random(seed), n_min=2, n_max=12)
            rng = random.Random(1000 + seed)
            for _ in range(8):
                w = random_weights(rng, shared.n, rng.choice([2, shared.n, 50]))
                fresh = random_graph(random.Random(seed), n_min=2, n_max=12)
                res = min_intervals_for_weights(shared, w)
                assert res == min_intervals_for_weights(fresh, w), (seed, w)
                assert verify(Witness(w, ()), shared) == verify(Witness(w, ()), fresh)
                seen.add(type(res).__name__)
        assert seen == {"Feasible", "Infeasible"}


def _weight_cases(rng):
    """Seeded (label, graph, weights) cases for every weight shape the sum table meets."""
    for n in (0, 1, 2):
        for _ in range(5):
            g = random_graph(rng, n_min=n, n_max=n)
            yield "tiny", g, random_weights(rng, n, 3)
    for _ in range(25):
        g = random_graph(rng, n_min=2, n_max=14)
        yield "all-equal", g, (rng.randint(0, 9),) * g.n
        yield "0..4", g, random_weights(rng, g.n, 4)
        yield "0..n", g, random_weights(rng, g.n, g.n)
        yield "up to 10^9", g, random_weights(rng, g.n, 10**9)
        yield "2^i", g, tuple(1 << i for i in range(g.n))
    # feasible and tie-heavy at once: construction weights, nudged
    for g, wit in ((make_cycle(30), cycle_witness(30)), (make_grid([6, 7]), grid_witness(6, 7))):
        yield "construction", g, wit.weights
        w = list(wit.weights)
        w[rng.randrange(g.n)] += 1
        yield "perturbed", g, tuple(w)


def _matching(N):
    """Edges and weights: i and N+i weigh i and 4N-i and are joined, 2N and 2N+1 weigh N and 3N and are not.

    Every edge sums to S = 4N and (2N, 2N+1) is the one non-edge at S, so the
    2N vertices before it are candidates of the tie report whose partners are
    all neighbours.
    """
    return [(i, N + i) for i in range(N)], (*range(N), *(4 * N - i for i in range(N)), N, 3 * N)


def _relabelled(rng, n, edges, w):
    """The graph on `edges` with weights `w` under a random permutation of the vertex ids."""
    perm = rng.sample(range(n), n)
    out = [0] * n
    for v, x in zip(perm, w):
        out[v] = x
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), tuple(out)


def _matching_cases(rng):
    """Seeded (label, graph, weights) ties at S = 4N, in vertex order and relabelled.

    Relabelling puts partners below a candidate.  The variants add partners of
    equal weight (t = w[u], at S/2 = 2N), join all but a few pairs, and give
    the weights N and 3N several vertices each, so several candidates of one
    weight fail the partner-count test.
    """
    for _ in range(8):
        N = rng.randint(1, 20)
        edges, w = _matching(N)
        n = 2 * N + 2
        g = rng.randint(2, 5)
        clique = list(itertools.combinations(range(n, n + g), 2))
        pairs = list(itertools.combinations(range(n), 2))
        dropped = {(2 * N, 2 * N + 1), *rng.sample(pairs, rng.randint(0, 3))}
        j = rng.randint(2, 4)
        cross = list(itertools.product(range(2 * N, 2 * N + j), range(2 * N + j, 2 * N + 2 * j)))
        variants = [
            ("matching", n, edges, w),
            # the one non-edge at S lies inside a clique of weight S/2
            ("equal partners", n + g, [*edges, (2 * N, 2 * N + 1), *clique[1:]], w + (2 * N,) * g),
            # the clique is whole, so its candidates pass and (2N, 2N+1) is found
            ("equal partners", n + g, [*edges, *clique], w + (2 * N,) * g),
            ("near-complete", n, [p for p in pairs if p not in dropped], w),
            (
                "several failing",
                2 * N + 2 * j,
                [*edges, *rng.sample(cross, rng.randint(0, len(cross) - 1))],
                w[: 2 * N] + (N,) * j + (3 * N,) * j,
            ),
        ]
        for label, size, es, ws in variants:
            yield label, Graph(size, es), ws
            yield label + ", relabelled", *_relabelled(rng, size, es, ws)


class TestOracleAgainstReference:
    """The sum-table oracle returns exactly what the sort-based oracle did."""

    @pytest.mark.parametrize("divisor", [None, 0, 10**18], ids=["rule", "square", "pairs"])
    def test_whole_results_match(self, divisor, monkeypatch):
        # divisor 0 forces the histogram square, 10**18 the distinct-pair loop
        # (except for a span of 0, which only the square handles); the square
        # is not forced on spans it would need gigabytes for
        if divisor is not None:
            monkeypatch.setattr(stars_mod, "_SQUARE_SPAN_DIVISOR", divisor)
        seen = set()
        cases = itertools.chain(_weight_cases(random.Random(41)), _matching_cases(random.Random(43)))
        for label, g, w in cases:
            if divisor == 0 and w and max(w) - min(w) > 10**4:
                continue
            res = min_intervals_for_weights(g, w)
            assert res == reference_min_intervals(g, w), (label, g.to_dict(), w)
            seen.add((label, type(res).__name__))
        assert {("0..n", "Feasible"), ("0..n", "Infeasible"), ("2^i", "Feasible")} <= seen
        assert ("construction", "Feasible") in seen and ("all-equal", "Infeasible") in seen
        for label in ("matching", "equal partners", "near-complete", "several failing"):
            assert {(label, "Infeasible"), (label + ", relabelled", "Infeasible")} <= seen

    def test_the_tie_report_takes_linear_time(self):
        # 2N candidates pass the partner-count test before 2N fails it; a scan
        # of each candidate's later partners without that test is quadratic
        # here and took 1 to 2 s already at N = 10^4
        N = 10**5
        edges, w = _matching(N)
        g = Graph(2 * N + 2, edges)
        esums = [w[u] + w[v] for u, v in g.edges()]
        start = time.perf_counter()
        res = stars_mod._first_pairs_at(g, w, esums, 4 * N, Counter(w))
        elapsed = time.perf_counter() - start
        assert res == Infeasible(edge=(0, N), nonedge=(2 * N, 2 * N + 1))
        assert elapsed < 10

    def test_a_sum_without_a_non_edge_is_flagged(self):
        edges, w = _matching(6)
        g = Graph(14, [*edges, (12, 13)])
        esums = [w[u] + w[v] for u, v in g.edges()]
        with pytest.raises(RuntimeError, match="^no non-edge has sum 24$"):
            stars_mod._first_pairs_at(g, w, esums, 24, Counter(w))

    def test_span_rule_takes_both_paths(self, monkeypatch):
        squared = []
        pair_counts = stars_mod._pair_counts

        def spy(*args):
            squared.append(args)
            return pair_counts(*args)

        monkeypatch.setattr(stars_mod, "_pair_counts", spy)
        g = make_path(40)
        min_intervals_for_weights(g, tuple(range(40)))  # span 39 <= 40^2 / 8
        assert len(squared) == 1
        min_intervals_for_weights(g, tuple(1 << i for i in range(40)))
        assert len(squared) == 1

    def test_every_array_code_matches_the_reference(self):
        # the square's slots are 'B' up to n * max(hist) = 255, 'H' up to
        # 65535 and 'I' beyond: all-equal weights at n = 20 need 'H' and at
        # n = 300 need 'I'; a weight repeated next to distinct weights meets
        # both the diagonal subtraction and the halving in the same square
        rng = random.Random(59)
        seen = set()
        for n in (5, 20, 300):
            repeated = (7,) * (n // 2) + tuple(rng.sample(range(20, 20 + 4 * n), n - n // 2))
            complete = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            for w in ((3,) * n, repeated, tuple(rng.randint(0, n) for _ in range(n))):
                for g in (Graph(n), complete, random_graph(rng, n_min=n, n_max=n), make_path(n)):
                    res = min_intervals_for_weights(g, w)
                    assert res == reference_min_intervals(g, w), (n, w, g.edges())
                    seen.add(type(res).__name__)
                hist = Counter(w)
                seen.add(stars_mod._pair_counts(hist, min(w), max(w) - min(w)).typecode)
        assert {"B", "H", "I", "Feasible", "Infeasible"} <= seen

    def test_infeasible_pairs_far_from_vertex_zero(self):
        # the first tied edge is looked up by its place in the sorted edge
        # order; an isolated prefix puts every edge far from vertex 0
        rng = random.Random(73)
        later = 0
        for _ in range(150):
            core = random_graph(rng, n_min=3, n_max=10)
            offset = rng.randint(5, 20)
            g = Graph(offset + core.n, [(u + offset, v + offset) for u, v in core.edges()])
            w = random_weights(rng, g.n, rng.choice([3, 8, 20]))
            res = min_intervals_for_weights(g, w)
            assert res == reference_min_intervals(g, w), (g.to_dict(), w)
            later += isinstance(res, Infeasible) and g.edges().index(res.edge) > 0
        assert later >= 20


class TestPairCounts:
    def test_slots_match_a_pair_loop(self):
        rng = random.Random(61)
        cases = [(0,), (4, 4), (0, 9), (2, 2, 2, 5), (1, 1, 3, 3, 3, 8)]
        for _ in range(300):
            n = rng.randint(1, 40)
            cases.append(random_weights(rng, n, rng.choice([0, 1, 3, n, 4 * n])))
            cases.append(tuple(rng.choice([0, 6, 6, 6, rng.randint(0, 50)]) for _ in range(n)))
        for w in cases:
            low = min(w)
            want = [0] * (2 * (max(w) - low) + 1)
            for u in range(len(w)):
                for v in range(u + 1, len(w)):
                    want[w[u] + w[v] - 2 * low] += 1
            assert list(stars_mod._pair_counts(Counter(w), low, max(w) - low)) == want, w

    def test_loop_counter_agrees_with_the_square(self):
        # all-equal weights (span 0) at n = 5, 20 and 300 give the square's
        # 'B', 'H' and 'I' slots; a repeated weight next to distinct ones
        # meets the loop's same-weight pairs and its cross pairs together
        rng = random.Random(67)
        codes = set()
        for n in (5, 20, 300):
            repeated = (7,) * (n // 2) + tuple(rng.sample(range(20, 20 + 4 * n), n - n // 2))
            for w in ((3,) * n, repeated, random_weights(rng, n, n), random_weights(rng, n, 4 * n)):
                hist = Counter(w)
                low = min(w)
                square = stars_mod._pair_counts(hist, low, max(w) - low)
                codes.add(square.typecode)
                dense = [0] * len(square)
                for s, c in stars_mod._pair_counts_by_loop(hist).items():
                    dense[s - 2 * low] = c
                assert list(square) == dense, (n, w)
        assert codes == {"B", "H", "I"}


class TestRealizeAgainstBruteForce:
    def test_few_intervals(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(0, 40)
            w = random_weights(rng, n, rng.choice([3, n + 1, 4 * n + 1]))
            cuts = sorted(rng.sample(range(8 * n + 10), 2 * rng.randint(0, 3)))
            ivs = tuple(zip(cuts[::2], cuts[1::2]))
            expected = brute_force_edges(w, ivs)
            wit = Witness(w, ivs)
            assert realize(wit).edges() == expected
            assert stars_mod.realized_edge_count(wit, len(expected)) == len(expected)

    def test_verify_diff_matches_pair_scan(self):
        rng = random.Random(53)
        both = 0
        for _ in range(300):
            g = random_graph(rng, n_min=2, n_max=12)
            w = random_weights(rng, g.n, rng.choice([4, 10, 30]))
            cuts = sorted(rng.sample(range(61), 2 * rng.randint(1, 3)))
            wit = Witness(w, tuple(zip(cuts[::2], cuts[1::2])))
            realized = set(brute_force_edges(w, wit.intervals))
            report = verify(wit, g)
            assert list(report.missing) == sorted(set(g.edges()) - realized)
            assert list(report.extra) == sorted(realized - set(g.edges()))
            assert report.equal == (realized == set(g.edges()))
            both += bool(report.missing and report.extra)
        assert both >= 50

    def test_many_intervals_universal_witness(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_graph(rng, n_min=20, n_max=30)
            wit = universal_witness(g)
            expected = brute_force_edges(wit.weights, wit.intervals)
            assert expected == g.edges()
            assert realize(wit).edges() == expected
            assert stars_mod.realized_edge_count(wit, len(expected)) == len(expected)

    def test_edge_count_limit_stops_early(self):
        wit = Witness((0,) * 50, ((0, 0),))
        assert 10 < stars_mod.realized_edge_count(wit, 10) <= 10 + 49
        assert stars_mod.realized_edge_count(wit, 50 * 49 // 2) == 50 * 49 // 2
        assert stars_mod.realized_edge_count(wit, 10**9) == 50 * 49 // 2


class TestBothWalks:
    """`_accepted_blocks` walks by interval or by vertex; each walk must realize the same pairs."""

    # the span rule compares an interval-range total of at most n*k with span * n
    WALKS = {"interval": 10**18, "vertex": -1}

    @staticmethod
    def _witnesses(rng):
        """(label, witness, target graph) triples, seeded."""
        for n in (3, 8, 17, 40):
            yield "cycle", cycle_witness(n), make_cycle(n)
            yield "path", path_witness(n), make_path(n)
        for shape in ((2, 5), (3, 3), (4, 7), (6, 6)):
            yield "grid", grid_witness(*shape), make_grid(shape)
        for _ in range(60):
            n = rng.randint(0, 30)
            top = rng.choice([3, n + 1, 4 * n + 1])
            w = random_weights(rng, n, top)
            cuts = sorted(rng.sample(range(2 * top + 10), 2 * rng.randint(0, 4)))
            # narrow intervals, each at most 2 wide, placed at the cuts
            ivs = tuple((a, min(a + rng.randint(0, 2), b)) for a, b in zip(cuts[::2], cuts[1::2]))
            yield "narrow", Witness(w, ivs), random_graph(rng, n, n)
        for _ in range(15):
            n, a = rng.randint(0, 20), rng.randint(0, 9)
            yield "all-equal", Witness((a,) * n, ((max(0, 2 * a - 1), 2 * a),)), random_graph(rng, n, n)
        for _ in range(15):
            n = rng.randint(2, 20)
            w = random_weights(rng, n, 10)
            low, high = sorted(w)[:2], sorted(w)[-2:]
            # one interval below every pair sum, one above: no vertex pair lands in either
            below = ((0, sum(low) - 1),) if sum(low) > 0 else ()
            yield "outside", Witness(w, below + ((sum(high) + 1, sum(high) + 5),)), random_graph(rng, n, n)
        for _ in range(15):
            n = rng.randint(2, 20)
            w = random_weights(rng, n, 50)
            # lo - max(w) is negative, so every range starts at position 0
            lo = rng.randint(0, max(w))
            yield "low-start", Witness(w, ((lo, lo + rng.randint(0, 20)),)), random_graph(rng, n, n)
        for n in (0, 1, 2):
            for ivs in ((), ((0, 0),), ((0, 3),), ((1, 1), (3, 4))):
                w = random_weights(rng, n, 2)
                yield "tiny", Witness(w, ivs), random_graph(rng, n, n)
        for _ in range(6):
            g = random_graph(rng, n_min=1, n_max=24)
            yield "universal", universal_witness(g), g

    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_each_walk_matches_brute_force(self, walk, monkeypatch):
        monkeypatch.setattr(stars_mod, "_INTERVAL_WALK_SPAN", self.WALKS[walk])
        seen = set()
        for label, wit, g in self._witnesses(random.Random(97)):
            if wit.n:
                _, blocks = stars_mod._accepted_blocks(wit)
                assert isinstance(blocks, itertools.chain) == (walk == "interval")
            expected = brute_force_edges(wit.weights, wit.intervals)
            assert realize(wit).edges() == expected, (label, wit)
            assert stars_mod.realized_edge_count(wit, len(expected)) == len(expected)
            realized = set(expected)
            report = verify(wit, g)
            assert list(report.missing) == sorted(set(g.edges()) - realized), (label, wit)
            assert list(report.extra) == sorted(realized - set(g.edges())), (label, wit)
            assert report.equal == (realized == set(g.edges()))
            if label in ("cycle", "path", "grid", "universal"):
                assert report.equal, (label, wit)
            seen.add((label, bool(expected)))
        assert {("narrow", True), ("narrow", False), ("all-equal", True), ("outside", False),
                ("low-start", True), ("tiny", True), ("tiny", False)} <= seen

    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_a_count_over_the_limit_overshoots_by_at_most_one_block(self, walk, monkeypatch):
        monkeypatch.setattr(stars_mod, "_INTERVAL_WALK_SPAN", self.WALKS[walk])
        rng = random.Random(101)
        witnesses = [Witness((0,) * 50, ((0, 0),)), cycle_witness(60), grid_witness(9, 9)]
        witnesses += [Witness(random_weights(rng, 40, 20), ((5, 9), (15, 22), (30, 31))) for _ in range(5)]
        for wit in witnesses:
            total = len(brute_force_edges(wit.weights, wit.intervals))
            for limit in (0, 1, total // 3, total - 1):
                assert limit < stars_mod.realized_edge_count(wit, limit) <= limit + wit.n - 1

    def test_the_span_rule_walks_constructions_by_interval_and_universal_witnesses_by_vertex(self):
        rng = random.Random(103)
        for wit in (cycle_witness(500), path_witness(600), grid_witness(30, 30)):
            assert isinstance(stars_mod._accepted_blocks(wit)[1], itertools.chain)
        for n in (120, 300):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05])
            assert not isinstance(stars_mod._accepted_blocks(universal_witness(g))[1], itertools.chain)


class TestRealizeThroughGraph:
    """`realize` passes its pairs to Graph, whose checks every realized graph must pass."""

    @staticmethod
    def _witnesses(rng):
        for _ in range(80):
            n = rng.randint(0, 30)
            w = random_weights(rng, n, rng.choice([3, n + 1, 4 * n + 1]))
            cuts = sorted(rng.sample(range(8 * n + 10), 2 * rng.randint(0, 4)))
            yield "random", Witness(w, tuple(zip(cuts[::2], cuts[1::2])))
        for _ in range(20):
            n, a = rng.randint(1, 30), rng.randint(0, 9)
            # the doubled weight lies inside the one interval: a complete graph
            lo, hi = max(0, 2 * a - rng.randint(0, 2)), 2 * a + rng.randint(0, 2)
            yield "all-equal", Witness((a,) * n, ((lo, hi),))
        for _ in range(20):
            yield "universal", universal_witness(random_graph(rng, n_min=1, n_max=30))

    def test_realized_graph_is_simple_and_rebuilds_equal(self):
        seen = set()
        for label, wit in self._witnesses(random.Random(79)):
            g = realize(wit)
            rebuilt = Graph(wit.n, g.edges())
            assert g == rebuilt and hash(g) == hash(rebuilt), (label, wit)
            assert g.edges() == brute_force_edges(wit.weights, wit.intervals)
            for u in range(g.n):
                assert u not in g.neighbors(u)
                assert all(0 <= v < g.n for v in g.neighbors(u))
            if label == "all-equal":
                assert g.num_edges == wit.n * (wit.n - 1) // 2
            seen.add((label, g.num_edges > 0))
        assert {("random", True), ("random", False), ("all-equal", True), ("universal", True)} <= seen


class TestUniversalWitness:
    def test_single_edge(self):
        wit = universal_witness(Graph(2, [(0, 1)]))
        assert wit.weights == (1, 2)
        assert wit.intervals == ((3, 3),)

    def test_edgeless(self):
        assert universal_witness(Graph(3)).k == 0

    def test_cycle_five(self):
        g = make_cycle(5)
        wit = universal_witness(g)
        assert wit.k == 5
        assert all(lo == hi for lo, hi in wit.intervals)
        assert verify(wit, g).equal

    def test_adjacent_singletons_stay_separate(self):
        # P_3 edge sums 3 and 6 with weights 1,2,4; a denser graph can make
        # consecutive sums, which must remain distinct singleton intervals
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        wit = universal_witness(g)
        assert wit.k == 3
        assert verify(wit, g).equal


class TestInducedClosure:
    def test_restricting_a_witness_tracks_induced_subgraphs(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_graph(rng, n_max=9)
            wit = universal_witness(g)
            size = rng.randint(1, g.n)
            keep = rng.sample(range(g.n), size)
            sub = induced_subgraph(g, keep)
            restricted = Witness(tuple(wit.weights[v] for v in keep), wit.intervals)
            assert verify(restricted, sub).equal
