"""End-to-end acceptance checks: pinned outputs, exact values, runtime caps.

Each test covers one externally visible guarantee and appends a PASS or FAIL
line to RESULTS; conftest echoes those lines in the terminal summary.  All
comparisons are exact, and caps are wall-clock bounds on the whole check.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest

from helpers import random_graph, random_weights
from naive_oracle import INFEASIBLE, naive_min_intervals
from starpcg.constructions import cycle_witness, grid2_witness, grid_square_witness, grid_witness
from starpcg.graphs import GridShape, induced_subgraph, make_cycle, make_grid
from starpcg.obstruction import (
    check_certificate,
    cycle_star1_obstruction,
    grid4d_certificate,
    interleaving_certificate,
)
from starpcg.search import SearchConfig, search_min_k
from starpcg.stars import Feasible, Infeasible, min_intervals_for_weights, universal_witness, verify

RESULTS: list[str] = []


@contextmanager
def criterion(num: int, description: str, cap_seconds: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if cap_seconds is not None and elapsed >= cap_seconds:
        RESULTS.append(
            f"criterion {num:2d} FAIL  {description} "
            f"[{elapsed:.2f}s over the {cap_seconds:g}s cap]"
        )
        pytest.fail(f"runtime {elapsed:.2f}s exceeded the {cap_seconds:g}s cap")
    note = f"{elapsed:.2f}s" + (f", cap {cap_seconds:g}s" if cap_seconds is not None else "")
    RESULTS.append(f"criterion {num:2d} PASS  {description} [{note}]")


@lru_cache(maxsize=1)
def suite4_data():
    """C_5 exhaustive scan at W=6, per-vector k=1 certificates, cycle oracles."""
    c5 = make_cycle(5)
    scan = search_min_k(c5, SearchConfig(max_weight=6))
    certs = []
    for vec in product(range(7), repeat=5):
        cert = interleaving_certificate(c5, vec, 1)
        if cert is not None:
            certs.append((c5, vec, cert))
    cycle_oracles = {}
    for n in range(5, 33):
        g = make_cycle(n)
        w = cycle_witness(n).weights
        cycle_oracles[n] = min_intervals_for_weights(g, w)
        certs.append((g, w, cycle_star1_obstruction(n, w)))
    return scan, cycle_oracles, certs


@lru_cache(maxsize=1)
def suite6_data():
    """1000 seeded weightings of the 3x3 grid with oracle outcomes and k=1 certs."""
    g33 = make_grid([3, 3])
    rng = random.Random(633)
    rows = []
    for _ in range(1000):
        w = tuple(rng.randint(0, 100) for _ in range(9))
        outcome = min_intervals_for_weights(g33, w)
        cert = interleaving_certificate(g33, w, 1)
        rows.append((w, outcome, cert))
    return g33, rows


@lru_cache(maxsize=1)
def suite7_data():
    """100 seeded distinct-weight vectors for the 3x3x3x3 grid with certificates."""
    g4 = make_grid([3, 3, 3, 3])
    rng = random.Random(7777)
    rows = []
    for _ in range(100):
        w = tuple(rng.sample(range(10**12), 81))
        cert = grid4d_certificate(w)
        outcome = min_intervals_for_weights(g4, w)
        rows.append((w, cert, outcome))
    return g4, rows


def test_criterion_01_cycles():
    with criterion(1, "cycle witnesses verify for n = 3..64; n = 7, 8 outputs pinned", 1.0):
        for n in range(3, 65):
            wit = cycle_witness(n)
            assert wit.k == 2, n
            assert verify(wit, make_cycle(n)).equal, n
        assert cycle_witness(8).weights == (12, 1, 11, 2, 10, 3, 9, 4)
        assert cycle_witness(8).intervals == ((12, 13), (16, 16))
        assert cycle_witness(7).weights == (8, 5, 10, 3, 12, 1, 6)
        assert cycle_witness(7).intervals == ((13, 15), (7, 7))


def test_criterion_02_two_column_grids():
    with criterion(2, "two-column grid witnesses verify with 1 interval for n1 = 1..64; n1 = 4 pinned", 1.0):
        for n1 in range(1, 65):
            wit = grid2_witness(n1)
            assert wit.k == 1, n1
            assert verify(wit, make_grid([n1, 2])).equal, n1
        assert grid2_witness(4).intervals == ((8, 10),)


def test_criterion_03_grids():
    with criterion(3, "grid witnesses verify with 2 intervals for h = 2..16 and 3 <= n1, n2 <= 12; 4x4 pinned", 5.0):
        for h in range(2, 17):
            wit = grid_square_witness(h)
            assert wit.k == 2, h
            assert verify(wit, make_grid([h, h])).equal, h
        for n1 in range(3, 13):
            for n2 in range(3, 13):
                wit = grid_witness(n1, n2)
                assert wit.k == 2, (n1, n2)
                assert verify(wit, make_grid([n1, n2])).equal, (n1, n2)
        assert grid_witness(4, 4).intervals == ((24, 25), (29, 30))


def test_criterion_04_c5_needs_two():
    with criterion(4, "exhaustive C_5 scan at W = 6: no 1-interval vector, 2 attained; cycle weights need exactly 2", 60.0):
        scan, cycle_oracles, _ = suite4_data()
        assert scan.exhaustive_within_bound
        assert scan.explored == 7**5
        assert scan.k_histogram.get(1, 0) == 0
        assert scan.best_k == 2
        for n, outcome in cycle_oracles.items():
            assert isinstance(outcome, Feasible) and outcome.k == 2, n


def test_criterion_05_small_cycles_need_one():
    with criterion(5, "exhaustive scans confirm 1 interval for C_3 at W = 4 and C_4 at W = 6", 30.0):
        for n, bound in ((3, 4), (4, 6)):
            result = search_min_k(make_cycle(n), SearchConfig(max_weight=bound))
            assert result.exhaustive_within_bound
            assert result.best_k == 1, n


def test_criterion_06_grid33_never_one_interval():
    with criterion(6, "1000 seeded weightings of the 3x3 grid never fit a single interval", 10.0):
        _, rows = suite6_data()
        assert len(rows) == 1000
        for w, outcome, _ in rows:
            assert not (isinstance(outcome, Feasible) and outcome.k == 1), w


def test_criterion_11_grids_never_one_interval():
    # An induced subgraph of a star-1 graph is star-1, and the ring around the
    # top-left 3x3 block induces C_8, so every weighting of a grid with
    # min(n1, n2) >= 3 gets a cycle certificate on the ring.  The 2 x n ladders
    # are star-1, so the claim needs both sides at least 3.
    with criterion(11, "every weighting of an n1 x n2 grid, min(n1, n2) >= 3, has a ring certificate against 1 interval", 10.0):
        shapes = [(n1, n2) for n1 in range(3, 7) for n2 in range(3, 7)] + [(3, 40), (40, 3), (12, 12)]
        rng = random.Random(1111)
        checked = 0
        for n1, n2 in shapes:
            grid = make_grid([n1, n2])
            ring = (0, 1, 2, n2 + 2, 2 * n2 + 2, 2 * n2 + 1, 2 * n2, n2)
            assert induced_subgraph(grid, ring) == make_cycle(8), (n1, n2)
            for top in (None, 3, 100, 10**12):
                for _ in range(50):
                    if top is None:
                        w = [rng.randint(0, 10**12)] * grid.n
                    else:
                        w = [rng.randint(0, top) for _ in range(grid.n)]
                    cert = cycle_star1_obstruction(8, [w[r] for r in ring])
                    cert = replace(
                        cert, x=ring[cert.x], vs=tuple(ring[v] for v in cert.vs), us=tuple(ring[u] for u in cert.us)
                    )
                    check_certificate(cert, grid, w)
                    outcome = min_intervals_for_weights(grid, w)
                    assert not (isinstance(outcome, Feasible) and outcome.k <= 1), (n1, n2, w)
                    checked += 1
        assert checked == 3800
        for n in (3, 4, 8):
            wit = grid_witness(2, n)
            assert wit.k == 1 and verify(wit, make_grid([2, n])).equal, n


def test_criterion_12_grids_with_three_axes_never_one_interval():
    # On three axes of size >= 2, with every other coordinate at 0, the six
    # cells of the unit cube off its main diagonal induce C_6.  So every
    # weighting of a grid with three such axes gets a cycle certificate on
    # that hexagon, and the cube Q3 = 2x2x2 needs exactly two intervals.
    with criterion(12, "every weighting of a grid with three sizes >= 2 has a hexagon certificate against 1 interval; 2x2x2 attains 2", 10.0):
        shapes = [*product((2, 3), repeat=3)]
        shapes += [s for s in product((1, 2, 3), repeat=4) if sum(m >= 2 for m in s) >= 3]
        rng = random.Random(1212)
        checked = 0
        for dims in shapes:
            shape = GridShape(dims)
            grid = make_grid(shape)
            a, b, c = [j for j, m in enumerate(dims) if m >= 2][:3]
            hexagon = []
            for x, y, z in ((0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1)):
                coord = [0] * len(dims)
                coord[a], coord[b], coord[c] = x, y, z
                hexagon.append(shape.flat_id(tuple(coord)))
            assert induced_subgraph(grid, hexagon) == make_cycle(6), dims
            for top in (None, 3, 100, 10**12):
                for _ in range(50):
                    if top is None:
                        w = [rng.randint(0, 10**12)] * grid.n
                    else:
                        w = [rng.randint(0, top) for _ in range(grid.n)]
                    cert = cycle_star1_obstruction(6, [w[h] for h in hexagon])
                    cert = replace(
                        cert, x=hexagon[cert.x], vs=tuple(hexagon[v] for v in cert.vs), us=tuple(hexagon[u] for u in cert.us)
                    )
                    check_certificate(cert, grid, w)
                    outcome = min_intervals_for_weights(grid, w)
                    assert not (isinstance(outcome, Feasible) and outcome.k <= 1), (dims, w)
                    checked += 1
        assert checked == 200 * len(shapes) == 11200
        cube = make_grid((2, 2, 2))
        found = search_min_k(cube, SearchConfig(max_weight=9, target_k=2))
        assert found.best_k == 2
        wit = found.best_witness
        assert (wit.weights, wit.intervals) == ((0, 6, 7, 1, 8, 2, 3, 9), ((6, 8), (10, 12)))
        assert verify(wit, cube).equal
        assert min_intervals_for_weights(cube, wit.weights) == Feasible(k=2, intervals=wit.intervals)
        assert search_min_k(cube, SearchConfig(max_weight=8)).best_k == 3


def test_criterion_07_grid4d_certificates():
    with criterion(7, "100 seeded weightings of the 3x3x3x3 grid yield checked certificates; oracle >= 3", 30.0):
        g4, rows = suite7_data()
        assert len(rows) == 100
        for w, cert, outcome in rows:
            check_certificate(cert, g4, w)
            assert cert.k == 2
            assert isinstance(outcome, Feasible) and outcome.k >= 3


def test_criterion_08_universal_witness():
    with criterion(8, "universal witness verifies with one singleton per edge on 100 seeded graphs, n <= 10", 5.0):
        rng = random.Random(88)
        for _ in range(100):
            g = random_graph(rng, 1, 10)
            wit = universal_witness(g)
            assert wit.k == len(g.edges())
            assert verify(wit, g).equal


def test_criterion_09_oracle_vs_naive():
    with criterion(9, "oracle agrees with naive enumeration on 30 seeded graphs (n <= 6) x 200 weightings", 60.0):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng, 1, 6)
            for _ in range(200):
                w = random_weights(rng, g.n, 10)
                outcome = min_intervals_for_weights(g, w)
                naive = naive_min_intervals(g, w)
                if isinstance(outcome, Infeasible):
                    assert naive is INFEASIBLE, (g.to_dict(), w)
                else:
                    assert naive == outcome.k, (g.to_dict(), w)


def test_criterion_10_certificates_bound_oracle():
    with criterion(10, "every certificate from the scan suites implies oracle >= k + 1", None):
        _, _, certs4 = suite4_data()
        g33, rows6 = suite6_data()
        g4, rows7 = suite7_data()
        triples = list(certs4)
        triples += [(g33, w, cert) for w, _, cert in rows6 if cert is not None]
        triples += [(g4, w, cert) for w, cert, _ in rows7]
        assert len(triples) > 1000
        violations = 0
        for g, w, cert in triples:
            check_certificate(cert, g, w)
            outcome = min_intervals_for_weights(g, w)
            if isinstance(outcome, Feasible) and outcome.k < cert.k + 1:
                violations += 1
        assert violations == 0
