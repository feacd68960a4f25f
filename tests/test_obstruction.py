"""Interleaving certificates, the cycle obstruction, and the 4-d grid certificate."""

import itertools
import random
import time
from dataclasses import replace

import pytest

from starpcg import (
    Certificate,
    CertificateError,
    Feasible,
    Graph,
    GridShape,
    Infeasible,
    KIND_INTERLEAVING,
    check_certificate,
    cycle_star1_obstruction,
    cycle_witness,
    grid4d_certificate,
    interleaving_certificate,
    make_cycle,
    make_grid,
    make_path,
    min_intervals_for_weights,
)
import starpcg.obstruction as obstruction_mod

from helpers import random_graph, random_weights

SHAPE = GridShape((3, 3, 3, 3))
GRID4 = make_grid(SHAPE)
CENTER = SHAPE.flat_id((1, 1, 1, 1))

# flat ids of the center's neighbors, keyed to a chosen weight ranking
RANKED_NEIGHBORS = {
    39: 10,  # (1,1,1,0)
    13: 20,  # (0,1,1,1)
    37: 30,  # (1,1,0,1)
    31: 40,  # (1,0,1,1)
    49: 50,  # (1,2,1,1)
    43: 60,  # (1,1,2,1)
    41: 70,  # (1,1,1,2)
    67: 80,  # (2,1,1,1)
}


def _grid4_weights(overrides: dict[int, int]) -> tuple[int, ...]:
    """Distinct weights 1000+id everywhere, with explicit overrides."""
    w = [1000 + v for v in range(81)]
    for fid, val in {**RANKED_NEIGHBORS, **overrides}.items():
        w[fid] = val
    return tuple(w)


# only the center can pivot here, against all 72 vertices outside its neighborhood
CENTER_STAR = Graph(81, [(CENTER, v) for v in GRID4.neighbors(CENTER)])


def _center_interleaves(weights) -> bool:
    return interleaving_certificate(CENTER_STAR, weights, 2) is not None


def _pivot_defeating_weights(rng: random.Random, pivot: int) -> tuple[int, ...]:
    """Distinct ranked weights on the pivot's neighbors; the rest avoid the band.

    Every other vertex lands below the band, above it, or strictly inside one
    chosen gap between consecutive ranks, so the pivot rarely interleaves.
    Only a tie with the band's lowest or highest weight can let it succeed.
    """
    degree = len(GRID4.neighbors(pivot))
    band = sorted(rng.sample(range(60, 960, 10), degree))
    ranked = rng.sample(sorted(GRID4.neighbors(pivot)), degree)
    gap = rng.choice([None, *range(1, degree)])
    places = ("below", "above") + (("gap",) if gap else ())
    w = [0] * 81
    for v, b in zip(ranked, band):
        w[v] = b
    for v in sorted(set(range(81)) - set(ranked)):
        place = rng.choice(places)
        if place == "below":
            w[v] = rng.randint(0, band[0])
        elif place == "above":
            w[v] = rng.randint(band[-1], 1000)
        else:
            w[v] = rng.randint(band[gap - 1] + 1, band[gap] - 1)
    return tuple(w)


def _assert_generic_search(weights) -> None:
    """The result is the lowest pivot that interleaves, here past the defeated center."""
    cert = grid4d_certificate(weights)
    assert cert == interleaving_certificate(GRID4, weights, 2)
    assert cert.x != CENTER
    check_certificate(cert, GRID4, weights)


def _oracle_needs_at_least(graph, weights, k):
    res = min_intervals_for_weights(graph, weights)
    return isinstance(res, Infeasible) or res.k >= k


class TestInterleavingCertificate:
    def test_ascending_cycle_example(self):
        g = make_cycle(5)
        cert = interleaving_certificate(g, (1, 2, 3, 4, 5), 1)
        assert cert == Certificate(KIND_INTERLEAVING, 0, (1, 4), (2,), 1)
        check_certificate(cert, g, (1, 2, 3, 4, 5))

    def test_triangle_has_no_non_neighbors(self):
        assert interleaving_certificate(make_cycle(3), (4, 1, 2), 1) is None

    def test_sampled_4d_grid_weighting(self):
        rng = random.Random(3)
        w = tuple(rng.sample(range(10**6), 81))
        cert = interleaving_certificate(GRID4, w, 2)
        assert cert is not None and cert.k == 2
        check_certificate(cert, GRID4, w)

    def test_weight_ties_allowed(self):
        g = make_cycle(5)
        cert = interleaving_certificate(g, (1, 1, 1, 1, 1), 1)
        assert cert is not None
        check_certificate(cert, g, (1, 1, 1, 1, 1))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            interleaving_certificate(make_cycle(5), (1, 2, 3, 4, 5), 0)

    def test_rejects_bool_k(self):
        # True would otherwise pass as k = 1 and return a certificate whose
        # k check_certificate refuses
        with pytest.raises(ValueError, match="k must be an integer"):
            interleaving_certificate(make_cycle(6), (0, 1, 5, 2, 3, 4), True)

    def test_rejects_non_int_k(self):
        # 1.5 would otherwise return None, which reads as "no certificate"
        with pytest.raises(ValueError, match="k must be an integer"):
            interleaving_certificate(make_cycle(6), (0, 1, 5, 2, 3, 4), 1.5)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            interleaving_certificate(make_cycle(5), (1, 2, 3), 1)

    def test_certificate_implies_oracle_bound(self):
        # any returned certificate forces strictly more than k intervals
        rng = random.Random(41)
        found = 0
        for _ in range(500):
            g = random_graph(rng, n_min=2, n_max=10)
            w = random_weights(rng, g.n, rng.choice([6, 12, 30]))
            k = rng.randint(1, 3)
            cert = interleaving_certificate(g, w, k)
            if cert is None:
                continue
            found += 1
            check_certificate(cert, g, w)
            assert _oracle_needs_at_least(g, w, k + 1), (g.to_dict(), w, k)
        assert found > 100  # the sample genuinely exercises the implication

    def test_matches_brute_force_chain_search(self):
        # the greedy chain is complete: it misses no pivot that has any chain
        def has_chain(g, w, x, k):
            nb = g.neighbors(x)
            non = [u for u in range(g.n) if u != x and u not in nb]

            def extend(chain):
                if len(chain) == 2 * k + 1:
                    return True
                pool = non if len(chain) % 2 else nb
                return any(
                    extend(chain + [c])
                    for c in pool
                    if c not in chain and (not chain or w[chain[-1]] <= w[c])
                )

            return extend([])

        rng = random.Random(77)
        found = 0
        for _ in range(300):
            g = random_graph(rng, n_max=8)
            w = random_weights(rng, g.n, rng.choice([1, 2, 3]))
            for k in (1, 2, 3):
                first = next((x for x in range(g.n) if has_chain(g, w, x, k)), None)
                cert = interleaving_certificate(g, w, k)
                if first is None:
                    assert cert is None, (g.to_dict(), w, k)
                else:
                    assert cert is not None and cert.x == first, (g.to_dict(), w, k)
                    check_certificate(cert, g, w)
                    found += 1
        assert found > 100

    def test_long_path_scan_is_fast(self):
        # ascending weights: no pivot interleaves, so every pivot is scanned
        start = time.perf_counter()
        assert interleaving_certificate(make_path(10_000), tuple(range(10_000)), 1) is None
        assert time.perf_counter() - start < 5


class TestCheckCertificate:
    def setup_method(self):
        self.g = make_cycle(5)
        self.w = (1, 2, 3, 4, 5)
        self.good = Certificate(KIND_INTERLEAVING, 0, (1, 4), (2,), 1)

    def test_accepts_valid(self):
        check_certificate(self.good, self.g, self.w)

    def test_rejects_unknown_kind(self):
        # the second is the retired cycle kind, refused like any other
        for bad in (
            Certificate("made-up", 0, (1, 4), (2,), 1),
            Certificate("cycle-triangle-free", 1, (0, 2), (), 1),
        ):
            with pytest.raises(CertificateError, match="unknown certificate kind"):
                check_certificate(bad, self.g, self.w)

    def test_rejects_non_neighbor_in_vs(self):
        bad = Certificate(KIND_INTERLEAVING, 0, (2, 4), (3,), 1)
        with pytest.raises(CertificateError, match="not a neighbor"):
            check_certificate(bad, self.g, self.w)

    def test_rejects_neighbor_in_us(self):
        bad = Certificate(KIND_INTERLEAVING, 0, (1, 4), (1,), 1)
        with pytest.raises(CertificateError, match="repeated|outside"):
            check_certificate(bad, self.g, self.w)

    def test_rejects_repeated_vertices(self):
        # each would interleave if a vertex could stand in twice
        star = Graph(5, [(0, 1), (0, 2), (0, 3)])
        for bad, graph, weights in (
            (Certificate(KIND_INTERLEAVING, 0, (1, 1), (2,), 1), self.g, (1, 3, 3, 4, 5)),
            (Certificate(KIND_INTERLEAVING, 0, (1, 2, 3), (4, 4), 2), star, (0, 1, 2, 3, 2)),
        ):
            with pytest.raises(CertificateError, match="repeated vertex in vs or us"):
                check_certificate(bad, graph, weights)

    def test_rejects_pivot_in_us(self):
        bad = Certificate(KIND_INTERLEAVING, 1, (0, 2), (1,), 1)
        with pytest.raises(CertificateError):
            check_certificate(bad, self.g, self.w)

    def test_rejects_broken_interleaving(self):
        # a break at a neighbor shows the position's three weights, a break at
        # a separator the two read so far, since the next neighbor is unchecked
        for bad, shown in (
            (Certificate(KIND_INTERLEAVING, 2, (3, 1), (4,), 1), "4, 5, 2"),
            (Certificate(KIND_INTERLEAVING, 0, (4, 1), (2,), 1), "5, 3"),
        ):
            with pytest.raises(CertificateError, match=f"^weights do not interleave at position 0: {shown}$"):
                check_certificate(bad, self.g, self.w)

    def test_rejects_wrong_counts(self):
        bad = Certificate(KIND_INTERLEAVING, 0, (1, 4), (2,), 2)
        with pytest.raises(CertificateError, match="k\\+1"):
            check_certificate(bad, self.g, self.w)

    def test_rejects_low_k(self):
        bad = Certificate(KIND_INTERLEAVING, 0, (1,), (), 0)
        with pytest.raises(CertificateError):
            check_certificate(bad, self.g, self.w)

    def test_rejects_out_of_range_pivot(self):
        bad = Certificate(KIND_INTERLEAVING, 9, (1, 4), (2,), 1)
        with pytest.raises(CertificateError, match="pivot 9 out of range"):
            check_certificate(bad, self.g, self.w)
        # a separator past the last vertex is no neighbor, so only the range
        # check keeps it from the weight lookup
        for u in (99, 5):
            bad = Certificate(KIND_INTERLEAVING, 0, (1, 4), (u,), 1)
            with pytest.raises(CertificateError, match=f"separator {u} out of range"):
                check_certificate(bad, self.g, self.w)

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(CertificateError):
            check_certificate(self.good, self.g, (1, 2, 3))

    @pytest.mark.parametrize("bad", [True, -1])
    def test_rejects_bool_and_negative_weights(self, bad):
        with pytest.raises(CertificateError, match=f"weight 3 must be a non-negative integer, got {bad}"):
            check_certificate(self.good, self.g, (1, 2, 3, bad, 5))

    def test_json_round_trip(self):
        d = self.good.to_dict()
        assert d == {"kind": "interleaving", "x": 0, "vs": [1, 4], "us": [2], "k": 1}
        assert Certificate.from_dict(d) == self.good
        with pytest.raises(ValueError, match="malformed certificate JSON: 'x'"):
            Certificate.from_dict({"kind": "interleaving"})

    @pytest.mark.parametrize("obj", [[1, 2], "interleaving", 5, None])
    def test_non_object_json_names_the_expected_shape(self, obj):
        # a list once leaked "list indices must be integers or slices, not str"
        with pytest.raises(ValueError, match=r'^certificate JSON must be \{"kind": \.\.\., "x"'):
            Certificate.from_dict(obj)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"kind": "interleaving", "x": False, "vs": [True, 4], "us": [2], "k": True}, "x"),
            ({"kind": "interleaving", "x": "0", "vs": [1, 4], "us": [2], "k": 1}, "x"),
            ({"kind": "interleaving", "x": 0, "vs": [1.0, 4], "us": [2], "k": 1}, "vs"),
            ({"kind": "interleaving", "x": 0, "vs": [1, 4], "us": [-1], "k": 1}, "us"),
        ],
    )
    def test_non_int_fields_are_rejected(self, payload, field):
        # all four once passed from_dict; the bool one and the negative one
        # (read as w[-1], the weight of neighbor 4) also passed the check, the
        # other two escaped it as a bare TypeError
        with pytest.raises(CertificateError, match=field):
            Certificate.from_dict(payload)
        cert = Certificate(
            payload["kind"], payload["x"], tuple(payload["vs"]), tuple(payload["us"]), payload["k"]
        )
        with pytest.raises(CertificateError, match=field):
            check_certificate(cert, self.g, self.w)

    @pytest.mark.parametrize("chain", [5, "12", {"1": 2}, None])
    @pytest.mark.parametrize("name", ["vs", "us"])
    def test_non_list_chains_are_rejected(self, name, chain):
        # from_dict once made a tuple of any iterable first: a string was split
        # into its characters, a dict gave its keys, and 5 or None escaped as
        # a plain ValueError instead of a CertificateError
        fields = {**self.good.to_dict(), name: chain}
        with pytest.raises(CertificateError, match=f"{name} must be a list of vertices"):
            check_certificate(Certificate(**fields), self.g, self.w)
        with pytest.raises(CertificateError, match=f"{name} must be a list of vertices"):
            Certificate.from_dict(fields)

    @pytest.mark.parametrize("field", ["k", "us"])
    def test_bool_k_and_bool_us_entry_are_rejected(self, field):
        d = self.good.to_dict()
        d[field] = True if field == "k" else [True]
        with pytest.raises(CertificateError, match=field):
            Certificate.from_dict(d)

    @staticmethod
    def _holds(cert, g, w) -> bool:
        """The certificate's claim re-derived: roles, ranges, distinctness, sorted chain weights."""
        x, vs, us, k = cert.x, list(cert.vs), list(cert.us), cert.k
        if k < 1 or not 0 <= x < g.n or len(vs) != k + 1 or len(us) != k:
            return False
        if len(set(vs + us)) != 2 * k + 1:
            return False
        if not all(v < g.n and g.has_edge(x, v) for v in vs):
            return False
        if not all(u < g.n and u != x and not g.has_edge(x, u) for u in us):
            return False
        chain = [w[vs[0]]]
        for u, v in zip(us, vs[1:]):
            chain += [w[u], w[v]]
        return chain == sorted(chain)

    @staticmethod
    def _mutants(rng, cert, n):
        """Mutated copies of cert; a swap or a move can still hold.

        A chain vertex swapped (possibly past the last vertex), the pivot moved,
        k changed, the ends of vs reversed, a separator repeated in place of
        another chain vertex or appended to us, and vs and us exchanged.
        """
        chain = [0] * (2 * cert.k + 1)
        chain[::2], chain[1::2] = cert.vs, cert.us
        swapped, repeated = list(chain), list(chain)
        swapped[rng.randrange(len(chain))] = rng.randrange(n + 2)  # possibly past the last vertex
        separator = rng.randrange(1, len(chain), 2)
        repeated[rng.choice([j for j in range(len(chain)) if j != separator])] = chain[separator]
        return [
            replace(cert, vs=tuple(swapped[::2]), us=tuple(swapped[1::2])),
            replace(cert, x=rng.choice([v for v in range(n + 1) if v != cert.x])),
            replace(cert, k=cert.k + rng.choice((-1, 1))),
            replace(cert, vs=(cert.vs[-1], *cert.vs[1:-1], cert.vs[0])),
            replace(cert, vs=tuple(repeated[::2]), us=tuple(repeated[1::2])),
            replace(cert, us=(*cert.us, chain[separator])),
            replace(cert, vs=cert.us, us=cert.vs),
        ]

    def test_accepts_exactly_what_a_rederivation_accepts(self):
        # the finder's certificates and mutated copies of each, over seeded graphs
        rng = random.Random(3232)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            g = random_graph(rng, n_min=3, n_max=12)
            w = random_weights(rng, g.n, rng.choice([2, 6, 3 * g.n]))
            for k in (1, 2, 3):
                cert = interleaving_certificate(g, w, k)
                if cert is None:
                    continue
                for case in [cert, *self._mutants(rng, cert, g.n)]:
                    expected = self._holds(case, g, w)
                    try:
                        check_certificate(case, g, w)
                    except CertificateError:
                        assert not expected, (g.to_dict(), w, case)
                    else:
                        assert expected, (g.to_dict(), w, case)
                    verdicts[expected] += 1
        # both answers are common, so neither side is checked vacuously
        assert verdicts[True] > 500 and verdicts[False] > 2000, verdicts


class TestCycleObstruction:
    def test_ascending_example(self):
        cert = cycle_star1_obstruction(5, (1, 2, 3, 4, 5))
        assert cert.kind == KIND_INTERLEAVING and cert.x == 0

    def test_spiky_example(self):
        w = (1, 10, 2, 10, 3)
        cert = cycle_star1_obstruction(5, w)
        check_certificate(cert, make_cycle(5), w)
        assert _oracle_needs_at_least(make_cycle(5), w, 2)

    def test_cycle_witness_weights(self):
        w = cycle_witness(8).weights
        cert = cycle_star1_obstruction(8, w)
        check_certificate(cert, make_cycle(8), w)
        res = min_intervals_for_weights(make_cycle(8), w)
        assert res == Feasible(2, ((12, 13), (16, 16)))

    def test_desk_scale_random_weightings(self):
        rng = random.Random(17)
        for n in range(5, 17):
            g = make_cycle(n)
            for _ in range(200):
                w = random_weights(rng, n, rng.choice([8, 100]))
                cert = cycle_star1_obstruction(n, w)
                check_certificate(cert, g, w)
                assert _oracle_needs_at_least(g, w, 2), (n, w)

    def test_rejects_small_cycles(self):
        with pytest.raises(ValueError):
            cycle_star1_obstruction(4, (1, 2, 3, 4))

    def test_rejects_non_int_n(self):
        with pytest.raises(ValueError, match="n must be an integer >= 5"):
            cycle_star1_obstruction(5.0, (1, 2, 3, 4, 5))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            cycle_star1_obstruction(5, (1, 2, 3))

    def test_flags_when_no_obstruction_applies(self, monkeypatch):
        monkeypatch.setattr(obstruction_mod, "_first_interleaving", lambda *a: None)
        # a scan that finds nothing is a fault, flagged instead of returned
        with pytest.raises(RuntimeError, match="unreachable"):
            cycle_star1_obstruction(6, (0, 9, 0, 9, 0, 9))

    @pytest.mark.parametrize("n", [5, 6])
    def test_every_weak_order_interleaves(self, n):
        # rank vectors in {0..n-1}^n cover every weak order of the n vertices
        for w in itertools.product(range(n), repeat=n):
            assert cycle_star1_obstruction(n, w).kind == KIND_INTERLEAVING, w

    def test_matches_the_generic_scan(self):
        # the i +- 1 mod n neighbor rule gives the certificate a built cycle gives
        rng = random.Random(41)
        for n in range(5, 41):
            for _ in range(20):
                w = random_weights(rng, n, rng.choice([3, 2 * n, 1000]))
                assert cycle_star1_obstruction(n, w) == interleaving_certificate(make_cycle(n), w, 1), w

    def test_builds_no_graph(self, monkeypatch):
        built = []
        init = Graph.__init__

        def recording_init(self, n, *args, **kwargs):
            built.append(n)
            init(self, n, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", recording_init)
        rng = random.Random(17)
        for n in (5, 40, 4099):
            cycle_star1_obstruction(n, random_weights(rng, n, 1000))
        assert built == []

    def test_a_neighbor_of_a_lightest_vertex_interleaves(self):
        # the two pivots of the proof in cycle_star1_obstruction's docstring
        rng = random.Random(29)
        for n in range(5, 41):
            for _ in range(50):
                w = random_weights(rng, n, rng.choice([3, n, 1000]))
                a = w.index(min(w))
                # each star keeps one pivot's cycle neighbours, and only that pivot can interleave
                pivots = ((a - 1) % n, (a + 1) % n)
                stars = [Graph(n, [(p, (p - 1) % n), (p, (p + 1) % n)]) for p in pivots]
                assert any(interleaving_certificate(star, w, 1) is not None for star in stars), w


class TestGrid4dCertificate:
    """The generic pivot scan, in id order, on a cached 3x3x3x3 grid."""

    def test_flat_id_weighting(self):
        w = tuple(range(81))
        cert = grid4d_certificate(w)
        assert cert.k == 2
        check_certificate(cert, GRID4, w)

    def test_case_no_gap(self):
        # all outside weights clear the ranked neighbor band upward
        _assert_generic_search(_grid4_weights({}))

    def test_case_low_gap(self):
        # one outside weight falls between the two lightest ranked neighbors
        _assert_generic_search(_grid4_weights({80: 15}))

    def test_case_middle_gap(self):
        _assert_generic_search(_grid4_weights({80: 35}))

    def test_case_high_gap_mirrors(self):
        # the occupied gap sits in the upper half of the ranked band
        _assert_generic_search(_grid4_weights({80: 55}))

    def test_tied_neighbors_fall_back(self):
        _assert_generic_search(_grid4_weights({39: 10, 13: 10}))

    def test_seeded_center_failing_weightings(self):
        rng = random.Random(7)
        draws, defeated = 300, 0
        for _ in range(draws):
            w = _pivot_defeating_weights(rng, CENTER)
            if _center_interleaves(w):
                continue
            defeated += 1
            _assert_generic_search(w)
            if defeated % 10 == 0:
                assert _oracle_needs_at_least(GRID4, w, 3)
        assert defeated >= draws // 2

    def test_seeded_distinct_weightings(self):
        rng = random.Random(29)
        for _ in range(25):
            w = tuple(rng.sample(range(10**12), 81))
            cert = grid4d_certificate(w)
            assert cert.k == 2
            check_certificate(cert, GRID4, w)
            assert _oracle_needs_at_least(GRID4, w, 3)

    def test_seeded_pivot0_failing_weightings(self):
        # vertex 0's neighbours 1, 3, 9 and 27 hold the band, so the scan
        # usually runs past pivot 0 on the grid
        rng = random.Random(11)
        draws, moved = 200, 0
        for i in range(draws):
            w = _pivot_defeating_weights(rng, 0)
            cert = grid4d_certificate(w)
            assert cert == interleaving_certificate(GRID4, w, 2), w
            check_certificate(cert, GRID4, w)
            moved += cert.x > 0
            if i % 20 == 0:
                assert _oracle_needs_at_least(GRID4, w, 3)
        assert moved >= draws // 2

    def test_matches_a_fresh_scan(self):
        # the cached grid gives the certificate of the public scan on a freshly built grid
        grid = make_grid((3, 3, 3, 3))
        rng = random.Random(53)
        families = (
            lambda: random_weights(rng, 81, 4),
            lambda: tuple(rng.sample(range(10**12), 81)),
            lambda: _pivot_defeating_weights(rng, CENTER),
            lambda: _pivot_defeating_weights(rng, 0),
        )
        for draw in families:
            for _ in range(80):
                w = draw()
                cert = grid4d_certificate(w)
                assert cert == interleaving_certificate(grid, w, 2), w
                check_certificate(cert, grid, w)

    def test_flags_when_no_pivot_interleaves(self, monkeypatch):
        monkeypatch.setattr(obstruction_mod, "_first_interleaving", lambda *a: None)
        # a scan that finds nothing is flagged instead of guessed
        with pytest.raises(RuntimeError, match="flagging instead of guessing"):
            grid4d_certificate(_grid4_weights({}))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            grid4d_certificate((1, 2, 3))
