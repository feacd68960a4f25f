"""Closed-form witnesses (pinned small cases, routing, error guards) and pinned 3D and 4D grid witnesses."""

import tracemalloc

import pytest

from starpcg.constructions import (
    _construction,
    cycle_witness,
    grid2_witness,
    grid_square_witness,
    grid_witness,
    path_witness,
)
from starpcg.graphs import GridShape, make_cycle, make_grid, make_path
from starpcg.stars import Feasible, Witness, min_intervals_for_weights, realize, verify

from helpers import NOT_INTS


class TestCycle:
    def test_triangle(self):
        wit = cycle_witness(3)
        assert wit.weights == (4, 1, 2)
        assert wit.intervals == ((5, 7), (3, 3))
        assert realize(wit) == make_cycle(3)

    def test_even_golden(self):
        wit = cycle_witness(8)
        assert wit.weights == (12, 1, 11, 2, 10, 3, 9, 4)
        assert wit.intervals == ((12, 13), (16, 16))

    def test_odd_golden(self):
        wit = cycle_witness(7)
        assert wit.weights == (8, 5, 10, 3, 12, 1, 6)
        assert wit.intervals == ((13, 15), (7, 7))

    def test_too_small(self):
        with pytest.raises(ValueError, match="n must be an integer >= 3"):
            cycle_witness(2)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n must be an integer >= 3"):
                cycle_witness(bad)


class TestPath:
    def test_four(self):
        wit = path_witness(4)
        assert wit.weights == (8, 2, 6, 4)
        assert wit.intervals == ((8, 10),)
        assert realize(wit) == make_path(4)

    def test_two(self):
        wit = path_witness(2)
        assert wit.weights == (4, 2)
        assert wit.intervals == ((4, 6),)

    def test_single_vertex_is_edgeless(self):
        assert realize(path_witness(1)) == make_path(1)

    def test_is_the_two_column_ladders_first_column(self):
        for n in range(1, 51):
            assert path_witness(n).weights == grid2_witness(n).weights[::2], n

    def test_too_small(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            path_witness(0)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                path_witness(bad)


class TestGridTwoColumns:
    def test_four_rows(self):
        wit = grid2_witness(4)
        assert wit.weights == (8, 1, 2, 7, 6, 3, 4, 5)
        assert wit.intervals == ((8, 10),)

    def test_one_row(self):
        wit = grid2_witness(1)
        assert wit.weights == (2, 1)
        assert wit.intervals == ((2, 4),)
        assert realize(wit) == make_grid([1, 2])

    def test_ten_rows_realize(self):
        assert realize(grid2_witness(10)) == make_grid([10, 2])

    def test_too_small(self):
        with pytest.raises(ValueError, match="n1 must be an integer >= 1"):
            grid2_witness(0)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n1 must be an integer >= 1"):
                grid2_witness(bad)


class TestGridSquare:
    def test_four_intervals_pinned(self):
        assert grid_square_witness(4).intervals == ((24, 25), (29, 30))

    def test_four_corner_weights(self):
        weights = grid_square_witness(4).weights
        # row-major flat ids: (0,0) -> 0, (0,1) -> 1, (1,0) -> 4
        assert weights[0] == 29
        assert weights[1] == 0
        assert weights[4] == 1

    def test_all_weights_non_negative(self):
        for h in range(1, 17):
            assert min(grid_square_witness(h).weights) >= 0, h

    def test_too_small(self):
        with pytest.raises(ValueError, match="h must be an integer >= 1"):
            grid_square_witness(0)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="h must be an integer >= 1"):
                grid_square_witness(bad)


class TestGridRouting:
    def test_single_row_or_column_uses_path(self):
        assert grid_witness(1, 6) == path_witness(6)
        assert grid_witness(6, 1) == path_witness(6)

    def test_two_columns_direct(self):
        assert grid_witness(5, 2) == grid2_witness(5)

    def test_two_rows_transposed(self):
        wit = grid_witness(2, 5)
        assert wit.k == 1
        assert verify(wit, make_grid([2, 5])).equal

    def test_every_ladder_layout_verifies(self):
        # the path, the two-column grid and their transposes are one ladder rule,
        # which the reference layouts below share, so each is checked on its own
        for n in range(1, 65):
            assert verify(path_witness(n), make_path(n)).equal, n
        for m in range(1, 33):
            for shape in ((m, 1), (1, m), (m, 2), (2, m)):
                wit = grid_witness(*shape)
                assert wit.k == 1 and verify(wit, make_grid(list(shape))).equal, shape

    def test_rectangle_restricts_the_square(self):
        wit = grid_witness(3, 5)
        square = grid_square_witness(5)
        assert wit.intervals == square.intervals
        assert wit.weights == tuple(
            square.weights[i * 5 + j] for i in range(3) for j in range(5)
        )
        assert verify(wit, make_grid([3, 5])).equal

    def test_every_small_shape_matches_the_reference_layouts(self):
        # the four layouts as first written: a path for one row or column, the
        # two-column witness, its transpose for two rows, and the h x h square
        # witness restricted to the requested rows and columns
        def reference(n1, n2):
            fields = {"n1": n1, "n2": n2}
            if min(n1, n2) == 1:
                return "path", fields, path_witness(max(n1, n2))
            if n2 == 2:
                return "grid-two-columns", fields, grid2_witness(n1)
            if n1 == 2:
                base = grid2_witness(n2)
                weights = tuple(base.weights[j * 2 + i] for i in range(2) for j in range(n2))
                return "grid-two-columns", fields, Witness(weights, base.intervals)
            h = max(n1, n2)
            full = grid_square_witness(h)
            name = "grid-square" if n1 == n2 else "grid-square-restricted"
            weights = tuple(full.weights[i * h + j] for i in range(n1) for j in range(n2))
            return name, {"h": h, **fields}, Witness(weights, full.intervals)

        for n1 in range(1, 16):
            for n2 in range(1, 16):
                got, want = _construction("grid", (n1, n2)), reference(n1, n2)
                # the field order is the order of the CLI record's keys
                assert (got[0], list(got[1].items())) == (want[0], list(want[1].items()))
                assert got[2] == want[2], (n1, n2)

    @pytest.mark.parametrize("sizes", [(3, 1000), (1000, 3)])
    def test_thin_rectangle_builds_only_its_cells(self, sizes):
        # the 1000 x 1000 square witness alone would hold 10^6 weights
        tracemalloc.start()
        try:
            grid_witness(*sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_too_small(self):
        with pytest.raises(ValueError, match=">= 1"):
            grid_witness(0, 3)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n1 must be an integer >= 1"):
                grid_witness(bad, 3)
            with pytest.raises(ValueError, match="n2 must be an integer >= 1"):
                grid_witness(3, bad)

    @pytest.mark.parametrize("sizes", [(5,), (2, 2, 2)])
    def test_only_two_dimensions(self, sizes):
        with pytest.raises(ValueError) as info:
            _construction("grid", sizes)
        assert str(info.value) == "witness generation supports grids with exactly two dimensions"


def _two_colour_linear(dims, c, base=1000):
    """Weights c.x on the cells whose coordinates sum to an even number, base - c.x on the rest."""
    weights = []
    for x in GridShape(dims).coords():
        cx = sum(a * b for a, b in zip(c, x))
        weights.append(cx if sum(x) % 2 == 0 else base - cx)
    return tuple(weights)


class TestHigherDimensionalWitnesses:
    """Upper bounds for 3D and 4D grids, which grid_witness does not build yet."""

    def test_2x2x3_takes_two_intervals(self):
        # with criterion 12's hexagon certificate, 2x2x3 needs exactly 2
        grid = make_grid((2, 2, 3))
        wit = Witness((9, 15, 1, 13, 3, 21, 12, 6, 16, 4, 18, 0), ((16, 18), (21, 24)))
        assert verify(wit, grid).equal
        assert min_intervals_for_weights(grid, wit.weights) == Feasible(k=2, intervals=wit.intervals)

    def test_2x3x3_linear_weights(self):
        assert _two_colour_linear((2, 3, 3), (1, 2, 7)) == (
            0, 993, 14, 998, 9, 984, 4, 989, 18, 999, 8, 985, 3, 990, 17, 995, 12, 981,
        )

    def test_2x2xn_linear_weights_take_three_intervals(self):
        # c.x is injective on 2x2xn.  An opposite-parity pair sums to base + c.(x - x'),
        # which is base +- 1, 2 or 7 exactly on grid edges and otherwise base +- 4, 6,
        # 8, 10 or at least 12 away.  Same-parity sums stay at most 14n - 8 or at
        # least 2 base - 14n + 8, outside [base - 7, base + 7] once base >= 14n: base
        # 1000 holds while n <= 71, and base 14n for every n
        for n, base in [*((n, 1000) for n in range(2, 65)), (72, 14 * 72), (500, 14 * 500)]:
            intervals = ((base - 7, base - 7), (base - 2, base + 2), (base + 7, base + 7))
            grid = make_grid((2, 2, n))
            weights = _two_colour_linear((2, 2, n), (1, 2, 7), base)
            assert verify(Witness(weights, intervals), grid).equal, n
            assert min_intervals_for_weights(grid, weights) == Feasible(k=3, intervals=intervals), n

    @pytest.mark.parametrize(
        "dims, c, intervals",
        [
            ((2, 3, 3), (1, 2, 7), ((993, 993), (998, 1002), (1007, 1007))),
            ((3, 3, 3), (1, 2, 9), ((991, 991), (998, 999), (1001, 1002), (1009, 1009))),
            ((2, 2, 2, 2), (1, 2, 6, 12), ((988, 988), (994, 994), (998, 1002), (1006, 1006), (1012, 1012))),
            (
                (3, 3, 3, 3),
                (2, 17, 25, 26),
                ((974, 975), (983, 983), (998, 998), (1002, 1002), (1017, 1017), (1025, 1026)),
            ),
            ((4, 4, 4), (6, 10, 11), ((989, 990), (994, 994), (1006, 1006), (1010, 1011))),
        ],
    )
    def test_linear_two_colour_family(self, dims, c, intervals):
        grid = make_grid(dims)
        weights = _two_colour_linear(dims, c)
        assert min_intervals_for_weights(grid, weights) == Feasible(k=len(intervals), intervals=intervals)
        assert verify(Witness(weights, intervals), grid).equal
