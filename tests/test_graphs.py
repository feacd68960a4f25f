"""Graph container, family generators, and grid geometry."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starpcg import (
    Graph,
    GridShape,
    induced_subgraph,
    make_cycle,
    make_grid,
    make_path,
)

from helpers import NOT_INTS, random_graph


def _assert_simple(graph: Graph) -> None:
    for u in range(graph.n):
        assert u not in graph.neighbors(u)
        for v in graph.neighbors(u):
            assert 0 <= v < graph.n
            assert u in graph.neighbors(v)


class TestGraph:
    def test_construction_and_accessors(self):
        g = Graph(4, [(0, 1), (1, 2), [2, 0]])
        assert g.n == 4
        assert g.num_edges == 3
        assert g.neighbors(1) == {0, 2}
        assert g.degree(3) == 0
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 3)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)
        with pytest.raises(ValueError, match="vertex count"):
            Graph(True)

    @pytest.mark.parametrize("edge", [1, [0], [0, 1, 2], "01", [0, True], [0, 1.0], None])
    def test_rejects_non_pair_edge(self, edge):
        with pytest.raises(ValueError, match="not a pair"):
            Graph(3, [edge])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"

    def test_json_round_trip(self):
        g = make_cycle(5)
        d = g.to_dict()
        assert d == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
        assert Graph.from_dict(d) == g

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError):
            Graph.from_dict({"n": 3})
        with pytest.raises(ValueError):
            Graph.from_dict([1, 2])
        with pytest.raises(ValueError):
            Graph.from_dict({"n": 3, "edges": 5})

    def test_to_dot(self):
        dot = Graph(2, [(0, 1)]).to_dot()
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot
        assert dot.rstrip().endswith("}")


class TestEdgeCache:
    """edges() and num_edges read endpoint arrays built once from the adjacency."""

    def test_edges_is_a_new_list_each_call(self):
        g = make_grid([3, 4])
        want = g.edges()
        grown, emptied = g.edges(), g.edges()
        assert grown is not emptied
        grown.append((0, 11))
        emptied.clear()
        assert g.edges() == want and g.num_edges == len(want) == 17
        assert g == make_grid([3, 4]) and hash(g) == hash(make_grid([3, 4]))

    def test_filled_cache_compares_like_a_fresh_graph(self):
        filled, fresh = make_cycle(7), make_cycle(7)
        filled.edges()
        assert fresh._ends is None and filled._ends is not None
        assert filled == fresh and hash(filled) == hash(fresh)
        assert len({filled, fresh}) == 1

    def test_matches_the_adjacency_reference(self):
        rng = random.Random(71)
        for _ in range(200):
            g = random_graph(rng, n_min=0, n_max=12)
            adj = [g.neighbors(u) for u in range(g.n)]
            assert g.edges() == [(u, v) for u in range(g.n) for v in sorted(adj[u]) if u < v]
            assert g.num_edges == sum(map(len, adj)) // 2


class TestFamilies:
    def test_cycle_triangle(self):
        g = make_cycle(3)
        assert set(g.edges()) == {(0, 1), (1, 2), (0, 2)}

    def test_cycle_degrees(self):
        g = make_cycle(4)
        assert g.num_edges == 4
        assert all(g.degree(u) == 2 for u in range(4))

    def test_cycle_eight(self):
        g = make_cycle(8)
        assert g.n == 8 and g.num_edges == 8

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            make_cycle(2)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n must be an integer >= 3"):
                make_cycle(bad)

    def test_path(self):
        assert make_path(1).num_edges == 0
        assert make_path(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(ValueError):
            make_path(0)
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                make_path(bad)

    def test_grid_4x2(self):
        g = make_grid([4, 2])
        assert g.n == 8 and g.num_edges == 10

    def test_grid_1d_is_path(self):
        assert make_grid([5]) == make_path(5)

    def test_grid_3333(self):
        g = make_grid([3, 3, 3, 3])
        assert g.n == 81 and g.num_edges == 216

    def test_grid_edge_count_formula(self):
        for dims in ((2, 3), (3, 3), (4, 5), (2, 2, 2), (3, 1, 4)):
            g = make_grid(dims)
            total = 0
            for j, nj in enumerate(dims):
                others = 1
                for l, nl in enumerate(dims):
                    if l != j:
                        others *= nl
                total += (nj - 1) * others
            assert g.num_edges == total

    def test_grid_degenerate_dimension(self):
        assert make_grid([1, 1, 1]).n == 1
        assert make_grid([1, 4]) == make_path(4)

    @pytest.mark.parametrize(
        "dims", [[1], [6], [1, 1], [1, 5], [5, 1], [2, 3], [4, 4], [2, 1, 3], [3, 3, 3, 3], [2, 3, 1, 2]]
    )
    def test_grid_matches_l1_distance_adjacency(self, dims):
        shape = GridShape(tuple(dims))
        coords = list(shape.coords())
        want = Graph(
            len(coords),
            [
                (u, v)
                for u in range(len(coords))
                for v in range(u + 1, len(coords))
                if sum(abs(a - b) for a, b in zip(coords[u], coords[v])) == 1
            ],
        )
        assert make_grid(dims) == want

    def test_grid_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            make_grid([])
        with pytest.raises(ValueError):
            GridShape(())

    def test_generated_graphs_are_simple(self):
        for g in (make_cycle(3), make_cycle(9), make_path(6), make_grid([3, 4]), make_grid([2, 2, 2])):
            _assert_simple(g)


class TestGridShape:
    def test_flat_id_row_major(self):
        s = GridShape((4, 2))
        assert s.flat_id((0, 0)) == 0
        assert s.flat_id((0, 1)) == 1
        assert s.flat_id((1, 0)) == 2
        assert s.flat_id((3, 1)) == 7

    def test_coords_in_flat_order(self):
        s = GridShape((2, 3))
        listed = list(s.coords())
        assert listed == [s.coord_of(i) for i in range(s.num_vertices)]

    @pytest.mark.parametrize("dims", [(True, 3), (3, False), (2.0, 3), ("3", 3)])
    def test_rejects_non_int_dims(self, dims):
        with pytest.raises(ValueError, match="dimension sizes"):
            GridShape(dims)
        with pytest.raises(ValueError, match="dimension sizes"):
            make_grid(dims)

    @pytest.mark.parametrize("dims", [5, None])
    def test_rejects_non_iterable_shape(self, dims):
        with pytest.raises(ValueError, match="grid shape must be a sequence of dimension sizes"):
            GridShape(dims)
        with pytest.raises(ValueError, match="grid shape must be a sequence of dimension sizes"):
            make_grid(dims)

    def test_value_semantics(self):
        s = GridShape([2, 3])
        assert s == GridShape((2, 3)) and hash(s) == hash(GridShape((2, 3)))
        assert s != GridShape((3, 2)) and s != (2, 3)
        assert repr(s) == "GridShape(dims=(2, 3))"
        with pytest.raises(AttributeError):
            s.dims = (4,)
        with pytest.raises(AttributeError):
            del s.dims
        assert s.dims == (2, 3)

    def test_bounds_errors(self):
        s = GridShape((3, 3))
        with pytest.raises(ValueError):
            s.flat_id((3, 0))
        with pytest.raises(ValueError):
            s.coord_of(9)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: s.flat_id(("a", 0)), "coordinate ('a', 0) outside shape (3, 3)"),
            (lambda s: s.flat_id((1.0, 0)), "coordinate (1.0, 0) outside shape (3, 3)"),
            (lambda s: s.flat_id(4), "coordinate 4 outside shape (3, 3)"),
            (lambda s: s.flat_id(None), "coordinate None outside shape (3, 3)"),
            (lambda s: s.coord_of("x"), "flat id 'x' outside shape (3, 3)"),
            (lambda s: s.coord_of(True), "flat id True outside shape (3, 3)"),
        ],
        ids=["str-entry", "float-entry", "int", "none", "str-id", "bool-id"],
    )
    def test_non_integer_input_is_value_error(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(GridShape((3, 3)))
        assert str(exc.value) == message

    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_flat_round_trip(self, dims, data):
        s = GridShape(tuple(dims))
        flat = data.draw(st.integers(0, s.num_vertices - 1))
        assert s.flat_id(s.coord_of(flat)) == flat


class TestInducedSubgraph:
    def test_border_of_3x3_is_c8(self):
        g = make_grid([3, 3])
        border = [0, 1, 2, 5, 8, 7, 6, 3]  # clockwise around the center
        assert induced_subgraph(g, border) == make_cycle(8)

    def test_identity(self):
        g = make_grid([2, 3])
        assert induced_subgraph(g, range(g.n)) == g

    def test_single_vertex(self):
        g = make_cycle(4)
        sub = induced_subgraph(g, [2])
        assert sub.n == 1 and sub.num_edges == 0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            induced_subgraph(make_cycle(4), [0, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(make_cycle(4), [0, 7])
        for bad in NOT_INTS + (-1,):
            with pytest.raises(ValueError, match="vertex must be an integer >= 0"):
                induced_subgraph(make_cycle(4), [0, bad])

    def test_relabeling_follows_selection_order(self):
        g = make_path(4)
        sub = induced_subgraph(g, [3, 2, 0])
        # 3-2 is an edge and lands on new ids 0-1; 0 is isolated here
        assert sub.edges() == [(0, 1)]
