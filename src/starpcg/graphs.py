"""Simple undirected graphs plus cycle/path/grid generators and grid geometry.

Vertices are always 0..n-1.  Grid vertices carry coordinate tuples; the flat
id is the mixed-radix row-major encoding (first coordinate most significant),
so for a two-dimensional shape (n1, n2) the vertex (i, j) has id i*n2 + j.
"""

from __future__ import annotations

import math
import reprlib
from array import array
from itertools import product
from typing import Iterable, Iterator, Sequence

Coord = tuple[int, ...]
Edge = tuple[int, int]


class _Shown(reprlib.Repr):
    """`reprlib.Repr`, but an int prints in full up to 256 bits and as a power of two beyond.

    Python 3.11 refuses to print an int of more than 4300 digits by default
    and 3.10 prints a million-digit one, so a refusal names a larger int by
    its bit length and stays short on every interpreter, also where the int
    sits inside a list or tuple.  Strings and containers are shortened as
    `reprlib` shortens them.
    """

    def repr_int(self, x: int, level: int) -> str:
        bits = x.bit_length()
        if bits <= 256:
            return repr(x)
        return f"2^{bits - 1} or more" if x > 0 else f"-2^{bits - 1} or less"


# how every refusal quotes a caller's value
_shown = _Shown().repr


def _oversized(factors: Sequence[int], limit: int) -> str | None:
    """The product of positive `factors`, quoted by `_shown`, if it exceeds `limit`; else None.

    Each factor is at least 2^(its bit length - 1).  When those exponents sum
    past 1024, the product exceeds any `limit` a caller sets and is named
    `2^N or more` without being built: the exact product took seconds for a
    census of 2000 vertices at W = 10^4000, and for 200 grid sizes of 10^4000.
    """
    low = sum(f.bit_length() - 1 for f in factors)
    if low > 1024:
        return f"2^{low} or more"
    product = math.prod(factors)
    return _shown(product) if product > limit else None


def _check_int(value, name: str, minimum: int | None) -> int:
    """`value` if it is an int, not a bool, and >= `minimum` (None: any); else ValueError."""
    # the type test first: it settles a plain int, the common case, at once
    is_int = type(value) is int or (isinstance(value, int) and not isinstance(value, bool))
    if is_int and (minimum is None or value >= minimum):
        return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{bound}, got {_shown(value)}")


def check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a weight vector: integers >= 0."""
    try:
        if isinstance(weights, (dict, set, frozenset)):  # keys or hash order, not weights
            raise TypeError
        out = tuple(weights)
    except TypeError:
        raise ValueError(
            f"weights must be a sequence of integers, got {_shown(weights)}"
        ) from None
    # one pass at C speed settles a vector of plain ints, the common case;
    # anything else goes through the per-item loop, the only place that raises
    if {*map(type, out)} <= {int} and (not out or min(out) >= 0):
        return out
    for i, w in enumerate(out):
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError(f"weight {i} must be a non-negative integer, got {_shown(w)}")
    return out


def _check_count(count: int, n: int) -> None:
    """Raise ValueError unless `count` weights give one per vertex of an n-vertex graph."""
    if count != n:
        raise ValueError(f"{count} weights for a graph on {n} vertices")


def _check_weight_count(weights: Sequence[int], n: int) -> tuple[int, ...]:
    """`check_weights`, plus one weight per vertex of an n-vertex graph."""
    w = check_weights(weights)
    _check_count(len(w), n)
    return w


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    # _ends: the sorted edges as endpoint arrays (us, vs), built from _adj on first use
    __slots__ = ("n", "_adj", "_ends")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        _check_int(n, "vertex count", 0)
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:  # also rejects bools
                raise ValueError(f"edge {_shown(e)} is not a pair of integer vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {_shown(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({_shown(u)}, {_shown(v)}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = len(adj)
        self._adj = tuple(map(frozenset, adj))
        self._ends = None

    def _endpoints(self) -> tuple[array, array]:
        """The edges sorted lexicographically, as endpoint arrays us and vs with us[i] < vs[i]."""
        if self._ends is None:
            adj = self._adj
            # us repeats u once per later neighbour, so it needs no sort
            us = array("q", [u for u in range(self.n) for v in adj[u] if u < v])
            vs = array("q", [v for u in range(self.n) for v in sorted(adj[u]) if u < v])
            self._ends = us, vs
        return self._ends

    def neighbors(self, u: int) -> frozenset[int]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return list(zip(*self._endpoints()))

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._adj)) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_dict(cls, obj: dict) -> "Graph":
        if (
            not isinstance(obj, dict)
            or "n" not in obj
            or not isinstance(obj.get("edges"), list)
        ):
            raise ValueError('graph JSON must be {"n": int, "edges": [[u, v], ...]}')
        return cls(obj["n"], obj["edges"])

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        lines.extend(f"  {u};" for u in range(self.n))
        lines.extend(f"  {u} -- {v};" for u, v in self.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"


class GridShape:
    """Immutable dimensions of a d-dimensional grid graph; every dim size >= 1."""

    __slots__ = ("dims",)

    def __init__(self, dims: Sequence[int]):
        try:
            dims = tuple(dims)
        except TypeError:
            raise ValueError(
                f"grid shape must be a sequence of dimension sizes, got {_shown(dims)}"
            ) from None
        if len(dims) < 1:
            raise ValueError("grid shape needs at least one dimension")
        for m in dims:
            if type(m) is not int or m < 1:  # a plain int >= 1 builds no message
                _check_int(m, f"each of the dimension sizes {_shown(dims)}", 1)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self) -> int:
        return hash((self.dims,))

    def __repr__(self) -> str:
        return f"GridShape(dims={self.dims!r})"

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def num_vertices(self) -> int:
        return math.prod(self.dims)

    def contains(self, coord: Coord) -> bool:
        return len(coord) == self.d and all(0 <= c < m for c, m in zip(coord, self.dims))

    def flat_id(self, coord: Coord) -> int:
        ints = isinstance(coord, Sequence) and {*map(type, coord)} == {int}
        if not (ints and self.contains(coord)):  # contains compares only int entries
            raise ValueError(f"coordinate {_shown(coord)} outside shape {_shown(self.dims)}")
        out = 0
        for c, m in zip(coord, self.dims):
            out = out * m + c
        return out

    def coord_of(self, flat: int) -> Coord:
        if type(flat) is not int or not (0 <= flat < self.num_vertices):
            raise ValueError(f"flat id {_shown(flat)} outside shape {_shown(self.dims)}")
        rev = []
        for m in reversed(self.dims):
            rev.append(flat % m)
            flat //= m
        return tuple(reversed(rev))

    def coords(self) -> Iterator[Coord]:
        """All coordinates in flat-id (row-major) order."""
        return product(*(range(m) for m in self.dims))


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices with edges {i, i+1 mod n}."""
    _check_int(n, "n", 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def make_path(n: int) -> Graph:
    """Path on n >= 1 vertices; same as the one-dimensional grid."""
    _check_int(n, "n", 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_grid(shape: GridShape | Sequence[int]) -> Graph:
    """Grid graph: vertices are coordinates, edges join coords at L1 distance 1."""
    s = shape if isinstance(shape, GridShape) else GridShape(shape)
    # strides[j]: the flat-id step of one unit along dimension j
    strides = [1] * s.d
    for j in range(s.d - 2, -1, -1):
        strides[j] = strides[j + 1] * s.dims[j + 1]
    edges = []
    for u, coord in enumerate(s.coords()):
        for c, m, stride in zip(coord, s.dims, strides):
            if c + 1 < m:
                edges.append((u, u + stride))
    return Graph(s.num_vertices, edges)


def induced_subgraph(graph: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced by `vertices`, relabeled 0..len-1 in the given order."""
    order = list(vertices)
    for v in order:
        if _check_int(v, "vertex", 0) >= graph.n:
            raise ValueError(f"vertex {_shown(v)} out of range for n={graph.n}")
    if len(set(order)) != len(order):
        raise ValueError("vertex selection contains duplicates")
    pos = {v: i for i, v in enumerate(order)}
    edges = [
        (pos[u], pos[v])
        for u, v in graph.edges()
        if u in pos and v in pos
    ]
    return Graph(len(order), edges)
