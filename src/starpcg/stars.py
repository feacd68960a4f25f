"""Edge-weighted star witnesses and the minimum-interval oracle.

A witness assigns a non-negative integer weight to every leaf of a star and
fixes a set of pairwise disjoint closed integer intervals.  Two leaves are
adjacent in the realized graph exactly when the sum of their weights lands in
one of the intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .graphs import Edge, Graph

Interval = tuple[int, int]


def check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a weight vector: integers >= 0."""
    try:
        out = tuple(weights)
    except TypeError:
        raise ValueError(f"weights must be a sequence of integers, got {weights!r}") from None
    for i, w in enumerate(out):
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError(f"weight {i} must be a non-negative integer, got {w!r}")
    return out


def check_intervals(intervals: Sequence[Sequence[int]]) -> tuple[Interval, ...]:
    """Validate intervals: integer [lo, hi] with 0 <= lo <= hi, pairwise disjoint.

    The stored order is preserved; constructions may list intervals in their
    natural emission order rather than sorted.
    """
    if not isinstance(intervals, (list, tuple)):
        raise ValueError(f"intervals must be a list of [lo, hi] pairs, got {intervals!r}")
    out = []
    for item in intervals:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"interval {item!r} is not a [lo, hi] pair")
        lo, hi = item
        if type(lo) is not int or type(hi) is not int:  # also rejects bools
            raise ValueError(f"interval endpoints must be integers, got {item!r}")
        if lo < 0 or lo > hi:
            raise ValueError(f"interval [{lo}, {hi}] is not a valid range")
        out.append((lo, hi))
    ordered = sorted(out)
    for (_, hi), (lo2, _) in zip(ordered, ordered[1:]):
        if lo2 <= hi:
            raise ValueError(f"intervals overlap near [{lo2}, ...]")
    return tuple(out)


@dataclass(frozen=True)
class Witness:
    """Leaf weights plus disjoint closed intervals of accepted pair sums."""

    weights: tuple[int, ...]
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", check_weights(self.weights))
        object.__setattr__(self, "intervals", check_intervals(self.intervals))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def k(self) -> int:
        return len(self.intervals)

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "intervals": [[lo, hi] for lo, hi in self.intervals],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Witness":
        if not isinstance(obj, dict) or "weights" not in obj or "intervals" not in obj:
            raise ValueError('witness JSON must be {"weights": [...], "intervals": [[lo, hi], ...]}')
        return cls(obj["weights"], obj["intervals"])


def _interval_lookup(intervals: Sequence[Interval]):
    """Return a membership test for the union of the given intervals."""
    ordered = sorted(intervals)
    los = [lo for lo, _ in ordered]

    def contains(s: int) -> bool:
        i = bisect_right(los, s) - 1
        return i >= 0 and s <= ordered[i][1]

    return contains


def realize(witness: Witness, n: int | None = None) -> Graph:
    """Graph realized by a witness: edge {u, v} iff w_u + w_v lies in an interval."""
    w = witness.weights
    if n is not None and n != len(w):
        raise ValueError(f"witness has {len(w)} weights but n={n} was requested")
    size = len(w)
    contains = _interval_lookup(witness.intervals)
    edges = [
        (u, v)
        for u in range(size)
        for v in range(u + 1, size)
        if contains(w[u] + w[v])
    ]
    return Graph(size, edges)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of comparing a realized graph against a target graph."""

    equal: bool
    missing: tuple[Edge, ...]  # edges of the target absent from the realization
    extra: tuple[Edge, ...]  # realized edges absent from the target

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "missing": [[u, v] for u, v in self.missing],
            "extra": [[u, v] for u, v in self.extra],
        }


def verify(witness: Witness, graph: Graph) -> VerifyReport:
    """Check that the witness realizes exactly `graph`."""
    if witness.n != graph.n:
        raise ValueError(f"witness is for {witness.n} vertices, graph has {graph.n}")
    realized = realize(witness)
    want = set(graph.edges())
    got = set(realized.edges())
    missing = tuple(sorted(want - got))
    extra = tuple(sorted(got - want))
    return VerifyReport(equal=not missing and not extra, missing=missing, extra=extra)


@dataclass(frozen=True)
class Feasible:
    """The weights admit a realization; k intervals are necessary and sufficient."""

    k: int
    intervals: tuple[Interval, ...]


@dataclass(frozen=True)
class Infeasible:
    """No interval set works: an edge pair sum collides with a non-edge pair sum."""

    edge: Edge
    nonedge: Edge


def min_intervals_for_weights(graph: Graph, weights: Sequence[int]) -> Feasible | Infeasible:
    """Exact minimum number of intervals realizing `graph` with fixed weights.

    Sort the multiset of all pair sums.  If an edge and a non-edge produce the
    same sum no interval set can separate them.  Otherwise every maximal run
    of edge sums (consecutive among the distinct sum values) needs exactly one
    interval, and the tight [run-min, run-max] intervals are returned in
    ascending order.  Minimality is over arbitrary interval sets: any interval
    reaching across two runs would swallow the non-edge sum between them.
    """
    w = check_weights(weights)
    if len(w) != graph.n:
        raise ValueError(f"{len(w)} weights for a graph on {graph.n} vertices")
    entries = sorted(
        (w[u] + w[v], u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
    )
    runs: list[Interval] = []
    in_run = False
    i = 0
    m = len(entries)
    while i < m:
        s = entries[i][0]
        edge_pair = None
        nonedge_pair = None
        while i < m and entries[i][0] == s:
            _, u, v = entries[i]
            if graph.has_edge(u, v):
                if edge_pair is None:
                    edge_pair = (u, v)
            elif nonedge_pair is None:
                nonedge_pair = (u, v)
            i += 1
        if edge_pair is not None and nonedge_pair is not None:
            return Infeasible(edge=edge_pair, nonedge=nonedge_pair)
        if edge_pair is not None:
            if in_run:
                runs[-1] = (runs[-1][0], s)
            else:
                runs.append((s, s))
                in_run = True
        else:
            in_run = False
    return Feasible(k=len(runs), intervals=tuple(runs))


def universal_witness(graph: Graph) -> Witness:
    """Witness for an arbitrary graph: weight 2^i, one singleton interval per edge.

    Distinct pairs have distinct sums (two set bits identify the pair), so the
    singletons accept exactly the edges of `graph`.  Interval count equals the
    edge count, which is wasteful but always works.
    """
    w = tuple(1 << i for i in range(graph.n))
    sums = sorted(w[u] + w[v] for u, v in graph.edges())
    return Witness(w, tuple((s, s) for s in sums))
