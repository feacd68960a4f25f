"""Edge-weighted star witnesses and the minimum-interval oracle.

A witness assigns a non-negative integer weight to every leaf of a star and
fixes a set of pairwise disjoint closed integer intervals.  Two leaves are
adjacent in the realized graph exactly when the sum of their weights lands in
one of the intervals.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Sequence

from .graphs import Edge, Graph, _check_weight_count, check_weights

Interval = tuple[int, int]


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


def _accepted_blocks(witness: Witness):
    """Vertices in weight order, plus every realized pair as a block of that order.

    Returns (order, blocks).  `order` lists the vertices by (weight, id).  For
    the vertex u at position p of `order`, `blocks` yields (u, start, end)
    with p < start < end: among the vertices after p, u is adjacent to exactly
    those in order[start:end] over all its blocks.  Each pair thus shows up
    once, and the blocks can be counted without building any edge.

    A step bisects the sorted intervals for the first one that can still hold
    a sum with u, then bisects `order` for the block that interval accepts:
    one whole block per step, or a jump to the next interval, so a vertex
    costs O(min(k, n) log n) plus its output.
    """
    w = witness.weights
    n = len(w)
    order = sorted(range(n), key=w.__getitem__)
    ws = [w[v] for v in order]
    ivs = sorted(witness.intervals)
    his = [hi for _, hi in ivs]
    k = len(ivs)

    def blocks():
        for p in range(n - 1):
            u = order[p]
            a = ws[p]
            j = p + 1
            while j < n:
                i = bisect_left(his, a + ws[j])
                if i == k:
                    break
                lo, hi = ivs[i]
                j = bisect_left(ws, lo - a, j)
                end = bisect_right(ws, hi - a, j)
                if end > j:
                    yield u, j, end
                    j = end

    return order, blocks()


def realized_edge_count(witness: Witness, limit: int) -> int:
    """Number of edges `realize(witness)` would build, found without building them.

    Counting stops as soon as the count exceeds `limit`, so the result is
    exact up to `limit` and otherwise only known to be larger.
    """
    _, blocks = _accepted_blocks(witness)
    total = 0
    for _, start, end in blocks:
        total += end - start
        if total > limit:
            break
    return total


def realize(witness: Witness) -> Graph:
    """Graph realized by a witness: edge {u, v} iff w_u + w_v lies in an interval."""
    order, blocks = _accepted_blocks(witness)
    edges: list[Edge] = []
    for u, start, end in blocks:
        edges.extend(zip(repeat(u), order[start:end]))
    return Graph(witness.n, edges)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of comparing a realized graph against a target graph."""

    equal: bool
    missing: tuple[Edge, ...]  # edges of the target absent from the realization
    extra: tuple[Edge, ...]  # realized edges absent from the target

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "missing": self.missing,
            "extra": self.extra,
        }


def verify(witness: Witness, graph: Graph) -> VerifyReport:
    """Check that the witness realizes exactly `graph`.

    Realized pairs stream from `_accepted_blocks` against `graph`'s adjacency,
    holding only the extra edges and the target edges hit; an "equal" verdict
    is cross-checked by `realize`, whose graph then has exactly `graph`'s edges.
    """
    if witness.n != graph.n:
        raise ValueError(f"witness is for {witness.n} vertices, graph has {graph.n}")
    order, blocks = _accepted_blocks(witness)
    extra = []
    hit = set()
    for u, start, end in blocks:
        nb = graph.neighbors(u)
        for v in order[start:end]:
            e = (u, v) if u < v else (v, u)
            if v in nb:
                hit.add(e)
            else:
                extra.append(e)
    extra.sort()
    missing = [e for e in graph.edges() if e not in hit] if len(hit) < graph.num_edges else []
    equal = not missing and not extra
    if equal and realize(witness) != graph:
        raise RuntimeError("the streamed diff is empty, but the realized graph differs")
    return VerifyReport(equal=equal, missing=tuple(missing), extra=tuple(extra))


# The oracle classifies every pair sum by one byte: 0 when no vertex pair has
# that sum, 1 when only edges have it, 2 when only non-edges do.  A sum that
# an edge and a non-edge share is a tie no interval set separates, and the
# oracle reports it instead of classifying it.
_RUN = re.compile(rb"\x01(?:\x00*\x01)*")
_NONEDGE = bytes.maketrans(b"\x01", b"\x02")


def _edge_runs(classes: bytes, sums: Sequence[int]) -> list[Interval]:
    """Maximal runs of edge sums, as tight intervals; `classes[i]` is the class of the ascending `sums[i]`."""
    return [(sums[m.start()], sums[m.end() - 1]) for m in _RUN.finditer(classes)]


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


# Pair counts come from squaring the weight histogram as one big integer
# while the weight span is at most d*d / _SQUARE_SPAN_DIVISOR for d distinct
# weights, and from a loop over the d*(d-1)/2 distinct-weight pairs beyond.
# The square grows faster than linearly with the span, the loop with d*d.
# Measured on a 2-vCPU x86-64 host with random distinct weights, the two
# break even near span d*d/4 for d = 256 and 512 and near d*d/6 for d = 1024;
# at d*d/8 the square took 0.5 to 0.8 of the loop's time for d = 128 to 1024.
_SQUARE_SPAN_DIVISOR = 8


def _pair_counts(hist: Counter, low: int, span: int) -> array:
    """Slot t counts the vertex pairs u < v with weight sum 2*low + t, for t in 0..2*span."""
    # Kronecker substitution: slot t of the square counts the ordered vertex
    # pairs, u == v included, with weight sum 2*low + t.  Each vertex pairs
    # with at most max(hist) vertices in one slot, so a slot that holds
    # n * max(hist) never carries into the next.  Less the u == v pairs every
    # slot is even, so one shift halves them all.  Native byte order only
    # reverses the slots on a big-endian host, and the square and the
    # diagonal are symmetric under that.
    bits = (sum(hist.values()) * max(hist.values())).bit_length()
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= bits)
    slots = array(code, [0]) * (span + 1)
    for a, ca in hist.items():
        slots[a - low] = ca
    diag = array(code, [0]) * (2 * span + 1)
    diag[::2] = slots
    x = int.from_bytes(slots, sys.byteorder)
    x = (x * x - int.from_bytes(diag, sys.byteorder)) >> 1
    return array(code, x.to_bytes((2 * span + 1) * slots.itemsize, sys.byteorder))


def _pair_counts_by_loop(hist: Counter) -> dict[int, int]:
    """Vertex pairs u < v per occupied weight sum, by a loop over the distinct-weight pairs."""
    counts: dict[int, int] = {}
    for a, ca in hist.items():
        if ca > 1:
            counts[2 * a] = counts.get(2 * a, 0) + ca * (ca - 1) // 2
    for (a, ca), (b, cb) in combinations(hist.items(), 2):
        counts[a + b] = counts.get(a + b, 0) + ca * cb
    return counts


def _first_pairs_at(graph: Graph, w: tuple[int, ...], s: int) -> Infeasible:
    """The lexicographically first edge and first non-edge with weight sum s."""
    n = graph.n
    for u in range(n):
        vs = [v for v in graph.neighbors(u) if v > u and w[u] + w[v] == s]
        if vs:
            edge = (u, min(vs))
            break
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(w[v], []).append(v)
    for u in range(n):
        bucket = buckets.get(s - w[u], ())
        nb = graph.neighbors(u)
        for i in range(bisect_right(bucket, u), len(bucket)):
            if bucket[i] not in nb:
                return Infeasible(edge=edge, nonedge=(u, bucket[i]))
    raise AssertionError(f"no non-edge has sum {s}")


def min_intervals_for_weights(graph: Graph, weights: Sequence[int]) -> Feasible | Infeasible:
    """Exact minimum number of intervals realizing `graph` with fixed weights.

    Each pair sum s gets one class byte: no pair, edges only, or non-edges
    only.  The number of edges E[s] comes from one pass over the edges and
    the number of vertex pairs P[s] from the weight histogram (`_pair_counts`,
    or `_pair_counts_by_loop` for a wide weight span); s has a non-edge exactly
    when P[s] > E[s].  If an edge and a non-edge share a sum no interval set
    can separate them, and the lexicographically first such edge and
    non-edge at the smallest such sum are returned.  Otherwise every maximal
    run of edge sums (consecutive among the distinct sum values) needs
    exactly one interval, and the tight [run-min, run-max] intervals are
    returned in ascending order.  Minimality is over arbitrary interval sets:
    any interval reaching across two runs would swallow the non-edge sum
    between them.
    """
    w = _check_weight_count(weights, graph.n)
    if graph.n < 2:
        return Feasible(k=0, intervals=())
    edge_sums = Counter(w[u] + w[v] for u in range(graph.n) for v in graph.neighbors(u) if u < v)
    hist = Counter(w)
    low = min(hist)
    span = max(hist) - low
    if span * _SQUARE_SPAN_DIVISOR > len(hist) ** 2:
        counts = _pair_counts_by_loop(hist)
        tie = min((s for s, c in edge_sums.items() if c < counts[s]), default=None)
        if tie is None:
            sums = sorted(counts)
            classes = bytearray(1 if s in edge_sums else 2 for s in sums)
    else:
        pairs = _pair_counts(hist, low, span)
        base = 2 * low
        tie = min((s for s, c in edge_sums.items() if c < pairs[s - base]), default=None)
        if tie is None:
            classes = bytearray(map(bool, pairs)).translate(_NONEDGE)
            for s in edge_sums:
                classes[s - base] = 1
            sums = range(base, base + len(classes))
    if tie is not None:
        return _first_pairs_at(graph, w, tie)
    runs = _edge_runs(classes, sums)
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
