"""Bounded search for the fewest intervals any integer weighting needs.

Results are evidence, not proof: integer weights lose no generality, but no
a-priori bound on the largest useful weight is known, so a search that covers
all vectors up to a bound only rules out witnesses within that bound.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Iterable

from .graphs import Graph, _check_int, _oversized, _shown
from .stars import Feasible, Witness, min_intervals_for_weights

# Bounds the census's (W+1)^n * (1 + (2W+1)//64) leaf word operations.  It
# sees neither tie pruning nor the census's counting up to translation and
# symmetry, so the slowest censuses it accepts are on graphs that seldom tie
# and have few automorphisms.  Single runs of the relative census on a 2-vCPU
# x86-64 host, with figures that vary with the host's load: Graph(2) at
# W = 3167, the largest two-vertex census, took 0.02 s; path 3 at W = 415
# took 0.35 s, path 4 at W = 124 took 3.6 s, and path 5 at W = 53 took 14 s,
# the slowest measured.  An edgeless graph never ties, but its stabilizer
# chain leaves a scan of sorted vectors: Graph(9) at W = 9 took 0.17 s, and a
# 9-vertex graph with one edge 0.30 s.
SPACE_LIMIT = 10**9
# Bounds random mode's trials * n(n+1)/2 * (1 + (2W+1)//64) word operations.
# The slowest request it accepts, in a single run on the same host, is
# 5*10^6 trials on one vertex, 13 s; the most memory, 87 MB peak RSS, goes
# to one trial on two vertices at W = 5.3*10^7.
RANDOM_WORK_LIMIT = 5 * 10**6
# Bounds `_stabilizer_chain`: the candidate images it tests over all its
# searches.  Only a census with W + 1 >= n searches for a chain, and
# SPACE_LIMIT keeps that at n <= 9: 9^9 passes and 10^10 does not.  In a
# single run on a 2-vCPU x86-64 host, the longest chain search among 28,516
# seeded graphs on 2 to 9 vertices (random, randomly labelled 2- to 4-regular,
# edgeless and complete) needed 622 tests (0.4 ms).  The cap stays as a safety
# bound; a spent budget leaves the census exact.
ORBIT_STEPS = 20_000

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOM = "random"


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; identical configs give identical results.

    max_weight is W, the largest weight scanned; it defaults to 2n when left
    unset.  mode is exhaustive (a census of {0..W}^n) or random.  trials is
    the number of vectors random mode draws from a generator seeded with
    rng_seed.  target_k stops the scan at the first vector (in lexicographic
    order) achieving at most target_k intervals.  jobs > 1 spreads the
    census's boxes over min(jobs, boxes, cpu count) processes; the merge
    reproduces the serial scan exactly.  A census without a target picks its
    boxes itself, using the automorphisms it finds when that pays, and its
    counts are exact either way.  `search_min_k` states the boxes.  Random mode ignores
    jobs: it always runs in-process, though `search_report` echoes the
    field.  It refuses trials * n(n+1)/2 * (1 + (2W+1)//64) above
    RANDOM_WORK_LIMIT, as the census refuses (W+1)^n * (1 + (2W+1)//64)
    above SPACE_LIMIT.
    """

    max_weight: int | None = None
    mode: str = MODE_EXHAUSTIVE
    trials: int = 1000
    rng_seed: int = 0
    target_k: int | None = None
    jobs: int = 1


@dataclass(frozen=True)
class SearchResult:
    best_k: int | None  # None: every explored vector was infeasible
    best_witness: Witness | None
    explored: int
    exhaustive_within_bound: bool
    k_histogram: dict[int, int]
    infeasible_count: int


@dataclass
class _ChunkStats:
    best: tuple[int, tuple[int, ...]] | None = None
    explored: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    # a target_k hit is always `best`: every earlier leaf has k > target_k
    hit: bool = False

    def add_counts(self, other: _ChunkStats) -> None:
        self.explored += other.explored
        for k, c in other.histogram.items():
            self.histogram[k] = self.histogram.get(k, 0) + c


def _earlier_split(graph: Graph, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertices j < i adjacent to i, and those not adjacent to i."""
    nb: list[int] = []
    non: list[int] = []
    for j in range(i):
        (nb if graph.has_edge(i, j) else non).append(j)
    return tuple(nb), tuple(non)


# The search's sum tables are two bitsets: bit s of E is set when some edge
# has weight sum s, bit s of N when some non-edge has.  A vertex i placed at
# weight x adds the edge sums (ae << x) and the non-edge sums (an << x), where
# ae and an have bit w[j] set for the earlier neighbours and non-neighbours j
# of i; it ties when one of them meets the other table, or when ae & an is
# non-zero (two earlier vertices of equal weight that i splits).  The census
# finds every tying x of a level at once: its tie mask T ORs N >> w[j] over
# the earlier neighbours and E >> w[j] over the earlier non-neighbours, so
# bit x of T is set exactly when w[j] + x is a sum of the other kind.  The
# free weights are the allowed ones outside T, or none when ae & an ties the
# whole level.


def _run_count(E: int, N: int) -> int:
    """Number of maximal runs of edge sums among the sums in E | N (disjoint bitsets).

    Adding E << 1 to the empty slots Z below the top sum carries each edge
    sum's bit across the empty slots to the next occupied sum; a run ends
    where that carry lands on a non-edge sum or just past the top sum.
    """
    width = (E | N).bit_length()
    Z = ~(E | N) & ((1 << width) - 1)
    return ((Z + (E << 1)) & ~Z & (N | 1 << width)).bit_count()


def _scan_random(
    graph: Graph, vectors: Iterable[tuple[int, ...]], target_k: int | None
) -> _ChunkStats:
    """Score vectors in order, stopping at the first target_k hit.

    Each vector is placed vertex by vertex and dropped at its first tie.  A
    vertex's earlier neighbours are looked up the first time a vector
    reaches it, so trials that tie early never touch the rest of the graph.
    """
    stats = _ChunkStats()
    rows = [((), ())]
    for vec in vectors:
        stats.explored += 1
        E = N = 0
        for i in range(1, len(vec)):
            if i == len(rows):
                rows.append(_earlier_split(graph, i))
            nb, non = rows[i]
            ae = an = 0
            for j in nb:
                ae |= 1 << vec[j]
            for j in non:
                an |= 1 << vec[j]
            e = ae << vec[i]
            nn = an << vec[i]
            if ae & an or e & N or nn & E:
                break
            E |= e
            N |= nn
        else:
            k = _run_count(E, N)
            stats.histogram[k] = stats.histogram.get(k, 0) + 1
            if stats.best is None or (k, vec) < stats.best:
                stats.best = (k, vec)
            if target_k is not None and k <= target_k:
                stats.hit = True
                break
    return stats


def _scan_box(args) -> _ChunkStats:
    """Depth-first census of a box: the vectors w with bit w[i] of spans[i] set for every i.

    The box has two or more vertices, and spans[0] holds one weight, as in
    every box `_search` hands out.  Each level builds one tie mask, the
    weights at which the vertex would tie, and descends only the free
    weights, lowest first, within the window [hi - W, lo + W] around the
    prefix's lowest weight lo and highest weight hi.  The last two levels
    are one loop.  Level n-2 builds the last vertex's masks over vertices
    0..n-3 once per node; for each of its own free weights x it then finds
    the last vertex's tie mask with a fixed number of big-int operations,
    whatever n is, and scores the last vertex's free weights in place in
    one of two leaf modes.  Vectors are compared as base-(W+1) integer keys,
    and a tuple is built only for the box's best.

    Without a target the box holds relative vectors: vertex 0 at W in
    offset weights 0..2W, and the walk starts at lo = hi = W, so every span
    stays at most W.  Adding c to every weight adds 2c to every pair sum,
    which keeps every tie and run count, so a leaf u of span hi - lo stands
    for its W + 1 - (hi - lo) translates in {0..W}^n and adds that many to
    the histogram.  The lexicographically first translate of u is u - lo,
    and that of its mirror image (w -> W - w) is hi - u; their keys are
    key(u) - lo * R and hi * R - key(u) with R = key(1, ..., 1).
    `explored` is left at 0: the caller knows the size of the space.

    `levels` holds the non-trivial orbits O_i of a stabilizer chain (see
    `_stabilizer_chain`), each led by its level's vertex i; it is empty
    outside the census's chain box.  The box holds every vertex of O_i at
    or above w_i: vertex 0's orbit at W..2W in the spans, and every deeper
    level as a floor, the largest w_i over the levels whose orbit holds the
    vertex, applied as the vertex is placed.  A leaf counts
    prod |O_i| / prod m_i times, where m_i is the number of vertices of O_i
    at w_i, so it goes to the histogram of its product P = prod m_i.  Only
    twins of i can share w_i in a tie-free leaf, so without twins in the
    orbits every leaf has P = 1; otherwise the counts are read once per
    weight of vertex n-2, since the last vertex can add to them only at its
    floor, its lowest weight.  The box's histogram holds the sum over P of
    c_{P,k} * L / P, with L = prod lcm(1..|O_i|) (1 without levels), an
    integer.

    With a target the box holds absolute weights 0..W, and the walk starts
    at lo = 0 and hi = W, so the window is {0..W} and drops no weight.
    Prefixes are extended in lexicographic order, so leaves arrive in the
    order of a plain scan of the box, and a leaf improves the box's best
    exactly when its k is smaller.  The scan stops at the first k <=
    target_k.  `explored` is the box's size, or on a hit the number of box
    vectors up to the hit, which is what a plain scan visits before it stops.
    """
    rows, spans, bound, target_k, levels = args
    n = len(rows)
    B = bound + 1
    R = (B**n - 1) // bound
    run_count = _run_count
    # k is at most the number of edges, below n * n.  hists[P] counts the leaves
    # whose chain levels have prod m_i = P; without levels every leaf has P = 1
    hist = [0] * (n * n)
    hists = {1: hist}
    # floors[v]: the level vertices i >= 1 whose orbit holds v, so w[v] >= w[i];
    # vertex 0's orbit lies at W..2W in the spans.  The last vertex's floor is
    # the largest w[i] over `lifts`, its levels i <= n-3 (0 included), and x
    # too in a `pair`, the level {n-2, n-1}
    floors: list[list[int]] = [[] for _ in range(n)]
    lifts = []
    pair = False
    # Only twins (N(u) - v = N(v) - u) share a weight in a tie-free vector: a
    # vertex adjacent to one of them alone would make one sum both an edge and
    # a non-edge sum.  So m_i counts i and its twins in O_i at w_i: `twins`
    # holds each level i whose orbit has twins of i, with those twins other
    # than the last vertex, and whether the last vertex is one.  Without twins
    # every leaf has P = 1
    if levels:
        nbrs = [set(nb) for nb, _ in rows]
        for v, (nb, _) in enumerate(rows):
            for j in nb:
                nbrs[j].add(v)
    twins = []
    for orbit in levels:
        i = orbit[0]
        if i:
            for v in orbit[1:]:
                floors[v].append(i)
        if i == n - 2:
            pair = True
        elif n - 1 in orbit:
            lifts.append(i)
        alike = [v for v in orbit[1:] if nbrs[v] - {i} == nbrs[i] - {v}]
        if alike:
            twins.append((i, [v for v in alike if v < n - 1], n - 1 in alike))
    lifted = pair or bool(lifts)
    best_k = n * n
    best_key = 0
    last = n - 1
    w = [0] * n
    # the last vertex's earlier neighbours and non-neighbours other than vertex
    # n-2, and whether vertex n-2 is a neighbour
    nb_last, non_last = rows[last]
    adj = last - 1 in nb_last
    nb_last, non_last = (nb_last[:-1], non_last) if adj else (nb_last, non_last[:-1])
    span_last = spans[last]
    # above every weight, so that no shift of the comb below is negative
    S = max(spans).bit_length()

    def hist_of(P: int) -> list[int]:
        h = hists.get(P)
        if h is None:
            h = hists[P] = [0] * (n * n)
        return h

    def descend(i: int, E: int, N: int, lo: int, hi: int, key: int) -> bool:
        nonlocal best_k, best_key
        nb, non = rows[i]
        ae = an = T = 0
        for j in nb:
            wj = w[j]
            ae |= 1 << wj
            T |= N >> wj
        for j in non:
            wj = w[j]
            an |= 1 << wj
            T |= E >> wj
        # the window [hi - W, lo + W] keeps the span at most W
        free = 0 if ae & an else spans[i] & ~T & ((1 << (lo + B)) - (1 << (hi - bound)))
        if floors[i]:
            f = max([w[j] for j in floors[i]])
            free = free >> f << f
        if i < last - 1:
            while free:
                low = free & -free
                x = low.bit_length() - 1
                w[i] = x
                if descend(i + 1, E | ae << x, N | an << x, lo if lo < x else x, hi if hi > x else x, key * B + x):
                    return True
                free ^= low
            return False
        if not free:
            return False
        # Level n-2.  With vertex n-2 at x, the sums are E' = E | ae << x and
        # N' = N | an << x, and the last vertex's tie mask ORs N' >> w[j] over
        # its neighbours j and E' >> w[j] over its non-neighbours.  Over
        # j <= n-3 that is N >> w[j] and E >> w[j], plus (an << x) >> w[j] and
        # (ae << x) >> w[j], which together are (C << x) >> S for the comb C;
        # for j = n-2 it is N' >> x = (N >> x) | an, or (E >> x) | ae.  The
        # parts that do not depend on x are ORed once into `fixed`, and la
        # and ln are the last vertex's masks over vertices 0..n-3.
        if adj:
            side, fixed = N, an
        else:
            side, fixed = E, ae
        la = ln = 0
        for j in nb_last:
            wj = w[j]
            la |= 1 << wj
            fixed |= N >> wj
        for j in non_last:
            wj = w[j]
            ln |= 1 << wj
            fixed |= E >> wj
        # the last vertex ties at every weight at or above its floor, whatever x is
        fy = fy0 = max([w[i] for i in lifts]) if lifts else 0
        if la & ln or not (span_last & ~fixed) >> fy0:
            return False
        # drop the x at which the last vertex would split vertex n-2 from an
        # earlier vertex of equal weight
        free &= ~(ln if adj else la)
        if not free:
            return False
        C = 0
        for j in nb_last:
            C |= an << (S - w[j])
        for j in non_last:
            C |= ae << (S - w[j])
        # without twins every leaf goes to `hist`
        h = hx = hist
        while free:
            low = free & -free
            x = low.bit_length() - 1
            free ^= low
            free_last = span_last & ~(fixed | (C << x) >> S | side >> x)
            if target_k is None:
                # the window again, with vertex n-2 placed; a lexicographic box's
                # window is {0..W} whatever x is
                lo2 = lo if lo < x else x
                hi2 = hi if hi > x else x
                free_last &= (1 << (lo2 + B)) - (1 << (hi2 - bound))
                if lifted:
                    fy = x if pair and x > fy0 else fy0
                    free_last = free_last >> fy << fy
            if not free_last:
                continue
            E1 = E | ae << x
            N1 = N | an << x
            ae1, an1 = (la | low, ln) if adj else (la, ln | low)
            base = (key * B + x) * B
            if target_k is None:
                if twins:
                    # P with vertex n-2 placed, and P_y with the last vertex at its
                    # floor fy, its lowest weight, too
                    w[last - 1] = x
                    P = P_y = 1
                    for i, vs, holds_last in twins:
                        c = 1 + [w[v] for v in vs].count(w[i])
                        P *= c
                        P_y *= c + 1 if holds_last and w[i] == fy else c
                    hx = hist_of(P)
                    h = hist_of(P_y) if free_last >> fy & 1 else hx
                while free_last:
                    low_last = free_last & -free_last
                    # ae1 * low_last is ae1 << (the last vertex's weight), without finding it
                    k = run_count(E1 | ae1 * low_last, N1 | an1 * low_last)
                    y = low_last.bit_length() - 1
                    lo3 = lo2 if lo2 < y else y
                    hi3 = hi2 if hi2 > y else y
                    h[k] += B - hi3 + lo3
                    h = hx
                    if k <= best_k:
                        first = base + y - lo3 * R
                        image = hi3 * R - base - y
                        if image < first:
                            first = image
                        if k < best_k or first < best_key:
                            best_k = k
                            best_key = first
                    free_last ^= low_last
            else:
                while free_last:
                    low_last = free_last & -free_last
                    k = run_count(E1 | ae1 * low_last, N1 | an1 * low_last)
                    hist[k] += 1
                    if k < best_k:
                        best_k = k
                        best_key = base + low_last.bit_length() - 1
                        if k <= target_k:
                            return True
                    free_last ^= low_last
        return False

    hit = descend(0, 0, 0, 0 if target_k is not None else bound, bound, 0)
    # a leaf of product P counts 1/P, scaled by L to stay an integer; `_search`
    # divides L out
    scale = math.prod(math.lcm(*range(1, len(orbit) + 1)) for orbit in levels)
    stats = _ChunkStats(hit=hit)
    for P, h in hists.items():
        for k, c in enumerate(h):
            if c:
                stats.histogram[k] = stats.histogram.get(k, 0) + c * (scale // P)
    if best_k < n * n:
        digits = []
        for _ in range(n):
            best_key, d = divmod(best_key, B)
            digits.append(d)
        stats.best = (best_k, tuple(reversed(digits)))
    if hit:
        # the hit's rank in the box's lexicographic order, in mixed radix
        rank = 0
        for span, x in zip(spans, stats.best[1]):
            rank = rank * span.bit_count() + (span & ((1 << x) - 1)).bit_count()
        stats.explored = rank + 1
    elif target_k is not None:
        stats.explored = math.prod(map(int.bit_count, spans))
    return stats


def _merge_chunks(chunks: Iterable[_ChunkStats], twinned: int) -> _ChunkStats:
    """Fold per-box stats in scan order, drawing none past the first target hit.

    When no box hits the target, the first `twinned` boxes count twice: once
    for themselves and once for their unscanned mirror images.  Lexicographic
    boxes arrive in order, and every unscanned vector comes after every
    scanned one, so the first hit among the scanned boxes is the first hit
    of a plain scan and every vector before it was scanned.  Relative boxes
    never hit, and the fold only sums histograms and keeps the least
    (k, vector), so their order does not matter.
    """
    total = _ChunkStats()
    twins = _ChunkStats()
    for index, chunk in enumerate(chunks):
        total.add_counts(chunk)
        if chunk.best is not None and (total.best is None or chunk.best < total.best):
            total.best = chunk.best
        if chunk.hit:
            total.hit = True
            return total
        if index < twinned:
            twins.add_counts(chunk)
    total.add_counts(twins)
    return total


def _stabilizer_chain(graph: Graph) -> list[tuple[int, ...]]:
    """The orbits O_0..O_{n-1} of a stabilizer chain, each in increasing order.

    O_i is the closure of {i} under the automorphisms found that fix
    0..i-1 pointwise, so i is its least vertex and the groups are nested.
    Levels are searched from the deepest up, so each level's closure uses
    the maps found below it.  At level i only a vertex t > i with i's
    degree, sorted neighbour degrees and adjacency to 0..i-1 can be an
    image of i, and each such t that no map found so far reaches gets one
    backtracking search for an adjacency-preserving bijection fixing
    0..i-1 and sending i to t.  It places the other vertices in one
    breadth-first order from vertex 0, each further component from its
    lowest vertex; a vertex with a parent in that order must map to a
    neighbour of its parent's image, and every candidate must match the
    vertex's degree and sorted neighbour degrees and its adjacency to every
    placed vertex.  The searches share ORBIT_STEPS candidate tests; once
    those are spent, the level being searched keeps the orbit of the maps
    found so far and the levels above it keep O_i = {i}.  Every O_i is
    then still the orbit of a group of automorphisms fixing 0..i-1, nested
    as before, so every use of the chain in `search_min_k` stays exact.
    """
    n = graph.n
    nbrs = [sorted(graph.neighbors(v)) for v in range(n)]
    # adjacency as bitsets, and a class id per (degree, sorted neighbour degrees)
    degree = [len(a) for a in nbrs]
    adj: list[int] = []
    shape: list[int] = []
    shapes: dict[tuple[int, ...], int] = {}
    for a in nbrs:
        bits = 0
        profile = []
        for u in a:
            bits |= 1 << u
            profile.append(degree[u])
        profile.sort()
        adj.append(bits)
        shape.append(shapes.setdefault((len(a), *profile), len(shapes)))
    # breadth-first order from vertex 0, each further component from its lowest
    # vertex, with each vertex's parent in that order (-1 for a root)
    bfs: list[int] = []
    parent = [-1] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        head = len(bfs)
        bfs.append(root)
        while head < len(bfs):
            u = bfs[head]
            head += 1
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    bfs.append(v)
    orbits = [(v,) for v in range(n)]
    maps: list[list[int]] = []
    steps = 0

    def close(orbit: set[int]) -> None:
        frontier = list(orbit)
        while frontier:
            v = frontier.pop()
            for g in maps:
                if g[v] not in orbit:
                    orbit.add(g[v])
                    frontier.append(g[v])

    def extend(pos: int, used: int) -> bool:
        # used: the images of the vertices placed before position pos
        nonlocal steps
        if pos == n:
            return True
        u = order[pos]
        p = parent[u]
        # a candidate's placed neighbours must be the images of u's
        mapped = 0
        for t in nbrs[u]:
            if rank[t] < pos:
                mapped |= 1 << image[t]
        for cand in range(n) if p < 0 else nbrs[image[p]]:
            if used >> cand & 1 or shape[cand] != shape[u]:
                continue
            steps += 1
            if steps > ORBIT_STEPS:
                return False
            if adj[cand] & used == mapped:
                image[u] = cand
                if extend(pos + 1, used | 1 << cand):
                    return True
        return False

    for i in range(n - 2, -1, -1):
        fixed = (1 << i) - 1
        alike = [t for t in range(i + 1, n) if shape[t] == shape[i] and not (adj[t] ^ adj[i]) & fixed]
        if not alike:
            continue
        # 0..i first, then the rest in breadth-first order, where every parent
        # still comes before its children
        order = [*range(i + 1), *(v for v in bfs if v > i)]
        rank = [0] * n
        for pos, v in enumerate(order):
            rank[v] = pos
        # every map found so far, at this level or below, fixes 0..i-1
        orbit = {i}
        close(orbit)
        for t in alike:
            if t in orbit:
                continue
            image = list(range(i)) + [t] + [-1] * (n - i - 1)
            if extend(i + 1, fixed | 1 << t):
                maps.append(image)
                close(orbit)
            elif steps > ORBIT_STEPS:
                break
        orbits[i] = tuple(sorted(orbit))
        if steps > ORBIT_STEPS:
            break
    return orbits


def _validated(graph: Graph, cfg: SearchConfig) -> SearchConfig:
    """`cfg` with every field checked and max_weight resolved (2n when unset)."""
    if graph.n == 0:
        raise ValueError("search needs at least one vertex")
    if cfg.mode not in (MODE_EXHAUSTIVE, MODE_RANDOM):
        raise ValueError(f"unknown search mode {_shown(cfg.mode)}")
    # exhaustive mode ignores trials, so any integer passes there
    _check_int(cfg.trials, "trials", 1 if cfg.mode == MODE_RANDOM else None)
    _check_int(cfg.rng_seed, "rng_seed", None)
    _check_int(cfg.jobs, "jobs", 1)
    if cfg.target_k is not None:
        _check_int(cfg.target_k, "target_k", 0)
    bound = cfg.max_weight if cfg.max_weight is not None else 2 * graph.n
    _check_int(bound, "max_weight", 1)
    if cfg.mode == MODE_EXHAUSTIVE:
        # each of the (W+1)^n leaves reads sum bitsets of up to 2W+1 bits
        words = 1 + (2 * bound + 1) // 64
        if shown := _oversized([bound + 1] * graph.n + [words], SPACE_LIMIT):
            raise ValueError(
                f"exhaustive work {shown} exceeds {SPACE_LIMIT}: (W+1)^n vectors times "
                "1 + (2W+1)//64 words each; lower max_weight or use random mode"
            )
    else:
        # a trial draws n weights and ORs one bit per vertex pair into bitsets
        # of up to 2W+1 bits
        work = cfg.trials * (graph.n * (graph.n + 1) // 2) * (1 + (2 * bound + 1) // 64)
        if work > RANDOM_WORK_LIMIT:
            raise ValueError(
                f"random work trials * n(n+1)/2 * (1 + (2W+1)//64) = {_shown(work)} exceeds "
                f"{RANDOM_WORK_LIMIT}; lower trials or max_weight"
            )
    return replace(cfg, max_weight=bound)


def search_min_k(graph: Graph, cfg: SearchConfig | None = None) -> SearchResult:
    """Scan weight vectors in {0..W}^n for the fewest intervals realizing `graph`.

    Exhaustive mode is a census over boxes, each a product of per-vertex
    weight sets with vertex 0 at one weight, scanned in turn or by a pool of
    min(jobs, boxes, cpu count) processes.  The pool keeps at most two boxes
    per worker in flight, submitting one more for each result it takes in
    order, and a worker that dies raises `BrokenProcessPool`.  Boxes are
    folded as they arrive.  This function alone decides the boxes.  Adding
    c to every weight adds 2c to every pair sum, and mapping every weight w
    to W - w maps each sum s to 2W - s; both keep every tie and run count.
    Two vertices u and v share a weight in a tie-free vector only if they
    are twins, N(u) - v = N(v) - u: a vertex adjacent to one of them alone
    would make one sum both an edge and a non-edge sum.  T is the first
    vertex that is not a twin of vertex 0, or n if there is none.  J is the
    first j >= 2 at which vertices 0..j-1 hold an edge and a non-edge, or n;
    once vertices 0..J-1 share one weight, every pair among them has the
    same sum, so when J < n every vector left ties.
    One kernel, `_scan_box`, scans every box; the target picks its leaf
    mode.  Without a target, the census counts each vector once up to
    translation.  It scans relative vectors, vertex 0 at W in offset weights
    0..2W with every span at most W, and a leaf of span R stands for its
    W + 1 - R translates.  Under the mirror u -> 2W - u it scans the canonical
    half, the vectors whose first weight other than W is below W: the boxes
    "vertices 1..j-1 at W, vertex j below W, the rest free" for j = 1..T,
    which count twice.  Once vertices 0 and T share a weight every vector
    ties, so the boxes past T and the all-W vector are not scanned; when
    every vertex is a twin of vertex 0, the all-W vector is its own image
    and counts once: T boxes either way.  The stabilizer chain of
    `_stabilizer_chain` replaces the mirror when W + 1 >= n and its orbits
    O_i, restricted to vertices 0..n-2, multiply to 3 or more; the mirror
    halves the walk from vertex 1 on, while the last vertex's floor below
    prunes only the last two levels.  Below W + 1 = n every tie-free vector gives two
    twins one weight, and tie pruning does the work.  O_i is an orbit of a
    group H_i of automorphisms fixing 0..i-1, with H_0 >= H_1 >= ...  The
    census is then one box: vertex 0 at W, and every vertex of O_i at or
    above w_i.  Give each vector the weight 1/m_0, for the m_0 vertices of
    O_0 at O_0's lowest weight, to each of those vertices.  An automorphism
    maps {0..W}^n onto itself, keeps every count and permutes O_0, so each
    count is |O_0| times the sum of 1/m_0 over the vectors in which vertex 0
    is lightest among O_0.  H_1 fixes vertex 0 and keeps O_0, so it keeps
    that weighted sum, and level 1 divides it again in the same way, and so
    on down the chain: each count is prod |O_i| times the sum of
    1/prod m_i over the box's vectors, up to translation.  A pool gets the
    first box split by vertex 1's weight.  The explored count is the size
    of the space, (W+1)^n.  The witness is the lexicographically first
    vector with the best k, the least over those leaves of the translate
    with minimum 0 and that of its mirror image.  The chain's box holds it
    too: a map of H_i taking i to a lighter vertex of O_i would give an
    earlier vector with the same k, since it fixes 0..i-1.
    With a target, the census scans boxes of absolute weights 0..W in
    lexicographic order and stops at the first hit, so the explored count
    and the histogram are those of a plain scan up to the hit.  It scans the
    canonical half under w -> W - w, the vectors whose first weight other
    than W/2 lies below W/2, and counts each of them twice when no target is
    hit, once for its mirror image, which comes later in lexicographic
    order.  Those are the chunks with vertex 0 at w0 < W/2 and every other
    vertex at 0..W, W//2 + 1 boxes at odd W; at even W, chunk W/2
    contributes the boxes "vertices 0..j-1 at W/2, vertex j at 0..W/2-1, the
    rest at 0..W" for j = 1..J-1, which count twice too, and the box
    "vertices 0..J-1 at W/2, the rest at 0..W", its own image, which counts
    once: W/2 + J boxes.  A target that is never hit returns the census's
    result, which a census without a target finds faster.
    One vertex has W + 1 vectors and no pair sums, each with k = 0, so that
    census is answered in closed form: (0,) is the best and the hit of any
    target.
    Both modes place weights vertex by vertex and skip every prefix whose
    edge and non-edge sums already tie, so their cost grows with the number
    of tie-free prefixes, not with (W+1)^n.  The edge sums and the non-edge
    sums are two integer bitsets.  Entering a level costs one shifted OR per
    earlier vertex into a tie mask that marks every tying weight at once,
    so the level visits only its free weights; backing out of a prefix
    undoes nothing.  The last two levels are fused: for each free weight of
    vertex n-2 the last vertex's tie mask takes a fixed number of
    whole-integer operations, and its free weights are scored in the same
    loop (`_run_count`); a weight tuple is built only for a box's best.
    Every explored vector outside the histogram is infeasible; every count,
    the histogram and the witness match a plain vector-by-vector scan.
    Random mode draws `trials` vectors from a seeded generator and scores
    each with the same bitsets, stopping at its first tie.  Ties on the
    interval count are broken toward the lexicographically smallest vector,
    whose intervals are re-derived by the oracle as a cross-check.
    """
    return _search(graph, _validated(graph, cfg if cfg is not None else SearchConfig()))


def _search(graph: Graph, cfg: SearchConfig) -> SearchResult:
    """`search_min_k` on a configuration that `_validated` has checked and resolved."""
    bound = cfg.max_weight
    if cfg.mode == MODE_RANDOM:
        rng = random.Random(cfg.rng_seed)
        vectors = (
            tuple(rng.randint(0, bound) for _ in range(graph.n))
            for _ in range(cfg.trials)
        )
        total = _scan_random(graph, vectors, cfg.target_k)
    elif graph.n == 1:
        # W+1 vectors without pair sums, each with k = 0: (0,) is the best and any target's hit
        hit = cfg.target_k is not None
        total = _ChunkStats((0, (0,)), 1 if hit else bound + 1, hit=hit)
        total.histogram[0] = total.explored
    else:
        n = graph.n
        rows = [_earlier_split(graph, i) for i in range(n)]
        relative = cfg.target_k is None
        # a census's chain box beats the mirror's halving once the chain's orbits,
        # restricted to vertices 0..n-2, multiply to 3 or more: the mirror halves
        # the walk from vertex 1 on, while the last vertex's floor prunes only
        # the last two levels.  Below W + 1 = n every tie-free vector gives two vertices one
        # weight, which only twins may share, so tie pruning does the work
        levels = ()
        if relative and bound + 1 >= n:
            levels = tuple(orbit for orbit in _stabilizer_chain(graph) if len(orbit) > 1)
            if math.prod(len(orbit) - (orbit[-1] == n - 1) for orbit in levels) < 3:
                levels = ()
        workers = min(cfg.jobs, os.cpu_count() or 1) if cfg.jobs > 1 else 1
        # relative vectors put vertex 0 at W in offset weights 0..2W; lexicographic
        # boxes keep the weights 0..W
        full = (1 << (2 * bound + 1 if relative else bound + 1)) - 1
        if levels:
            # one box, vertex 0 at W and the rest of its orbit at W..2W, without the
            # mirror; `_scan_box` applies the deeper levels' floors and weights
            upper = full >> bound << bound
            zero = levels[0] if levels[0][0] == 0 else ()
            boxes = iter([[1 << bound] + [upper if v in zero else full for v in range(1, n)]])
            box_count, twinned = 1, 0
        else:
            # the canonical half under the mirror: the lexicographic chunks w0 < W/2
            # count twice, for themselves and for their images above W/2
            twinned = 0 if relative else (bound + 1) // 2
            boxes = ([1 << w0] + [full] * (n - 1) for w0 in range(twinned))
            box_count = twinned
            if relative or bound % 2 == 0:
                # the chunk at the centre c (W, or W/2) is its own image: its vectors
                # whose first weight other than c is below c count twice too
                centre = bound if relative else bound // 2
                mid, below = 1 << centre, (1 << centre) - 1
                if relative:
                    # T: the first vertex that is not a twin of vertex 0, or n.  A
                    # vertex telling vertices 0 and T apart makes one sum both an edge
                    # and a non-edge sum when they share a weight, so the boxes past T
                    # and the all-W vector tie whenever T < n
                    nb0 = graph.neighbors(0)
                    cut = next((t for t in range(1, n) if graph.neighbors(t) - {0} != nb0 - {t}), n)
                    splits = min(cut, n - 1)
                    rest = [[mid] * n] if cut == n else []
                else:
                    # J: once vertices 0..J-1 at one weight hold an edge (a non-empty
                    # nb) and a non-edge (a non-empty non), every pair among them has
                    # the same sum, so the rest past J ties; a lexicographic scan still
                    # counts it up to a hit, as one box, its own image, counted once
                    cut = next((j for j in range(2, n) if all(map(any, zip(*rows[:j])))), n)
                    splits = cut - 1
                    rest = [[mid] * cut + [full] * (n - cut)]
                split = ([mid] * j + [below] + [full] * (n - 1 - j) for j in range(1, splits + 1))
                boxes = chain(boxes, split, rest)
                twinned += splits
                box_count = twinned + len(rest)
        if relative and workers > 1:
            # a pool gets the first box split by vertex 1's weight
            first = next(boxes)
            weights = [x for x in range(first[1].bit_length()) if first[1] >> x & 1]
            if twinned:
                twinned += len(weights) - 1
            box_count += len(weights) - 1
            boxes = chain(([first[0], 1 << x, *first[2:]] for x in weights), boxes)
        workers = min(workers, box_count)
        tasks = ((rows, spans, bound, cfg.target_k, levels) for spans in boxes)
        if workers == 1:
            total = _merge_chunks(map(_scan_box, tasks), twinned)
        else:
            # imported here: loading concurrent.futures.process costs every process about 30 ms
            from concurrent.futures import ProcessPoolExecutor

            # leaving the block waits for the boxes still in flight after an early stop
            with ProcessPoolExecutor(workers) as pool:
                window = deque(pool.submit(_scan_box, t) for t in islice(tasks, 2 * workers))

                def in_order():
                    while window:
                        chunk = window.popleft().result()
                        window.extend(pool.submit(_scan_box, t) for t in islice(tasks, 1))
                        yield chunk

                total = _merge_chunks(in_order(), twinned)
        if relative:
            total.explored = (bound + 1) ** n
            if levels:
                # count_k = prod |O_i| * sum over P of c_{P,k} / P, which `_scan_box`
                # scaled by L = prod lcm(1..|O_i|)
                size = math.prod(map(len, levels))
                scale = math.prod(math.lcm(*range(1, len(orbit) + 1)) for orbit in levels)
                total.histogram = {k: c * size // scale for k, c in total.histogram.items()}
    complete = cfg.mode == MODE_EXHAUSTIVE and not total.hit

    best_k = None
    best_witness = None
    if total.best is not None:
        best_k, best_vec = total.best
        oracle = min_intervals_for_weights(graph, best_vec)
        if not isinstance(oracle, Feasible) or oracle.k != best_k:
            raise RuntimeError(
                f"search kernel found k={best_k} for weights {list(best_vec)}, "
                f"but the oracle gives {oracle}"
            )
        best_witness = Witness(best_vec, oracle.intervals)
    return SearchResult(
        best_k=best_k,
        best_witness=best_witness,
        explored=total.explored,
        exhaustive_within_bound=complete,
        k_histogram=dict(sorted(total.histogram.items())),
        # every explored vector is either feasible, in the histogram, or infeasible
        infeasible_count=total.explored - sum(total.histogram.values()),
    )


def search_report(graph: Graph, cfg: SearchConfig | None = None) -> dict:
    """Run a search and package the result as a JSON-ready summary."""
    # validated once: the report echoes the max_weight that _validated resolved
    cfg = _validated(graph, cfg if cfg is not None else SearchConfig())
    result = _search(graph, cfg)
    return {
        "config": {
            "max_weight": cfg.max_weight,
            "mode": cfg.mode,
            "trials": cfg.trials if cfg.mode == MODE_RANDOM else None,
            "seed": cfg.rng_seed if cfg.mode == MODE_RANDOM else None,
            "target_k": cfg.target_k,
            "jobs": cfg.jobs,
        },
        "best_k": result.best_k,
        "best_witness": result.best_witness.to_dict() if result.best_witness else None,
        "explored": result.explored,
        "exhaustive_within_bound": result.exhaustive_within_bound,
        "k_histogram": {str(k): c for k, c in result.k_histogram.items()},
        "infeasible_count": result.infeasible_count,
    }


def format_search_report(report: dict) -> str:
    """Human-readable rendering of a search_report summary."""
    lines = []
    if report["best_k"] is None:
        lines.append("best: no feasible weighting explored")
    else:
        w = report["best_witness"]
        lines.append(f"best: {report['best_k']} interval(s)")
        lines.append(f"  weights   {w['weights']}")
        lines.append(f"  intervals {w['intervals']}")
    lines.append(
        f"explored {report['explored']} vector(s), "
        f"{report['infeasible_count']} infeasible"
    )
    hist = ", ".join(f"k={k}: {c}" for k, c in report["k_histogram"].items())
    lines.append(f"histogram: {hist if hist else '(empty)'}")
    if report["exhaustive_within_bound"]:
        lines.append(
            f"covered all vectors with weights <= {report['config']['max_weight']}; "
            "larger weights remain unexplored, so this is evidence, not impossibility"
        )
    else:
        lines.append("partial scan; results are an upper bound only")
    return "\n".join(lines) + "\n"
