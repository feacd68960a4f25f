"""Bounded search for the fewest intervals any integer weighting needs.

Results are evidence, not proof: integer weights lose no generality, but no
a-priori bound on the largest useful weight is known, so a search that covers
all vectors up to a bound only rules out witnesses within that bound.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable

from .graphs import Graph, _check_int
from .stars import Feasible, Witness, min_intervals_for_weights

SPACE_LIMIT = 10**9

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOM = "random"


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; identical configs give identical results.

    max_weight defaults to 2n when left unset.  target_k stops the scan at
    the first vector (in scan order) achieving at most target_k intervals.
    The exhaustive census has one chunk per first weight w0; unless symmetry
    pruning moves vertex 0, it scans only w0 <= W//2 and counts the rest from
    their mirror images.  jobs > 1 spreads the scanned chunks over min(jobs,
    scanned chunks, cpu count) processes; the merge reproduces the serial
    scan exactly.  Random mode draws `trials` vectors and reads a vertex's
    adjacency only once some vector gets that far without a tie.  It ignores
    jobs and prune_symmetry: it always runs in-process and never prunes by
    symmetry, though `search_report` echoes both fields.
    """

    max_weight: int | None = None
    mode: str = MODE_EXHAUSTIVE
    trials: int = 1000
    rng_seed: int = 0
    target_k: int | None = None
    jobs: int = 1
    prune_symmetry: bool = False


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
    infeasible: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    # a target_k hit is always `best`: every earlier leaf has k > target_k
    hit: bool = False

    def add_counts(self, other: _ChunkStats) -> None:
        self.explored += other.explored
        self.infeasible += other.infeasible
        for k, c in other.histogram.items():
            self.histogram[k] = self.histogram.get(k, 0) + c

    def record(self, k: int, vec: tuple[int, ...], target_k: int | None) -> bool:
        """Count one feasible vector; True when it is the first target_k hit."""
        self.explored += 1
        self.histogram[k] = self.histogram.get(k, 0) + 1
        if self.best is None or (k, vec) < self.best:
            self.best = (k, vec)
        if target_k is not None and k <= target_k:
            self.hit = True
        return self.hit


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
# non-zero (two earlier vertices of equal weight that i splits).


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
                stats.explored += 1
                stats.infeasible += 1
                break
            E |= e
            N |= nn
        else:
            if stats.record(_run_count(E, N), vec, target_k):
                break
    return stats


def _scan_chunk(args) -> _ChunkStats:
    """Depth-first census of every vector whose first weight is w0.

    Prefixes are extended in lexicographic order, so leaves arrive in the
    order of a plain scan of {0..W}^n.  A prefix whose sums already tie is
    not descended: all its completions are counted as explored and
    infeasible at once.  With symmetry pruning, the vertices of vertex 0's
    orbit other than 0 only take weights >= w0; the skipped vectors are not
    counted.
    """
    rows, bound, w0, target_k, orbit = args
    n = len(rows)
    stats = _ChunkStats()
    w = [w0] + [0] * (n - 1)
    lows = [w0 if v in orbit else 0 for v in range(n)]
    # completions[i]: vectors sharing one prefix of length i
    completions = [1] * (n + 1)
    for v in range(n - 1, 0, -1):
        completions[v] = completions[v + 1] * (bound + 1 - lows[v])

    def descend(i: int, E: int, N: int) -> bool:
        if i == n:
            return stats.record(_run_count(E, N), tuple(w), target_k)
        nb, non = rows[i]
        ae = an = 0
        for j in nb:
            ae |= 1 << w[j]
        for j in non:
            an |= 1 << w[j]
        subtree = completions[i + 1]
        if ae & an:
            stats.explored += completions[i]
            stats.infeasible += completions[i]
            return False
        ties = 0
        hit = False
        for x in range(lows[i], bound + 1):
            e = ae << x
            nn = an << x
            if e & N or nn & E:
                ties += 1
                continue
            w[i] = x
            hit = descend(i + 1, E | e, N | nn)
            if hit:
                break
        stats.explored += ties * subtree
        stats.infeasible += ties * subtree
        return hit

    descend(1, 0, 0)
    return stats


def _merge_chunks(chunks: Iterable[_ChunkStats], twinned: int) -> _ChunkStats:
    """Fold per-chunk stats in scan order, drawing none past the first target hit.

    When no chunk hits the target, the first `twinned` chunks count twice:
    once for themselves and once for their unscanned mirror chunks.
    """
    total = _ChunkStats()
    twins = _ChunkStats()
    for w0, chunk in enumerate(chunks):
        total.add_counts(chunk)
        if chunk.best is not None and (total.best is None or chunk.best < total.best):
            total.best = chunk.best
        if chunk.hit:
            total.hit = True
            return total
        if w0 < twinned:
            twins.add_counts(chunk)
    total.add_counts(twins)
    return total


def _automorphism_maps_zero_to(graph: Graph, target: int) -> bool:
    """Backtracking check for an adjacency-preserving bijection sending 0 to target."""
    n = graph.n
    image = [-1] * n
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        for cand in range(n):
            if used[cand] or graph.degree(cand) != graph.degree(u):
                continue
            ok = True
            for t in range(u):
                if graph.has_edge(u, t) != graph.has_edge(cand, image[t]):
                    ok = False
                    break
            if ok:
                image[u] = cand
                used[cand] = True
                if extend(u + 1):
                    return True
                used[cand] = False
        return False

    if graph.degree(0) != graph.degree(target):
        return False
    image[0] = target
    used[target] = True
    return extend(1)


def _orbit_of_zero(graph: Graph) -> tuple[int, ...]:
    return tuple(
        v for v in range(graph.n) if v == 0 or _automorphism_maps_zero_to(graph, v)
    )


def _validated(graph: Graph, cfg: SearchConfig) -> SearchConfig:
    """`cfg` with every field checked and max_weight resolved (2n when unset)."""
    if graph.n == 0:
        raise ValueError("search needs at least one vertex")
    if cfg.mode not in (MODE_EXHAUSTIVE, MODE_RANDOM):
        raise ValueError(f"unknown search mode {cfg.mode!r}")
    # exhaustive mode ignores trials, so any integer passes there
    _check_int(cfg.trials, "trials", 1 if cfg.mode == MODE_RANDOM else None)
    _check_int(cfg.rng_seed, "rng_seed", None)
    _check_int(cfg.jobs, "jobs", 1)
    if cfg.target_k is not None:
        _check_int(cfg.target_k, "target_k", 0)
    if type(cfg.prune_symmetry) is not bool:
        raise ValueError(f"prune_symmetry must be a bool, got {cfg.prune_symmetry!r}")
    bound = cfg.max_weight if cfg.max_weight is not None else 2 * graph.n
    _check_int(bound, "max_weight", 1)
    if cfg.mode == MODE_EXHAUSTIVE:
        # one vertex still costs one chunk per first weight, so the bound
        # counts it as two: W = 999999999 is refused rather than walked
        space = (bound + 1) ** max(graph.n, 2)
        if space > SPACE_LIMIT:
            raise ValueError(
                f"exhaustive space (W+1)^n = {space} exceeds {SPACE_LIMIT}; "
                "lower max_weight or use random mode"
            )
    return replace(cfg, max_weight=bound)


def search_min_k(graph: Graph, cfg: SearchConfig | None = None) -> SearchResult:
    """Scan weight vectors in {0..W}^n for the fewest intervals realizing `graph`.

    Exhaustive mode is a census in lexicographic order: one chunk per first
    weight, scanned in turn or by a pool of min(jobs, scanned chunks, cpu
    count) processes.  The pool keeps at most two chunks per worker in flight,
    submitting one more for each result it takes in w0 order, and a worker
    that dies raises `BrokenProcessPool`.  Chunks are folded as they arrive,
    so the scan stops at the first target hit.  A chunk places
    weights vertex by vertex, and a prefix whose edge and non-edge sums
    already tie is skipped, with all its completions counted as explored and
    infeasible.  Its cost therefore grows with the number of tie-free
    prefixes, not with (W+1)^n.  The edge sums and the non-edge sums are two
    integer bitsets: placing a weight is one shift and one test per set,
    backing out of a prefix undoes nothing, and a leaf's interval count is a
    few whole-integer operations (`_run_count`).  Mapping every weight w to
    W - w maps each sum s to 2W - s and keeps every tie and run count, so
    chunk W - w0 has the counts of chunk w0 and only lexicographically larger
    vectors: unless symmetry pruning moves vertex 0, only chunks w0 <= W//2
    are scanned, and those below W/2 count twice when no target is hit.  Every
    count, the histogram and the witness match a plain vector-by-vector scan.
    Random mode draws `trials` vectors from a seeded generator and scores
    each with the same bitsets, stopping at its first tie.  Ties on the
    interval count are broken toward the lexicographically smallest vector,
    whose intervals are re-derived by the oracle as a cross-check.
    """
    cfg = _validated(graph, cfg if cfg is not None else SearchConfig())
    bound = cfg.max_weight
    if cfg.mode == MODE_EXHAUSTIVE:
        rows = [_earlier_split(graph, i) for i in range(graph.n)]
        orbit = _orbit_of_zero(graph) if cfg.prune_symmetry else ()
        # the orbit bound w >= w0 does not survive the mirror, so pruned scans are full
        mirror = len(orbit) <= 1
        last = bound // 2 if mirror else bound
        workers = min(cfg.jobs, last + 1, os.cpu_count() or 1)
        tasks = ((rows, bound, w0, cfg.target_k, orbit) for w0 in range(last + 1))
        twinned = (bound + 1) // 2 if mirror else 0
        if workers == 1:
            total = _merge_chunks(map(_scan_chunk, tasks), twinned)
        else:
            # imported here: loading concurrent.futures.process costs every process about 30 ms
            from concurrent.futures import ProcessPoolExecutor

            # leaving the block waits for the chunks still in flight after an early stop
            with ProcessPoolExecutor(workers) as pool:
                window = deque(pool.submit(_scan_chunk, t) for t in islice(tasks, 2 * workers))

                def in_order():
                    while window:
                        chunk = window.popleft().result()
                        window.extend(pool.submit(_scan_chunk, t) for t in islice(tasks, 1))
                        yield chunk

                total = _merge_chunks(in_order(), twinned)
        complete = not total.hit
    else:
        rng = random.Random(cfg.rng_seed)
        vectors = (
            tuple(rng.randint(0, bound) for _ in range(graph.n))
            for _ in range(cfg.trials)
        )
        total = _scan_random(graph, vectors, cfg.target_k)
        complete = False

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
        exhaustive_within_bound=complete and cfg.mode == MODE_EXHAUSTIVE,
        k_histogram=dict(sorted(total.histogram.items())),
        infeasible_count=total.infeasible,
    )


def search_report(graph: Graph, cfg: SearchConfig | None = None) -> dict:
    """Run a search and package the result as a JSON-ready summary."""
    cfg = _validated(graph, cfg if cfg is not None else SearchConfig())
    result = search_min_k(graph, cfg)
    return {
        "config": {
            "max_weight": cfg.max_weight,
            "mode": cfg.mode,
            "trials": cfg.trials if cfg.mode == MODE_RANDOM else None,
            "seed": cfg.rng_seed if cfg.mode == MODE_RANDOM else None,
            "target_k": cfg.target_k,
            "jobs": cfg.jobs,
            "prune_symmetry": cfg.prune_symmetry,
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
