"""Reference oracle: the sort-based minimum-interval kernel, kept for comparison.

This is the package's earlier `min_intervals_for_weights`: it builds and
sorts every (sum, u, v) triple and walks the sorted list, so it is slow
(O(n^2 log n)) but simple.  The package now counts pair sums through a sum
table instead; tests compare the two result for result, including which
edge and non-edge an `Infeasible` names.
"""

from __future__ import annotations

from starpcg import Feasible, Infeasible


def reference_min_intervals(graph, weights):
    """Feasible(k, intervals) or Infeasible(edge, nonedge), by sorting all pairs."""
    if len(weights) != graph.n:
        raise ValueError(f"{len(weights)} weights for a graph on {graph.n} vertices")
    entries = sorted(
        (weights[u] + weights[v], u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
    )
    runs = []
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


def brute_force_edges(weights, intervals):
    """Realized edges by testing every pair against every interval."""
    n = len(weights)
    return sorted(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if any(lo <= weights[u] + weights[v] <= hi for lo, hi in intervals)
    )
