"""Seeded random builders shared across the test modules."""

from __future__ import annotations

import random

from starpcg import Graph


def random_graph(rng: random.Random, n_min: int = 1, n_max: int = 10) -> Graph:
    """Random simple graph; occasionally edgeless or complete."""
    n = rng.randint(n_min, n_max)
    roll = rng.random()
    p = 0.0 if roll < 0.08 else 1.0 if roll > 0.92 else rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# Sizes, vertex ids and counts that are not integers; each must raise ValueError.
NOT_INTS = (True, 2.0, "3", None)


def random_weights(rng: random.Random, n: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, bound) for _ in range(n))


def random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """Random d-regular simple graph on n vertices, by the configuration model.

    Pairs up n*d shuffled vertex stubs and redraws until no pair is a loop
    or a repeated edge; n*d must be even.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return Graph(n, pairs)
