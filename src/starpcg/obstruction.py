"""Certificates that a fixed weighting cannot be realized with few intervals.

The core fact: if some vertex x has neighbors v_1, ..., v_{k+1} and
non-neighbors u_1, ..., u_k whose weights interleave as
w(v_1) <= w(u_1) <= w(v_2) <= ... <= w(u_k) <= w(v_{k+1}), then the k+1 edge
sums at x are separated by the k non-edge sums, so no k intervals realize the
graph with these weights.  Certificates package such configurations for
independent re-checking, which walks the chain v_1, u_1, ..., u_k, v_{k+1}
once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Collection, Sequence

from .graphs import Graph, _check_int, _check_weight_count, _shown, make_grid

KIND_INTERLEAVING = "interleaving"


class CertificateError(ValueError):
    """A certificate failed validation against its graph and weights."""


@dataclass(frozen=True)
class Certificate:
    """Pivot vertex x, neighbor chain vs, and separating non-neighbors us.

    kind "interleaving": len(vs) == k+1 neighbors of x and len(us) == k
    non-neighbors with weights interleaving, ruling out k intervals.
    """

    kind: str
    x: int
    vs: tuple[int, ...]
    us: tuple[int, ...]
    k: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "x": self.x,
            "vs": list(self.vs),
            "us": list(self.us),
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise ValueError('certificate JSON must be {"kind": ..., "x": ..., '
                             '"vs": [...], "us": [...], "k": ...}')
        try:
            cert = cls(obj["kind"], obj["x"], obj["vs"], obj["us"], obj["k"])
        except KeyError as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        _check_fields(cert)
        return replace(cert, vs=tuple(cert.vs), us=tuple(cert.us))


def _check_fields(cert: Certificate) -> None:
    """Raise CertificateError unless x and each vertex in vs and us are ints >= 0, and k >= 1."""
    try:
        _check_int(cert.x, "x", 0)
        _check_int(cert.k, "k", 1)
        for name, chain in (("vs", cert.vs), ("us", cert.us)):
            if not isinstance(chain, (list, tuple)):
                raise ValueError(f"{name} must be a list of vertices, got {_shown(chain)}")
            for v in chain:
                _check_int(v, f"{name} entry", 0)
    except ValueError as exc:
        raise CertificateError(str(exc)) from None


def check_certificate(cert: Certificate, graph: Graph, weights: Sequence[int]) -> None:
    """Re-check a certificate from first principles; raise CertificateError if bad.

    After the field, weight, pivot, kind and count checks, vs and us must hold
    2k+1 distinct vertices, and one walk along the chain v_1, u_1, v_2, ...,
    u_k, v_{k+1} checks the rest: each v is a neighbor of x, each u a vertex
    of the graph outside N(x) + x, and no weight is below the one before it.
    """
    _check_fields(cert)
    try:
        w = _check_weight_count(weights, graph.n)
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    if cert.x >= graph.n:
        raise CertificateError(f"pivot {_shown(cert.x)} out of range")
    if cert.kind != KIND_INTERLEAVING:
        raise CertificateError(f"unknown certificate kind {_shown(cert.kind)}")
    if len(cert.vs) != cert.k + 1 or len(cert.us) != cert.k:
        raise CertificateError("interleaving needs k+1 neighbors and k non-neighbors")
    if len({*cert.vs, *cert.us}) != 2 * cert.k + 1:
        raise CertificateError("repeated vertex in vs or us")
    nb = graph.neighbors(cert.x)
    chain = [0] * (2 * cert.k + 1)
    chain[::2], chain[1::2] = cert.vs, cert.us
    for j, y in enumerate(chain):
        if j % 2 == 0 and y not in nb:
            raise CertificateError(f"{_shown(y)} is not a neighbor of pivot {_shown(cert.x)}")
        if j % 2 and (y == cert.x or y in nb):
            raise CertificateError(f"{_shown(y)} is not outside N({_shown(cert.x)}) + pivot")
        if y >= graph.n:  # only a separator gets here out of range
            raise CertificateError(f"separator {_shown(y)} out of range")
        if j and w[y] < w[chain[j - 1]]:
            # position i spans v_i, u_i, v_{i+1}; a break at u_i shows the two read so far
            i = (j - 1) // 2
            shown = ", ".join(_shown(w[v]) for v in chain[2 * i : j + 1])
            raise CertificateError(f"weights do not interleave at position {i}: {shown}")


def _first_interleaving(
    n: int, neighbors: Callable[[int], Collection[int]], w: tuple[int, ...], k: int
) -> Certificate | None:
    """Interleaving certificate at the lowest pivot that has one, or None.

    The graph has vertices 0..n-1 and `neighbors(x)` is x's neighbor set.

    The chain alternates between the pivot's neighbors and its non-neighbors,
    each step taking the first unused one, in (weight, id) order, whose weight
    is not below the chain's last.  Taking the smallest admissible weight keeps
    every later constraint as loose as possible, so the greedy chain exists
    whenever any chain does.  A non-neighbor step bisects the vertices, sorted
    once per call, at the last weight, so a pivot costs O(deg log deg + k log n).
    """
    # sorting by weight alone is stable, so ids in ascending order give (weight, id)
    order = sorted(range(n), key=w.__getitem__)
    ws = sorted(w)
    for x in range(n):
        nb_set = neighbors(x)
        nb = sorted(sorted(nb_set), key=w.__getitem__)
        if len(nb) < k + 1 or n - 1 - len(nb) < k:
            continue
        vs: list[int] = []
        us: list[int] = []
        ai = bi = 0
        last = 0  # weights are non-negative, so 0 is a safe floor
        while True:
            while ai < len(nb) and w[nb[ai]] < last:
                ai += 1
            if ai == len(nb):
                break
            vs.append(nb[ai])
            last = w[nb[ai]]
            ai += 1
            if len(vs) == k + 1:
                return Certificate(KIND_INTERLEAVING, x, tuple(vs), tuple(us), k)
            bi = max(bi, bisect_left(ws, last))
            while bi < len(order) and (order[bi] == x or order[bi] in nb_set):
                bi += 1
            if bi == len(order):
                break
            us.append(order[bi])
            last = ws[bi]
            bi += 1
    return None


def interleaving_certificate(graph: Graph, weights: Sequence[int], k: int) -> Certificate | None:
    """Search every pivot for a weight interleaving ruling out k intervals.

    Deterministic: smallest pivot wins, then the greedy earliest chain.
    Returns None when no pivot interleaves (which proves nothing).
    """
    _check_int(k, "k", 1)
    w = _check_weight_count(weights, graph.n)
    return _first_interleaving(graph.n, graph.neighbors, w, k)


def cycle_star1_obstruction(n: int, weights: Sequence[int]) -> Certificate:
    """Certificate that the cycle on n >= 5 vertices beats one interval.

    Some neighbor of a lightest vertex a always interleaves.  The pivot a+1
    has neighbors a and a+2, and no vertex weighs less than a, so it fails
    only if every vertex outside {a, a+1, a+2} weighs more than a+2.
    Likewise a-1 fails only if every vertex outside {a, a-1, a-2} weighs more
    than a-2.  For n >= 5, a-2 lies outside the first set and a+2 outside the
    second, so both failing would give w(a+2) < w(a-2) < w(a+2).  The greedy
    chain is complete for each pivot, so the scan always returns a
    certificate; the raise below only flags a fault.
    """
    _check_int(n, "n", 5)
    w = _check_weight_count(weights, n)
    cert = _first_interleaving(n, lambda x: {(x - 1) % n, (x + 1) % n}, w, 1)
    if cert is None:
        raise RuntimeError("no star-1 obstruction found for a cycle; this should be unreachable")
    return cert


@lru_cache(maxsize=1)
def _grid4() -> Graph:
    """The 3x3x3x3 grid, built once."""
    return make_grid((3, 3, 3, 3))


def grid4d_certificate(weights: Sequence[int]) -> Certificate:
    """Certificate that the 3x3x3x3 grid beats two intervals for these weights.

    The scan behind `interleaving_certificate`, on a cached grid, so the result
    is that function's at k = 2.  The greedy chain is complete for each pivot,
    so a certificate is found whenever any pivot interleaves.  A weighting
    with no interleaving pivot is flagged by raising instead of guessing.
    """
    graph = _grid4()
    w = _check_weight_count(weights, graph.n)
    cert = _first_interleaving(graph.n, graph.neighbors, w, 2)
    if cert is None:
        raise RuntimeError(
            "no star-2 obstruction certificate found for this 3x3x3x3 weighting; "
            "flagging instead of guessing"
        )
    return cert
