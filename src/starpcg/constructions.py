"""Closed-form star witnesses for cycles, paths, and two-dimensional grids.

Each function returns a witness whose realization is exactly the named graph
under the package's vertex numbering (cycles: 0..n-1 around the cycle; grids:
row-major flat ids).
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .graphs import _check_int
from .stars import Witness


def cycle_witness(n: int) -> Witness:
    """Two-interval witness for the cycle on n >= 3 vertices.

    Weights alternate between a descending high band and an ascending low band
    so consecutive vertices sum into a narrow window; the second interval is a
    singleton that accepts only the wrap-around edge.
    """
    _check_int(n, "n", 3)
    if n % 2 == 0:
        base = n + n // 2
        weights = tuple(
            base - (i - 1) // 2 if i % 2 == 1 else i // 2
            for i in range(1, n + 1)
        )
        intervals = ((base, base + 1), (2 * n, 2 * n))
    else:
        weights = tuple(
            n - 1 if i == n else (n + i if i % 2 == 1 else n - i)
            for i in range(1, n + 1)
        )
        intervals = ((2 * n - 1, 2 * n + 1), (n, n))
    return Witness(weights, intervals)


def _ladder(n1: int, n2: int, rows: bool) -> Witness:
    """The one-interval ladder on the n1 x n2 grid.

    Its m rungs are the rows when `rows`, else the columns, and each rung
    has at most two cells.  Cell (i, j) on rung r (i or j) weighs 2m - r when
    i + j is even and r + 1 otherwise, so every grid edge sums to 2m, 2m + 1
    or 2m + 2, and no other pair does.
    """
    m = n1 if rows else n2
    cells = product(range(n1), range(n2))
    weights = tuple(r + 1 if (i + j) % 2 else 2 * m - r for i, j in cells for r in [i if rows else j])
    return Witness(weights, ((2 * m, 2 * m + 2),))


def path_witness(n: int) -> Witness:
    """One-interval witness for the path on n >= 1 vertices (the ladder's column 0)."""
    _check_int(n, "n", 1)
    return _ladder(n, 1, True)


def grid2_witness(n1: int) -> Witness:
    """One-interval witness for the grid with n1 rows and 2 columns."""
    _check_int(n1, "n1", 1)
    return _ladder(n1, 2, True)


def _square_weight(h: int, i: int, j: int) -> int:
    # The two ramps are offset by one so that same-parity pair sums stay
    # strictly clear of both accepting windows: without the offset the two
    # lightest even cells, (h-1, h-1) and (h-1, h-3), would sum to exactly
    # the top of the second window.
    if (i + j) % 2 == 1:
        return (i + j - 1) * h // 2 + i
    return (2 * h - 1) * h - (i + j) * h // 2 - i + 1


def _square(h: int, n1: int, n2: int) -> Witness:
    """The h x h square weighting on its first n1 rows and n2 columns."""
    weights = tuple(_square_weight(h, i, j) for i in range(n1) for j in range(n2))
    lo = 2 * h * (h - 1)
    return Witness(weights, ((lo, lo + 1), (lo + h + 1, lo + h + 2)))


def grid_square_witness(h: int) -> Witness:
    """Two-interval witness for the h x h grid, h >= 1.

    Checkerboard weighting: odd-parity cells get small ascending weights and
    even-parity cells large descending ones, so the four orthogonal steps land
    in one of two short windows while diagonal and farther pairs miss both.
    """
    _check_int(h, "h", 1)
    return _square(h, h, h)


def grid_witness(n1: int, n2: int) -> Witness:
    """Witness for the n1 x n2 grid with as few intervals as this module knows.

    One interval suffices when min(n1, n2) <= 2 (path or two-column layout);
    otherwise the square witness for h = max(n1, n2) is restricted to the
    occupied coordinate box, keeping both intervals.
    """
    return _construction("grid", (n1, n2))[2]


def _construction(family: str, sizes: Sequence[int]) -> tuple[str, dict, Witness]:
    """(name, size fields, witness) of the construction for `family` at `sizes`.

    The one place that picks and names a construction: `grid_witness` and
    the CLI's `witness` record both come from here.  Grids must have exactly
    two dimensions.
    """
    if family == "cycle":
        (n,) = sizes
        return ("cycle-even" if n % 2 == 0 else "cycle-odd"), {"n": n}, cycle_witness(n)
    if family == "path":
        (n,) = sizes
        return "path", {"n": n}, path_witness(n)
    if len(sizes) != 2:
        raise ValueError("witness generation supports grids with exactly two dimensions")
    n1, n2 = sizes
    _check_int(n1, "n1", 1)
    _check_int(n2, "n2", 1)
    fields = {"n1": n1, "n2": n2}
    if min(n1, n2) <= 2:
        # the ladder runs along the longer side; a 2 x 2 grid takes grid2_witness's rows
        return ("path" if min(n1, n2) == 1 else "grid-two-columns"), fields, _ladder(n1, n2, n1 >= n2)
    h = max(n1, n2)
    name = "grid-square" if n1 == n2 else "grid-square-restricted"
    return name, {"h": h, **fields}, _square(h, n1, n2)
