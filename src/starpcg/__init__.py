"""Star pairwise-compatibility witnesses.

A graph is realized by an edge-weighted star with k accepting intervals when
two vertices are adjacent exactly if their weights sum into one of the
intervals.  This package builds such witnesses for cycles, paths, and grids,
verifies arbitrary witnesses, computes the exact minimum interval count for
fixed weights, produces certificates that a weighting needs more intervals,
and searches bounded integer weight spaces.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the layer it lives in.  A layer is imported the first
# time one of its names is read, so `import starpcg` (and the CLI, which
# imports only what its subcommand calls) loads no layer it does not use.
_LAYERS = {
    "constructions": (
        "cycle_witness",
        "grid2_witness",
        "grid_square_witness",
        "grid_witness",
        "path_witness",
    ),
    "graphs": (
        "Graph",
        "GridShape",
        "check_weights",
        "induced_subgraph",
        "make_cycle",
        "make_grid",
        "make_path",
    ),
    "obstruction": (
        "Certificate",
        "CertificateError",
        "KIND_INTERLEAVING",
        "check_certificate",
        "cycle_star1_obstruction",
        "grid4d_certificate",
        "interleaving_certificate",
    ),
    "search": (
        "MODE_EXHAUSTIVE",
        "MODE_RANDOM",
        "SearchConfig",
        "SearchResult",
        "format_search_report",
        "search_min_k",
        "search_report",
    ),
    "stars": (
        "Feasible",
        "Infeasible",
        "VerifyReport",
        "Witness",
        "check_intervals",
        "min_intervals_for_weights",
        "realize",
        "universal_witness",
        "verify",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
