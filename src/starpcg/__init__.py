"""Star pairwise-compatibility witnesses.

A graph is realized by an edge-weighted star with k accepting intervals when
two vertices are adjacent exactly if their weights sum into one of the
intervals.  This package builds such witnesses for cycles, paths, and grids,
verifies arbitrary witnesses, computes the exact minimum interval count for
fixed weights, produces certificates that a weighting needs more intervals,
and searches bounded integer weight spaces.
"""

from .constructions import (
    cycle_witness,
    grid2_witness,
    grid_square_witness,
    grid_witness,
    path_witness,
)
from .graphs import (
    Graph,
    GridShape,
    induced_subgraph,
    make_cycle,
    make_grid,
    make_path,
)
from .obstruction import (
    Certificate,
    CertificateError,
    KIND_INTERLEAVING,
    check_certificate,
    cycle_star1_obstruction,
    grid4d_certificate,
    interleaving_certificate,
)
from .search import (
    MODE_EXHAUSTIVE,
    MODE_RANDOM,
    SearchConfig,
    SearchResult,
    format_search_report,
    search_min_k,
    search_report,
)
from .stars import (
    Feasible,
    Infeasible,
    VerifyReport,
    Witness,
    check_intervals,
    check_weights,
    min_intervals_for_weights,
    realize,
    universal_witness,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "Feasible",
    "Graph",
    "GridShape",
    "Infeasible",
    "KIND_INTERLEAVING",
    "MODE_EXHAUSTIVE",
    "MODE_RANDOM",
    "SearchConfig",
    "SearchResult",
    "VerifyReport",
    "Witness",
    "check_certificate",
    "check_intervals",
    "check_weights",
    "cycle_star1_obstruction",
    "cycle_witness",
    "format_search_report",
    "grid2_witness",
    "grid4d_certificate",
    "grid_square_witness",
    "grid_witness",
    "induced_subgraph",
    "interleaving_certificate",
    "make_cycle",
    "make_grid",
    "make_path",
    "min_intervals_for_weights",
    "path_witness",
    "realize",
    "search_min_k",
    "search_report",
    "universal_witness",
    "verify",
]
