"""Command line front end.

Exit codes: 0 success (and verify-equal), 1 verification mismatch, 2 no
certificate found, 64 usage or argument error.  Paths may be '-' for
stdin/stdout.  All randomness comes from an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

# Each handler imports the layers it calls once its input files have loaded,
# so a process loads only what its subcommand needs: `generate` stops at graphs.
from .graphs import Graph, _check_count, _oversized, _shown, make_cycle, make_grid, make_path

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_NO_CERTIFICATE = 2
EXIT_USAGE = 64

# Family sizes and graph files past this many vertices are refused before
# anything is built.  Just under it, `generate grid 316 316` takes about 0.5 s
# and 90 MB peak RSS on a 2-vCPU x86-64 host, and both grow linearly.
VERTEX_BUDGET = 10**5
# `verify` refuses a witness that realizes more edges than this, counted from
# the realization's block bounds before any edge is built.  At the limit a
# mismatch against an edgeless graph takes about 2 s and 200 MB peak RSS on
# the same host; 10^5 equal weights would otherwise realize 5*10^9 edges.
EDGE_BUDGET = 10**6
# `verify` refuses n * min(k, n) above this before counting edges.  The
# realization walks vertex by vertex, where a vertex costs up to min(k+1, n)
# bisect steps even if no interval holds a pair sum, or interval by interval
# when the intervals' position ranges total at most 8n, at two bisects per
# position (`stars._INTERVAL_WALK_SPAN`); n * min(k, n) bounds both.  At the
# limit, weights 0, 2, ..., 6322 under 6324 odd singletons realize no edge,
# walk vertex by vertex, and the command takes about 11 s on the same host.
STEP_BUDGET = 10**7
# search.MODE_EXHAUSTIVE and search.MODE_RANDOM, spelled out so that building
# the parser does not import the search layer.
SEARCH_MODES = ("exhaustive", "random")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output to {path}: {exc}") from exc


def _load_json(path: str, what: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what} from {path}: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit for int(str)
        raise _UsageError(f"cannot read {what} from {path}: a number in it is too long") from exc


def _load_graph(path: str) -> Graph:
    obj = _load_json(path, "graph")
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > VERTEX_BUDGET:
        raise _UsageError(f"graph has {_shown(n)} vertices; the limit is {VERTEX_BUDGET}")
    return Graph.from_dict(obj)


def _int_arg(text: str, refusal: str = "invalid int value: {}") -> int:
    """`int(text)`; else ArgumentTypeError with `refusal` quoting `text`, or "too many digits"."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):  # an integer past Python's digit limit (3.11+)
            refusal = "integer {} has too many digits"
        raise argparse.ArgumentTypeError(refusal.format(_shown(text))) from None


# family: (graph builder taking the sizes, most sizes or None for any count)
_FAMILIES = {
    "cycle": (make_cycle, 1),
    "path": (make_path, 1),
    "grid": (lambda *dims: make_grid(dims), None),
}


def _sizes(family: str, raw: Sequence[str]) -> list[int]:
    """`raw` as integer sizes, once their count and vertex total suit `family`."""
    sizes = [_int_arg(item, "expected an integer size, got {}") for item in raw]
    most = _FAMILIES[family][1]
    if not sizes or (most is not None and len(sizes) > most):
        arity = "exactly one size parameter" if most == 1 else "one or more dimension sizes"
        raise _UsageError(f"{family} takes {arity}")
    # a size below 1 is left to the family's builder, which names it
    if min(sizes) > 0 and (count := _oversized(sizes, VERTEX_BUDGET)):
        # past six sizes, the first six and "...", as _shown shortens a tuple
        shown = " ".join(map(_shown, sizes[:6])) + (" ..." if len(sizes) > 6 else "")
        raise _UsageError(f"{family} {shown} has {count} vertices; the limit is {VERTEX_BUDGET}")
    return sizes


def _family_graph(family: str, raw: Sequence[str]) -> Graph:
    return _FAMILIES[family][0](*_sizes(family, raw))


def _dump(obj) -> str:
    return json.dumps(obj) + "\n"


def _cmd_generate(args) -> tuple[str, int]:
    graph = _family_graph(args.family, args.params)
    return (graph.to_dot() if args.dot else _dump(graph.to_dict())), EXIT_OK


def _cmd_witness(args) -> tuple[str, int]:
    sizes = _sizes(args.family, args.params)
    from .constructions import _construction

    name, extra, wit = _construction(args.family, sizes)
    return _dump({"construction": name, **extra, "k": wit.k, **wit.to_dict()}), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    graph = _load_graph(args.graph)
    from .stars import Witness, realized_edge_count, verify

    witness = Witness.from_dict(_load_json(args.witness, "witness"))
    # before the budgets: a witness of the wrong size is refused whatever it costs to realize
    _check_count(witness.n, graph.n)
    steps = witness.n * min(witness.k, witness.n)
    if steps > STEP_BUDGET:
        raise _UsageError(f"witness needs up to {steps} interval steps; the limit is {STEP_BUDGET}")
    if realized_edge_count(witness, EDGE_BUDGET) > EDGE_BUDGET:
        raise _UsageError(f"witness realizes too many edges; the limit is {EDGE_BUDGET}")
    report = verify(witness, graph)
    return _dump(report.to_dict()), (EXIT_OK if report.equal else EXIT_MISMATCH)


def _load_weights(path: str) -> list[int]:
    obj = _load_json(path, "weights")
    if isinstance(obj, dict) and "weights" in obj:
        obj = obj["weights"]
    if not isinstance(obj, list):
        raise _UsageError("weights JSON must be a list or contain a 'weights' list")
    return obj


def _cmd_obstruct(args) -> tuple[str, int]:
    graph = _load_graph(args.graph)
    weights = _load_weights(args.weights)
    from .obstruction import interleaving_certificate

    cert = interleaving_certificate(graph, weights, args.k)
    if cert is None:
        return "none\n", EXIT_NO_CERTIFICATE
    return _dump(cert.to_dict()), EXIT_OK


def _cmd_mink(args) -> tuple[str, int]:
    target = args.target
    if target[0] in _FAMILIES:
        graph = _family_graph(target[0], target[1:])
    elif len(target) == 1:
        graph = _load_graph(target[0])
    else:
        raise _UsageError("mink expects a graph file, '-', or a family with sizes")
    from dataclasses import fields

    from .search import SearchConfig, format_search_report, search_report

    given = {f.name: getattr(args, f.name) for f in fields(SearchConfig) if hasattr(args, f.name)}
    report = search_report(graph, SearchConfig(**given))
    return (format_search_report(report) if args.human else _dump(report)), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="starpcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as JSON or DOT")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="+")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("witness", help="emit a construction witness for a family")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="+")
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("verify", help="check that a witness realizes a graph")
    p.add_argument("graph")
    p.add_argument("witness")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("obstruct", help="search for an interleaving certificate")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("k", type=_int_arg)
    p.set_defaults(run=_cmd_obstruct)

    # Each search option is stored under the SearchConfig field it sets, and one
    # left out is absent from args, so that field keeps SearchConfig's default;
    # --human, not a search option, declares its own.
    p = sub.add_parser(
        "mink",
        help="search weight vectors for the fewest intervals",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("target", nargs="+", help="graph file, '-', or family with sizes")
    p.add_argument("--max-weight", type=_int_arg)
    p.add_argument("--mode", choices=SEARCH_MODES)
    p.add_argument("--trials", type=_int_arg)
    p.add_argument("--seed", type=_int_arg, dest="rng_seed", metavar="SEED")
    p.add_argument("--target-k", type=_int_arg)
    p.add_argument(
        "--jobs", type=_int_arg, help="census worker processes (random mode runs in-process)"
    )
    p.add_argument(
        "--prune-symmetry", action="store_true", help="target runs only (a census uses symmetry itself)"
    )
    p.add_argument(
        "--human", action="store_true", default=False, help="render a text summary instead of JSON"
    )
    p.set_defaults(run=_cmd_mink)

    # last, so that -o closes every command's usage line and option list
    for p in sub.choices.values():
        p.add_argument("-o", "--output", default="-")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        text, code = args.run(args)
        _write_text(args.output, text)
        return code
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # usage errors and domain errors (bad sizes, malformed JSON payloads, oversized search)
        print(f"starpcg: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
