"""Command line front end.

Exit codes: 0 success (and verify-equal), 1 verification mismatch, 2 no
certificate found, 64 usage or argument error.  Paths may be '-' for
stdin/stdout.  All randomness comes from an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

# Each handler imports the layers it calls once its input files have loaded,
# so a process loads only what its subcommand needs: `generate` stops at graphs.
from .graphs import Graph, make_cycle, make_grid, make_path

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
# `verify` refuses n * min(k, n) above this before counting edges: a vertex
# costs up to min(k+1, n) bisect steps even if no interval holds a pair sum.
# At the limit, weights 0, 2, ..., 6322 under 6324 odd singletons realize no
# edge yet take about 5.7 s on the same host (10^5 under 100 intervals: 6 s).
STEP_BUDGET = 10**7
# search.MODE_EXHAUSTIVE and search.MODE_RANDOM, spelled out so that building
# the parser does not import the search layer.
SEARCH_MODES = ("exhaustive", "random")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
        return json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what} from {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    obj = _load_json(path, "graph")
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > VERTEX_BUDGET:
        raise _UsageError(f"graph has {n} vertices; the limit is {VERTEX_BUDGET}")
    return Graph.from_dict(obj)


# family: (graph builder taking the sizes, most sizes or None for any count)
_FAMILIES = {
    "cycle": (make_cycle, 1),
    "path": (make_path, 1),
    "grid": (lambda *dims: make_grid(dims), None),
}


def _sizes(family: str, raw: Sequence[str]) -> list[int]:
    """`raw` as integer sizes, once their count and vertex total suit `family`."""
    sizes = []
    for item in raw:
        try:
            sizes.append(int(item))
        except ValueError:
            raise _UsageError(f"expected an integer size, got {item!r}") from None
    most = _FAMILIES[family][1]
    if not sizes or (most is not None and len(sizes) > most):
        arity = "exactly one size parameter" if most == 1 else "one or more dimension sizes"
        raise _UsageError(f"{family} takes {arity}")
    vertices = math.prod(sizes)
    if min(sizes) > 0 and vertices > VERTEX_BUDGET:
        shown = " ".join(map(str, sizes))
        raise _UsageError(f"{family} {shown} has {vertices} vertices; the limit is {VERTEX_BUDGET}")
    return sizes


def _family_graph(family: str, raw: Sequence[str]) -> Graph:
    return _FAMILIES[family][0](*_sizes(family, raw))


def _dump(obj) -> str:
    return json.dumps(obj) + "\n"


def _cmd_generate(args) -> int:
    graph = _family_graph(args.family, args.params)
    text = graph.to_dot() if args.dot else _dump(graph.to_dict())
    _write_text(args.output, text)
    return EXIT_OK


def _cmd_witness(args) -> int:
    sizes = _sizes(args.family, args.params)
    from .constructions import _construction

    name, extra, wit = _construction(args.family, sizes)
    _write_text(args.output, _dump({"construction": name, **extra, "k": wit.k, **wit.to_dict()}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    from .stars import Witness, realized_edge_count, verify

    witness = Witness.from_dict(_load_json(args.witness, "witness"))
    steps = witness.n * min(witness.k, witness.n)
    if steps > STEP_BUDGET:
        raise _UsageError(f"witness needs up to {steps} interval steps; the limit is {STEP_BUDGET}")
    if realized_edge_count(witness, EDGE_BUDGET) > EDGE_BUDGET:
        raise _UsageError(f"witness realizes too many edges; the limit is {EDGE_BUDGET}")
    report = verify(witness, graph)
    _write_text(args.output, _dump(report.to_dict()))
    return EXIT_OK if report.equal else EXIT_MISMATCH


def _load_weights(path: str) -> list[int]:
    obj = _load_json(path, "weights")
    if isinstance(obj, dict) and "weights" in obj:
        obj = obj["weights"]
    if not isinstance(obj, list):
        raise _UsageError("weights JSON must be a list or contain a 'weights' list")
    return obj


def _cmd_obstruct(args) -> int:
    graph = _load_graph(args.graph)
    weights = _load_weights(args.weights)
    from .obstruction import interleaving_certificate

    cert = interleaving_certificate(graph, weights, args.k)
    if cert is None:
        _write_text(args.output, "none\n")
        return EXIT_NO_CERTIFICATE
    _write_text(args.output, _dump(cert.to_dict()))
    return EXIT_OK


def _cmd_mink(args) -> int:
    target = args.target
    if target[0] in _FAMILIES:
        graph = _family_graph(target[0], target[1:])
    elif len(target) == 1:
        graph = _load_graph(target[0])
    else:
        raise _UsageError("mink expects a graph file, '-', or a family with sizes")
    from .search import SearchConfig, format_search_report, search_report

    cfg = SearchConfig(
        max_weight=args.max_weight,
        mode=args.mode,
        trials=args.trials,
        rng_seed=args.seed,
        target_k=args.target_k,
        jobs=args.jobs,
        prune_symmetry=args.prune_symmetry,
    )
    report = search_report(graph, cfg)
    text = format_search_report(report) if args.human else _dump(report)
    _write_text(args.output, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="starpcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as JSON or DOT")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="+")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("witness", help="emit a construction witness for a family")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="+")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("verify", help="check that a witness realizes a graph")
    p.add_argument("graph")
    p.add_argument("witness")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("obstruct", help="search for an interleaving certificate")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("k", type=int)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("mink", help="search weight vectors for the fewest intervals")
    p.add_argument("target", nargs="+", help="graph file, '-', or family with sizes")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--mode", choices=SEARCH_MODES, default=SEARCH_MODES[0])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-k", type=int, default=None)
    p.add_argument(
        "--jobs", type=int, default=1, help="census worker processes (random mode runs in-process)"
    )
    p.add_argument(
        "--prune-symmetry", action="store_true", help="census only (random mode never prunes)"
    )
    p.add_argument("--human", action="store_true", help="render a text summary instead of JSON")
    p.add_argument("-o", "--output", default="-")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        handler = {
            "generate": _cmd_generate,
            "witness": _cmd_witness,
            "verify": _cmd_verify,
            "obstruct": _cmd_obstruct,
            "mink": _cmd_mink,
        }[args.command]
        return handler(args)
    except ValueError as exc:
        # usage errors and domain errors (bad sizes, malformed JSON payloads, oversized search)
        print(f"starpcg: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
