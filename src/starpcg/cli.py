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
from dataclasses import dataclass
from typing import Callable, Sequence

from .constructions import cycle_witness, grid_witness, path_witness
from .graphs import Graph, make_cycle, make_grid, make_path
from .obstruction import interleaving_certificate
from .search import (
    MODE_EXHAUSTIVE,
    MODE_RANDOM,
    SearchConfig,
    format_search_report,
    search_report,
)
from .stars import Witness, realized_edge_count, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_NO_CERTIFICATE = 2
EXIT_USAGE = 64

# Family sizes and graph files past this many vertices are refused before
# anything is built.  Just under it, `generate grid 316 316` takes about 1.2 s
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
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _cycle_witness(params: list[int]) -> tuple[str, dict, Witness]:
    (n,) = params
    return ("cycle-even" if n % 2 == 0 else "cycle-odd"), {"n": n}, cycle_witness(n)


def _path_witness(params: list[int]) -> tuple[str, dict, Witness]:
    (n,) = params
    return "path", {"n": n}, path_witness(n)


def _grid_witness(params: list[int]) -> tuple[str, dict, Witness]:
    if len(params) != 2:
        raise _UsageError("witness generation supports grids with exactly two dimensions")
    n1, n2 = params
    extra = {"n1": n1, "n2": n2}
    if min(n1, n2) == 1:
        name = "path"
    elif min(n1, n2) == 2:
        name = "grid-two-columns"
    elif n1 == n2:
        name, extra = "grid-square", {"h": n1, **extra}
    else:
        name, extra = "grid-square-restricted", {"h": max(n1, n2), **extra}
    return name, extra, grid_witness(n1, n2)


@dataclass(frozen=True)
class _Family:
    """How one graph family turns size parameters into a graph or a witness."""

    arity: str  # usage text for the accepted parameter count
    max_params: int | None  # None: any count >= 1
    graph: Callable[[list[int]], Graph]
    witness: Callable[[list[int]], tuple[str, dict, Witness]]


_FAMILIES = {
    "cycle": _Family("exactly one size parameter", 1, lambda p: make_cycle(p[0]), _cycle_witness),
    "path": _Family("exactly one size parameter", 1, lambda p: make_path(p[0]), _path_witness),
    "grid": _Family("one or more dimension sizes", None, make_grid, _grid_witness),
}
FAMILIES = tuple(_FAMILIES)


def _family(family: str, params: list[int]) -> _Family:
    """The registry entry for `family`, once its parameters pass arity and budget."""
    fam = _FAMILIES.get(family)
    if fam is None:
        raise _UsageError(f"unknown family {family!r}")
    if not params or (fam.max_params is not None and len(params) > fam.max_params):
        raise _UsageError(f"{family} takes {fam.arity}")
    vertices = math.prod(params)
    if min(params) > 0 and vertices > VERTEX_BUDGET:
        sizes = " ".join(map(str, params))
        raise _UsageError(f"{family} {sizes} has {vertices} vertices; the limit is {VERTEX_BUDGET}")
    return fam


def _dump(obj) -> str:
    return json.dumps(obj) + "\n"


def _cmd_generate(args) -> int:
    graph = _family(args.family, args.params).graph(args.params)
    text = graph.to_dot() if args.dot else _dump(graph.to_dict())
    _write_text(args.output, text)
    return EXIT_OK


def _cmd_witness(args) -> int:
    name, extra, wit = _family(args.family, args.params).witness(args.params)
    _write_text(args.output, _dump({"construction": name, **extra, "k": wit.k, **wit.to_dict()}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
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
    cert = interleaving_certificate(graph, weights, args.k)
    if cert is None:
        _write_text(args.output, "none\n")
        return EXIT_NO_CERTIFICATE
    _write_text(args.output, _dump(cert.to_dict()))
    return EXIT_OK


def _cmd_mink(args) -> int:
    target = args.target
    if target[0] in FAMILIES:
        params = _int_params(target[1:])
        graph = _family(target[0], params).graph(params)
    elif len(target) == 1:
        graph = _load_graph(target[0])
    else:
        raise _UsageError("mink expects a graph file, '-', or a family with sizes")
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


def _int_params(raw: Sequence[str]) -> list[int]:
    out = []
    for item in raw:
        try:
            out.append(int(item))
        except ValueError:
            raise _UsageError(f"expected an integer size, got {item!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="starpcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as JSON or DOT")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="+")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("witness", help="emit a construction witness for a family")
    p.add_argument("family", choices=FAMILIES)
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
    p.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_RANDOM), default=MODE_EXHAUSTIVE)
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
        if args.command in ("generate", "witness"):
            args.params = _int_params(args.params)
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
