"""Command-line front end.

Subcommands: group (construct and describe), cca (single-graph or
exhaustive group verdict), triple validate / triple search, reproduce
(the acceptance matrix).  Reports are plain dicts rendered as text or
JSON; exit codes: 0 success, 1 criterion failure, 2 usage or parse error,
3 resource limit exceeded, 4 internal error (a failed self-check).

--limit-enum is set once, on the group the command constructs, and bounds
every element listing of that group and of every subgroup taken from it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import groupzoo as gz
from . import reproduce as rp
from . import triples as tr
from .cayley import ConnectionSet, InvalidConnectionSet, build
from .colourauts import DEFAULT_BUDGET, is_cca_graph, is_cca_group_exhaustive
from .fgroup import DEFAULT_ENUM_LIMIT, DEFAULT_GRAPH_LIMIT, LimitExceeded
from .permcore import PermutationGroup

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


class CLIError(ValueError):
    """Bad user input (maps to exit code 2)."""


def _parse_elements(G, text: str) -> list:
    """Comma-separated element list in the group's own notation."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(G.elem_parse(part))
        except Exception as ex:
            raise CLIError(f"cannot parse element {part!r}: {ex}") from ex
    return out


def _spec_point(G, text: str) -> int:
    """A 1-based spec point, checked against 1..degree, made 0-based."""
    p = int(text)
    if not 1 <= p <= G.degree:
        raise CLIError(f"point {p} outside 1..{G.degree}")
    return p - 1


def _parse_subgroup(G, spec: str):
    """Subgroup specs: point:K | pointwise:PTS | setwise:PTS |
    dihedral:M | gens:ELEMS.  Points are 1-based, matching cycle notation.
    """
    kind, _, arg = spec.partition(":")
    if (kind in ("point", "pointwise", "setwise")
            and not isinstance(G, PermutationGroup)):
        raise CLIError(f"subgroup spec {spec!r} needs a permutation group")
    try:
        if kind == "point":
            return G.point_stabilizer(_spec_point(G, arg))
        if kind == "pointwise":
            pts = [_spec_point(G, p) for p in arg.split(",")]
            return gz.pointwise_stabilizer(G, pts)
        if kind == "setwise":
            pts = [_spec_point(G, p) for p in arg.split(",")]
            return gz.setwise_stabilizer(G, pts)
        if kind == "dihedral":
            cyc = gz.cyclic_subgroups_of_order(G, int(arg))
            if not cyc:
                raise CLIError(f"no cyclic subgroup of order {arg}")
            return gz.normalizer_bruteforce(G, cyc[0])
        if kind == "gens":
            gens = _parse_elements(G, arg)
            for g in gens:
                if not G.contains(g):
                    raise CLIError(f"element {G.elem_str(g)} not in G")
            return G.generated_subgroup(gens)
    except CLIError:
        raise
    except ValueError as ex:
        raise CLIError(f"bad subgroup spec {spec!r}: {ex}") from ex
    raise CLIError(f"unknown subgroup spec kind {kind!r}")


def _construct(args):
    try:
        return gz.construct(args.expr, args.limit_enum)
    except LimitExceeded:
        raise
    except Exception as ex:
        raise CLIError(f"cannot construct group {args.expr!r}: {ex}") from ex


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise CLIError(f"cannot write report to {args.out}: "
                           f"{ex.strerror}") from ex
    if args.json or not args.out:
        print(text if args.json else _render_text(report))


def _render_text(report: dict) -> str:
    lines = []

    def walk(obj, pad):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, pad + "  ")
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, pad + "  ")
                else:
                    lines.append(f"{pad}- {v}")

    walk(report, "")
    return "\n".join(lines)


def cmd_group(args) -> int:
    G = _construct(args)
    report = rp.report_head("group", enum_limit=args.limit_enum)
    degree = getattr(G, "degree", None)
    report["results"] = {
        "expr": args.expr,
        "order": G.order(),
        "degree": degree,
        "has_element_of_order4": gz.has_element_of_order4(G),
        "involution_count": len(G.involutions()),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_cca(args) -> int:
    G = _construct(args)
    report = rp.report_head("cca", budget=args.budget,
                            graph_limit=args.limit_graph,
                            enum_limit=args.limit_enum)
    if args.exhaustive:
        verdict = is_cca_group_exhaustive(G, args.budget, args.limit_graph)
        report["results"] = verdict.to_json_dict(G)
    else:
        elems = _parse_elements(G, args.set)
        conn = ConnectionSet.from_elements(G, elems, close_inverses=True)
        graph = build(G, conn, args.limit_graph)
        if not graph.is_connected():
            report["results"] = {
                "group_order": G.order(),
                "S": [G.elem_str(s) for s in conn.elements],
                "connected": False,
            }
        else:
            verdict = is_cca_graph(graph)
            report["results"] = verdict.to_json_dict(graph)
    _emit(report, args)
    return EXIT_OK


def cmd_triple(args) -> int:
    G = _construct(args)
    report = rp.report_head(f"triple {args.action}",
                            graph_limit=args.limit_graph,
                            enum_limit=args.limit_enum)
    if args.action == "validate":
        if args.tau is None:
            raise CLIError("triple validate requires --tau")
        S = _parse_elements(G, args.S or "")
        T = _parse_elements(G, args.T or "")
        tau = _parse_elements(G, args.tau)
        if len(tau) != 1:
            raise CLIError("--tau must be a single element")
        try:
            trip = tr.validate_triple(G, S, T, tau[0])
        except ValueError as ex:
            raise CLIError(str(ex)) from ex
        results = trip.to_json_dict()
        crosscheck = trip.valid and args.crosscheck
    else:
        if not args.subgroup:
            raise CLIError("triple search requires --subgroup")
        H = _parse_subgroup(G, args.subgroup)
        trip = tr.search_triple_subgroup_strategy(G, H)
        results = {"found": trip is not None, "subgroup_order": H.order()}
        if trip is not None:
            results |= trip.to_json_dict()
        crosscheck = trip is not None
    if crosscheck:
        rep = tr.crosscheck_prop22(G, trip, args.limit_graph)
        results["crosscheck"] = rep.to_json_dict()
    report["results"] = results
    _emit(report, args)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    only = None
    if args.only is not None:
        only = [f"criterion_{part}" if part.isdigit() else part
                for part in map(str.strip, args.only.split(","))]
    try:
        rp.check_selection(only)
    except ValueError as ex:
        raise CLIError(str(ex)) from ex
    report = rp.run_suite(only=only, seed=args.seed, with_timing=args.timing)
    _emit(report, args)
    if not report["passed"]:
        failed = [k for k, v in report["results"].items()
                  if not v.get("pass", False)]
        print(f"FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CRITERION
    return EXIT_OK


def _non_negative(text: str) -> int:
    """An int flag value that may not be negative (exit 2 if it is)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# Settings flags; each subcommand takes only those its handler reads.
_FLAGS = {
    "--budget": dict(type=_non_negative, default=DEFAULT_BUDGET,
                     help="connection sets an exhaustive sweep may examine"),
    "--limit-enum": dict(type=_non_negative, default=DEFAULT_ENUM_LIMIT,
                         help="max element count of any group or subgroup "
                              "the command lists (exit 3 when exceeded)"),
    "--limit-graph": dict(type=_non_negative, default=DEFAULT_GRAPH_LIMIT,
                          help="max vertex count for graph construction "
                               "(exit 3 when exceeded)"),
    "--seed": dict(type=int, default=rp.DEFAULT_SEED,
                   help="seed for the randomized property suites"),
    "--timing": dict(action="store_true",
                     help="include wall-clock timing in the report"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the full JSON report on stdout")
    p.add_argument("--out", metavar="FILE", help="write JSON report to FILE")
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccakit",
        description="CCA verdicts and non-CCA certificates for coloured "
                    "Cayley graphs of finite groups")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("group", help="construct a group and describe it")
    p.add_argument("expr", help="group expression, e.g. 'S5', 'PSL2(17)', "
                   "'C2 x D4', 'higman:n=6,seed=1'")
    _add_flags(p, "--limit-enum")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("cca", help="CCA verdict for a graph or a group")
    p.add_argument("expr")
    graphs = p.add_mutually_exclusive_group(required=True)
    graphs.add_argument("--set", metavar="ELEMS",
                        help="comma-separated connection set (inverses "
                             "added)")
    graphs.add_argument("--exhaustive", action="store_true",
                        help="check every connected Cayley graph of the "
                             "group")
    _add_flags(p, "--limit-enum", "--limit-graph", "--budget")
    p.set_defaults(fn=cmd_cca)

    p = sub.add_parser("triple", help="validate or search non-CCA triples")
    p.add_argument("action", choices=["validate", "search"])
    p.add_argument("expr")
    p.add_argument("--S", metavar="ELEMS", help="elements of S")
    p.add_argument("--T", metavar="ELEMS", help="elements of T")
    p.add_argument("--tau", metavar="ELEM", help="the involution tau")
    p.add_argument("--subgroup", metavar="SPEC",
                   help="point:K | pointwise:PTS | setwise:PTS | "
                        "dihedral:M | gens:ELEMS (points 1-based)")
    p.add_argument("--crosscheck", action="store_true",
                   help="also verify the graph is connected and non-CCA")
    _add_flags(p, "--limit-enum", "--limit-graph")
    p.set_defaults(fn=cmd_triple)

    p = sub.add_parser("reproduce", help="run the acceptance matrix")
    p.add_argument("--only", metavar="LIST",
                   help="comma-separated criteria, e.g. 'criterion_3' or '3,4'")
    _add_flags(p, "--seed", "--timing")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (CLIError, InvalidConnectionSet) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as ex:
        print(f"limit exceeded: {ex}", file=sys.stderr)
        return EXIT_LIMIT
    except AssertionError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
