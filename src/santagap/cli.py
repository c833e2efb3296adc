"""Command-line surface: JSON on stdout, exit 0/1/2/64.

Exit codes: 0 success, 1 validation failure (bad input, infeasible
verdicts asked to be feasible, a missing file or a directory given as
one), 2 inconclusive within budget, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import topology
from .allocation_graph import AllocationGraphError, build_H, build_J
from .gap_report import (
    GAP_BOUND,
    TSV_HEADER,
    BatchConfig,
    CoefficientError,
    evaluate_instance,
    run_gap_experiment,
    t_star_and_opt,
    verify_convex_combination,
)
from .graphs import GraphError, graph_to_json, load_graph, load_json
from .instance import InstanceError, ParseError, load_instance
from .lp_core import DualSolution, compute_t_star, verify_dual
from .rational import (
    RationalFormatError,
    RationalParseError,
    format_rational,
    parse_rational,
)
from .subsets import CapError
from .two_values import f_gap, rc_table

USAGE_EXIT = 64


class UsageError(Exception):
    """A usage error, with the usage line of the (sub)parser it concerns."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token such as -1/2 or -1e3 is a negative rational, not an option;
        # argparse's own pattern takes only -1 and -0.5 as numbers.  No
        # option of this parser starts with a digit.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message, self.format_usage())


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(message: str, code: int = 1) -> int:
    _emit({"error": message})
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # not an integer: refused as out of range is
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # not a number: refused as NaN is
        value = math.nan
    if not 0 <= value <= 1:  # also NaN
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _unit_interval_rational(text: str) -> Fraction:
    value = _rational(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"expected a rational in (0, 1], got {text!r}")
    return value


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="santagap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tstar", help="exact configuration-LP optimum T*")
    p.add_argument("instance")

    p = sub.add_parser(
        "opt", help="exact OPT: disjoint minimal configurations, scanned down from T*"
    )
    p.add_argument("instance")

    p = sub.add_parser("gap", help="T*, OPT and their ratio")
    p.add_argument("instance")
    p.add_argument("--bound", type=_positive_rational, default=GAP_BOUND)

    p = sub.add_parser("eta", help="eta of a graph JSON file")
    p.add_argument("graph")

    p = sub.add_parser("de-verify", help="replay a DE-sequence trace")
    p.add_argument("graph")
    p.add_argument("trace")

    p = sub.add_parser("de-search", help="search for a DE-sequence")
    p.add_argument("graph")
    p.add_argument("--objective", choices=["ko", "edgeless"], default="ko")
    p.add_argument("--budget", type=_positive_int, default=5000)

    p = sub.add_parser("hypergraph", help="emit H(alpha) (or its thin part) as JSON")
    p.add_argument("instance")
    p.add_argument("--alpha", required=True)
    p.add_argument("--target", default=None, help="defaults to T*")
    p.add_argument("--thin", action="store_true", help="emit J(alpha) instead")

    p = sub.add_parser("rc-table", help="(c, r_c, c/r_c) table")
    p.add_argument("--max", type=_positive_int, default=30)
    p.add_argument("--tsv", action="store_true")

    p = sub.add_parser("f-gap", help="two-values gap bound f(x)")
    p.add_argument("x", type=_unit_interval_rational)

    p = sub.add_parser("verify-coefficients", help="53/15 convex combination")
    p.add_argument("--T", required=True)
    p.add_argument("--m", required=True)

    p = sub.add_parser("dual-check", help="verify a dual solution JSON")
    p.add_argument("instance")
    p.add_argument("target")
    p.add_argument("dual")

    p = sub.add_parser("experiment", help="integrality-gap batch")
    p.set_defaults(parser=p)  # _check_batch_kind reports through it
    p.add_argument("--kind", choices=["random", "two_value"], default="random")
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--players", type=_positive_int, default=3)
    p.add_argument(
        "--resources", type=_positive_int, help="random batches only (default 7)"
    )
    p.add_argument("--density", type=_probability, default=0.6)
    p.add_argument("--eps", help="two_value batches only (default 1/4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=_positive_rational, default=GAP_BOUND)
    p.add_argument("--tsv", action="store_true")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_batch_kind(args)
    except UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    try:
        return _dispatch(args)
    except (
        InstanceError,
        AllocationGraphError,
        GraphError,
        RationalParseError,
        RationalFormatError,
        CoefficientError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        topology.SequenceError,
    ) as exc:
        return _fail(str(exc))
    except CapError as exc:
        return _fail(f"cap exceeded: {exc}")


def _check_batch_kind(args) -> None:
    """An experiment option that its batch kind does not read is an error."""
    if args.command != "experiment":
        return
    ignored = "--eps" if args.kind == "random" else "--resources"
    if getattr(args, ignored[2:]) is not None:
        args.parser.error(f"{ignored} does not apply to --kind {args.kind}")


def _dispatch(args) -> int:
    if args.command == "tstar":
        inst = load_instance(args.instance)
        res = compute_t_star(inst)
        _emit(
            {
                "schema": "santa-gap/1",
                "t_star": format_rational(res.t_star),
                "candidates": res.candidates_examined,
                "probes": res.probes,
            }
        )
        return 0

    if args.command == "opt":
        inst = load_instance(args.instance)
        _, res = t_star_and_opt(inst)
        _emit(
            {
                "schema": "santa-gap/1",
                "opt": format_rational(res.opt_value),
                "witness": {
                    p: sorted(s) for p, s in res.witness.assignment.items()
                },
            }
        )
        return 0

    if args.command == "gap":
        report = evaluate_instance(
            load_instance(args.instance), args.instance, args.bound
        )
        if report.skipped is not None:
            return _fail(f"cap exceeded: {report.skipped}")
        _emit(
            {
                "schema": "santa-gap/1",
                "t_star": format_rational(report.t_star),
                "opt": format_rational(report.opt),
                "gap": "inf" if report.gap_infinite else format_rational(report.gap),
                "bound_respected": report.bound_respected,
            }
        )
        return 0

    if args.command == "eta":
        g, _ = load_graph(args.graph)
        value = topology.eta(g)
        _emit({"eta": "inf" if value == topology.INF else int(value)})
        return 0

    if args.command == "de-verify":
        g, _ = load_graph(args.graph)
        trace = load_json(args.trace, topology.SequenceError)
        seq = topology.sequence_from_json(g, trace)
        res = topology.execute_sequence(g, seq)
        doc = {
            "valid": res.valid,
            "ell": res.ell,
            "final_vertices": len(res.final.vertices),
            "final_edges": len(res.final.edges),
            "eta_drop_certified": res.eta_drop_certified,
        }
        if not res.valid:
            doc["failed_at"] = res.failed_at
        _emit(doc)
        return 0 if res.valid else 1

    if args.command == "de-search":
        g, _ = load_graph(args.graph)
        out = topology.search_de_sequence(g, args.objective, budget=args.budget)
        doc = {
            "found": out.found,
            "conclusive": out.conclusive,
            "nodes": out.nodes,
        }
        if out.found:
            doc["trace"] = out.sequence.to_json()
        _emit(doc)
        if out.found:
            return 0
        return 2 if not out.conclusive else 0

    if args.command == "hypergraph":
        inst = load_instance(args.instance)
        alpha = parse_rational(args.alpha)
        target = (
            parse_rational(args.target)
            if args.target is not None
            else compute_t_star(inst).t_star
        )
        h = build_H(inst, target, alpha)
        if args.thin:
            h = build_J(h)
        _emit(
            graph_to_json(
                h.graph,
                parts=h.parts,
                alpha=format_rational(h.alpha),
                target=format_rational(h.target),
            )
        )
        return 0

    if args.command == "rc-table":
        rows = rc_table(args.max)
        if args.tsv:
            sys.stdout.write("c\tr_c\tratio\n")
            for row in rows:
                sys.stdout.write(
                    f"{row.c}\t{row.r_c}\t{format_rational(row.ratio)}\n"
                )
        else:
            _emit(
                [
                    {
                        "c": row.c,
                        "r_c": row.r_c,
                        "ratio": format_rational(row.ratio),
                    }
                    for row in rows
                ]
            )
        return 0

    if args.command == "f-gap":
        value = f_gap(args.x)
        _emit(
            {
                "x": format_rational(args.x),
                "f": format_rational(value),
                "decimal": float(value),
            }
        )
        return 0

    if args.command == "verify-coefficients":
        cert = verify_convex_combination(parse_rational(args.T), parse_rational(args.m))
        _emit(cert.to_json())
        return 0

    if args.command == "dual-check":
        inst = load_instance(args.instance)
        target = parse_rational(args.target)
        doc = load_json(args.dual, ParseError)
        if not (
            isinstance(doc, dict)
            and isinstance(doc.get("y"), dict)
            and isinstance(doc.get("z"), dict)
        ):
            return _fail('dual document must be an object with "y" and "z" objects')
        sol = DualSolution(
            {p: parse_rational(str(v)) for p, v in doc["y"].items()},
            {r: parse_rational(str(v)) for r, v in doc["z"].items()},
        )
        try:
            check = verify_dual(inst, target, sol)
        except ValueError as exc:  # players or resources do not match the instance
            return _fail(str(exc))
        out = {
            "feasible": check.feasible,
            "objective": format_rational(check.objective),
        }
        if check.violated is not None:
            out["violated"] = {
                "owner": check.violated.owner,
                "resources": list(check.violated.resources),
            }
        _emit(out)
        return 0

    if args.command == "experiment":
        options = {}
        if args.resources is not None:
            options["num_resources"] = args.resources
        if args.eps is not None:
            options["eps"] = parse_rational(args.eps)
        config = BatchConfig(
            kind=args.kind,
            count=args.count,
            num_players=args.players,
            density=args.density,
            **options,
        )
        reports = run_gap_experiment(config, args.bound, args.seed)
        if args.tsv:
            sys.stdout.write(TSV_HEADER + "\n")
            for rep in reports:
                sys.stdout.write(rep.to_tsv_row() + "\n")
        else:
            _emit([rep.to_json() for rep in reports])
        exceeded = any(rep.bound_respected is False for rep in reports)
        return 1 if exceeded else 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
