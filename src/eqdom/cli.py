"""Command line front end.

All output is plain text and deterministic: the same invocation produces
byte-identical output.  Exit codes: 0 success or affirmative, 1 negative
answer or failed re-validation, 2 input error, 3 unknown within bounds.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .geometry import (
    BoundExceededError,
    CertificateError,
    PointSet,
    Unknown,
    ed_verdict,
    equation_text,
    format_certificate,
    is_algebraic,
    parse_equations,
    parse_point,
    point_text,
    rosenblatt_check,
    solution_set,
    validate_certificate,
    validate_verdict,
)
from .catalog import CATALOG_NAMES, by_name
from .partialmap import domain_of, render
from .semigroup import (
    hasse_dot,
    incomparable_pairs,
    is_group,
    load_semigroup,
    wagner_preston,
)
from .terms import DEFAULT_MAX_CELLS, _check_points


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eqdom",
        description="equation solving and algebraic-set geometry over finite inverse semigroups",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, needs_arity=False, points=False):
        if points:
            p.add_argument(
                "points", nargs="*", metavar="[TABLE] POINT",
                help="Cayley table file unless --catalog is given, then points: "
                "'(e,f)', or bare names at arity 1",
            )
        else:
            p.add_argument("table", nargs="?", help="Cayley table file")
        p.add_argument("--catalog", choices=CATALOG_NAMES, help="built-in semigroup")
        p.add_argument("--no-header", action="store_true", help="suppress the version line")
        if needs_arity:
            p.add_argument(
                "--arity", type=_positive_int, default=None, metavar="N",
                help="number of variables (default: inferred)",
            )

    def add_max_cells(p):
        p.add_argument(
            "--max-cells", type=_positive_int, default=DEFAULT_MAX_CELLS, metavar="N",
            help="closure cap per answer: subalgebra vectors times input points "
            "(default %(default)s)",
        )

    p = sub.add_parser("info", help="orders, idempotents, zero/identity, order shape")
    add_common(p)
    p = sub.add_parser("hasse", help="DOT digraph of the idempotent order")
    add_common(p)
    p.add_argument("--dot", metavar="FILE", help="write DOT here instead of stdout")
    p = sub.add_parser("embed", help="partial-injection representation, one line per element")
    add_common(p)
    p = sub.add_parser("solve", help="solution set of a system of equations")
    add_common(p, needs_arity=True)
    p.add_argument(
        "--eq", action="append", default=[], metavar="'LHS = RHS'",
        help="equation, repeatable",
    )
    p = sub.add_parser("closure", help="algebraic closure of a point set")
    add_common(p, needs_arity=True, points=True)
    add_max_cells(p)
    p = sub.add_parser("is-algebraic", help="least-superset test for a point set")
    add_common(p, needs_arity=True, points=True)
    add_max_cells(p)
    p = sub.add_parser("verify", help="equational-domain verdict with certificates")
    add_common(p)
    add_max_cells(p)
    p.add_argument(
        "--rosenblatt", action="store_true",
        help="check the fixed 4-ary union {x1=x2} or {x3=x4} instead",
    )
    return top


def _load(args):
    if args.catalog and args.table:
        raise ValueError("give either --catalog or a table file, not both")
    if args.catalog:
        return by_name(args.catalog)
    if args.table:
        return load_semigroup(args.table)
    raise ValueError("no semigroup given: use --catalog or a table file")


def _header(args, sg, out):
    if not args.no_header:
        print(f"eqdom {__version__}", file=out)
    print(f"semigroup: {sg.label or 'anonymous'}", file=out)


def cmd_info(args, sg, out) -> int:
    _header(args, sg, out)
    print(f"order: {sg.order}", file=out)
    print(f"elements: {' '.join(sg.names)}", file=out)
    print("inverse: yes", file=out)
    print(f"group: {'yes' if is_group(sg) else 'no'}", file=out)
    idem = " ".join(sg.names[e] for e in sorted(sg.idempotents))
    print(f"idempotents: {len(sg.idempotents)} ({idem})", file=out)
    print(f"zero: {sg.names[sg.zero] if sg.zero is not None else 'none'}", file=out)
    print(
        f"identity: {sg.names[sg.identity] if sg.identity is not None else 'none'}",
        file=out,
    )
    pairs = incomparable_pairs(sg)
    if not pairs:
        print("idempotent-order: chain", file=out)
    else:
        e, f = pairs[0]
        print(f"idempotent-order: incomparable ({sg.names[e]}, {sg.names[f]})", file=out)
    return 0


def cmd_hasse(args, sg, out) -> int:
    dot = hasse_dot(sg)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        dot = f"wrote {args.dot}\n"
    _header(args, sg, out)
    out.write(dot)
    return 0


def cmd_embed(args, sg, out) -> int:
    _header(args, sg, out)
    thetas = wagner_preston(sg)
    for s, theta in enumerate(thetas):
        dom = " ".join(sg.names[i] for i in sorted(domain_of(theta)))
        print(f"{sg.names[s]}: {{{dom}}} -> {render(theta, sg.names)}", file=out)
    return 0


def cmd_solve(args, sg, out) -> int:
    if not args.eq:
        raise ValueError("no equations given: use --eq 'LHS = RHS'")
    system = parse_equations(sg, args.eq, args.arity)
    _header(args, sg, out)
    for eq in system.equations:
        print(f"system: {equation_text(sg, eq)}", file=out)
    print(f"arity: {system.arity}", file=out)
    try:
        solutions = solution_set(sg, system)
    except BoundExceededError as exc:
        print(f"solutions: unknown ({exc})", file=out)
        return 3
    print(f"solutions: {len(solutions.members)}", file=out)
    for p in solutions.sorted_members():
        print(point_text(sg, p), file=out)
    return 0


def cmd_closure(args, sg, out) -> int:
    if not args.points:
        raise ValueError("no points given")
    points = [parse_point(sg, t) for t in args.points]
    _check_points(sg, points)
    arity = len(points[0])
    if args.arity is not None and args.arity != arity:
        raise ValueError(f"--arity {args.arity} but the points have arity {arity}")
    pts = PointSet(arity, frozenset(points))
    _header(args, sg, out)
    print(f"arity: {pts.arity}", file=out)
    print(f"input: {', '.join(point_text(sg, p) for p in pts.sorted_members())}", file=out)
    try:
        verdict = is_algebraic(sg, pts, max_cells=args.max_cells)
    except BoundExceededError as exc:
        print(f"verdict: unknown ({exc})", file=out)
        return 3
    report = verdict.report
    print(f"closure-size: {len(report.points.members)}", file=out)
    print(f"exact: {'true' if report.exact else 'false'}", file=out)
    if args.command == "closure":
        print("members:", file=out)
        for p in report.points.sorted_members():
            print(point_text(sg, p), file=out)
    if verdict.status == "unknown":
        print("verdict: unknown (clone truncated; raise --max-cells)", file=out)
        return 3
    print(f"verdict: {verdict.status}", file=out)
    if verdict.status == "yes":
        return 0
    print(f"witness: {point_text(sg, verdict.witness)}", file=out)
    return 1


def cmd_verify(args, sg, out) -> int:
    if args.rosenblatt:
        return _verify_rosenblatt(args, sg, out)
    verdict = ed_verdict(sg, max_cells=args.max_cells)
    _header(args, sg, out)
    if verdict.status == "GroupOutOfScope":
        print("verdict: GroupOutOfScope", file=out)
        print(
            "note: the classification of equational domains among groups is a "
            "separate known result and is not decided here",
            file=out,
        )
    elif verdict.certified:
        print("verdict: NotED", file=out)
    else:
        print("verdict: NotED (not certified at this size)", file=out)
    for reason in verdict.truncated:
        print(f"truncated: {reason}", file=out)
    if not verdict.certificates:
        return 3
    return _report_certificates(
        sg, verdict.certificates, out,
        lambda: validate_verdict(sg, verdict, max_cells=args.max_cells),
    )


def _verify_rosenblatt(args, sg, out) -> int:
    result = rosenblatt_check(sg, max_cells=args.max_cells)
    _header(args, sg, out)
    print("check: rosenblatt-union", file=out)
    if isinstance(result, Unknown):
        print(f"result: unknown ({result.reason})", file=out)
        return 3
    if result is None:
        print("result: algebraic (no certificate)", file=out)
        return 0
    print("result: not-algebraic", file=out)
    return _report_certificates(
        sg, (result,), out,
        lambda: validate_certificate(sg, result, max_cells=args.max_cells),
    )


def _report_certificates(sg, certificates, out, recheck) -> int:
    """Print each certificate, then the outcome of recheck(): 0 if it
    passes, 1 if it raises CertificateError."""
    for cert in certificates:
        print("", file=out)
        print(format_certificate(sg, cert), file=out)
    try:
        recheck()
    except CertificateError as exc:
        print("", file=out)
        print(f"revalidation: FAILED ({exc})", file=out)
        return 1
    print("", file=out)
    print("revalidation: ok", file=out)
    return 0


_COMMANDS = {
    "info": cmd_info,
    "hasse": cmd_hasse,
    "embed": cmd_embed,
    "solve": cmd_solve,
    "closure": cmd_closure,
    "is-algebraic": cmd_closure,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if hasattr(args, "points"):
        # argparse takes only the first run of operands, so points after an
        # option come back unparsed, still in order; the first operand is
        # the table file unless --catalog is given
        args.points += [a for a in rest if not a.startswith("-")]
        rest = [a for a in rest if a.startswith("-")]
        args.table = args.points.pop(0) if args.points and not args.catalog else None
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        sg = _load(args)
        return _COMMANDS[args.command](args, sg, sys.stdout)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
