"""Command-line surface.

Subcommands: build, validate, subsystems, weights, split, wolf, classify.
Exit codes: 0 success, 1 usage error, 2 internal invariant violation.
Stdout is byte-identical across reruns; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import format_rational, format_vector
from .pipeline import (
    InvariantViolation,
    ParseError,
    classify_all,
    classify_pair,
    describe_subsystem,
    parse_g_spec,
    parse_h_spec,
    parse_root_list,
)
from .report import FORMATS, certificate_dict, emit
from .rootcore import RootsplitError, validate_root_system
from .splitting import case_analysis, find_splittings, wolf_certificate
from .subalgebra import enumerate_closed_subsystems, isotropy_weights, parent_context


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _write(data: bytes, args) -> None:
    """Write the result bytes to --output, or to stdout."""
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _emit_json(doc, args) -> int:
    _write((json.dumps(doc, indent=2) + "\n").encode(), args)
    return 0


def _cmd_build(args) -> int:
    label, system = parse_g_spec(args.g)
    return _emit_json(
        {
            "g": label,
            "ambient_dim": system.ambient_dim,
            "rank": system.rank,
            "root_count": len(system.ints),
            "roots": [format_vector(r, system.scale) for r in system.ints],
        },
        args,
    )


def _cmd_validate(args) -> int:
    if args.roots is not None and args.g is not None:
        raise ParseError("validate takes either G or --roots, not both")
    if args.roots is not None:
        vectors = parse_root_list(args.roots)
    elif args.g is not None:
        vectors = list(parse_g_spec(args.g)[1].roots)
    else:
        raise ParseError("validate needs either G or --roots")
    report = validate_root_system(vectors)
    return _emit_json(
        {
            "valid": report.ok,
            "violations": [
                {"axiom": v.axiom, "message": v.message,
                 "witness": [[format_rational(c) for c in w] for w in v.witness]}
                for v in report.violations
            ],
        },
        args,
    )


def _cmd_subsystems(args) -> int:
    label, system = parse_g_spec(args.g)
    ctx = parent_context(system)
    subs = enumerate_closed_subsystems(ctx, dedup=not args.no_dedup)
    return _emit_json(
        {
            "g": label,
            "dedup": not args.no_dedup,
            "count": len(subs),
            "subsystems": [
                {
                    "description": describe_subsystem(ctx, h),
                    "torus_corank": h.torus_corank,
                    "roots": [format_vector(system.ints[i], system.scale) for i in h.positions],
                }
                for h in subs
            ],
        },
        args,
    )


def _cmd_weights(args) -> int:
    label, system = parse_g_spec(args.g)
    ctx = parent_context(system)
    h = parse_h_spec(ctx, args.h)
    w = isotropy_weights(ctx, h)
    return _emit_json(
        {
            "g": label,
            "h": describe_subsystem(ctx, h),
            "dim_M": w.dim_M,
            "quaternionic_n": format_rational(w.quaternionic_n),
            "weights": [format_vector(x, w.scale) for x in w.ints],
        },
        args,
    )


def _cmd_split(args) -> int:
    label, system = parse_g_spec(args.g)
    ctx = parent_context(system)
    h = parse_h_spec(ctx, args.h)
    w = isotropy_weights(ctx, h)
    certs = find_splittings(w)
    return _emit_json(
        {
            "g": label,
            "h": describe_subsystem(ctx, h),
            "certificates": [
                certificate_dict(c, case_analysis(w, c).tag) for c in certs
            ],
        },
        args,
    )


def _cmd_wolf(args) -> int:
    label, system = parse_g_spec(args.g)
    ctx = parent_context(system)
    cert = wolf_certificate(ctx)
    h = ctx.wolf
    return _emit_json(
        {
            "g": label,
            "h": describe_subsystem(ctx, h),
            "h_roots": [format_vector(system.ints[i], system.scale) for i in h.positions],
            "certificate": certificate_dict(cert),
        },
        args,
    )


def _cmd_classify(args) -> int:
    batch_flags = args.max_rank is not None or args.series is not None or args.include_products
    if args.g is not None and batch_flags:
        raise ParseError("classify takes either G and H, or --max-rank and its flags, not both")
    if args.series == []:
        raise ParseError("--series needs at least one letter")
    if args.g is not None and args.h is not None:
        report = classify_pair(args.g, args.h)
    elif args.max_rank is not None:
        report = classify_all(
            args.max_rank,
            series=args.series,
            include_products=args.include_products,
        )
        print(f"elapsed: {report.elapsed_seconds:.2f}s", file=sys.stderr)
    else:
        raise ParseError("classify needs either G and H, or --max-rank")
    data, code = emit(report, args.format)
    _write(data, args)
    return code


def main(argv=None) -> int:
    parser = _Parser(prog="rootsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")

    p = sub.add_parser("build", help="emit a catalog root system")
    p.add_argument("g", help="label, e.g. B3 or A1+A1")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="check the root system axioms")
    p.add_argument("g", nargs="?", help="catalog label")
    p.add_argument("--roots", default=None, help="explicit JSON root list")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("subsystems", help="enumerate closed subsystems")
    p.add_argument("g")
    p.add_argument("--no-dedup", action="store_true",
                   help="do not dedup by Weyl equivalence")
    common(p)
    p.set_defaults(func=_cmd_subsystems)

    p = sub.add_parser("weights", help="isotropy weight set of a pair")
    p.add_argument("g")
    p.add_argument("h", help="'torus', 'wolf', 'TYPE#k' or a JSON root list")
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("split", help="search for quaternionic weight splittings")
    p.add_argument("g")
    p.add_argument("h")
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("wolf", help="Wolf subsystem and certificate")
    p.add_argument("g")
    common(p)
    p.set_defaults(func=_cmd_wolf)

    p = sub.add_parser("classify", help="classify one pair or the whole catalog")
    p.add_argument("g", nargs="?", default=None)
    p.add_argument("h", nargs="?", default=None)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--series", nargs="*", default=None,
                   help="restrict to these series letters")
    p.add_argument("--include-products", action="store_true")
    p.add_argument("--format", choices=FORMATS, default="json")
    common(p)
    p.set_defaults(func=_cmd_classify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ParseError, RootsplitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
