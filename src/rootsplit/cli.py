"""Command-line surface.

Subcommands: build, validate, subsystems, weights, split, wolf, classify.
Exit codes: 0 success, 1 usage/input error, 2 internal invariant violation.
Stdout is byte-identical across reruns; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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
from .rootcore import RootsplitError, ValidationReport, validate_root_system
from .splitting import case_analysis, find_splittings, wolf_certificate
from .subalgebra import enumerate_closed_subsystems, isotropy_weights


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _write(data: bytes, args) -> None:
    """Write the result bytes to --output, or to stdout; an --output that
    cannot be written is an input error."""
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise RootsplitError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.buffer.write(data)


def _emit_json(doc, args) -> int:
    _write((json.dumps(doc, indent=2) + "\n").encode(), args)
    return 0


def _cmd_build(args) -> int:
    system = parse_g_spec(args.g)
    return _emit_json(
        {
            "g": system.name,
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
        report = validate_root_system(parse_root_list(args.roots))
    elif args.g is not None:
        parse_g_spec(args.g)  # the build checks the axioms, and raises if they fail
        report = ValidationReport(())
    else:
        raise ParseError("validate needs either G or --roots")
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
    g = parse_g_spec(args.g)
    subs = enumerate_closed_subsystems(g, dedup=not args.no_dedup)
    return _emit_json(
        {
            "g": g.name,
            "dedup": not args.no_dedup,
            "count": len(subs),
            "subsystems": [
                {
                    "description": describe_subsystem(g, h),
                    "torus_corank": h.torus_corank,
                    "roots": [format_vector(g.ints[i], g.scale) for i in h.positions],
                }
                for h in subs
            ],
        },
        args,
    )


def _cmd_weights(args) -> int:
    g = parse_g_spec(args.g)
    h = parse_h_spec(g, args.h)
    w = isotropy_weights(g, h)
    return _emit_json(
        {
            "g": g.name,
            "h": describe_subsystem(g, h),
            "dim_M": w.dim_M,
            "quaternionic_n": format_rational(w.quaternionic_n),
            "weights": [format_vector(x, w.scale) for x in w.ints],
        },
        args,
    )


def _cmd_split(args) -> int:
    g = parse_g_spec(args.g)
    h = parse_h_spec(g, args.h)
    w = isotropy_weights(g, h)
    certs = find_splittings(w)
    return _emit_json(
        {
            "g": g.name,
            "h": describe_subsystem(g, h),
            "certificates": [
                certificate_dict(c, case_analysis(w, c).tag) for c in certs
            ],
        },
        args,
    )


def _cmd_wolf(args) -> int:
    g = parse_g_spec(args.g)
    cert = wolf_certificate(g)
    h = g.wolf
    return _emit_json(
        {
            "g": g.name,
            "h": describe_subsystem(g, h),
            "h_roots": [format_vector(g.ints[i], g.scale) for i in h.positions],
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
        started = time.monotonic()
        report = classify_all(
            args.max_rank,
            series=args.series,
            include_products=args.include_products,
        )
        print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    else:
        raise ParseError("classify needs either G and H, or --max-rank")
    data, code = emit(report, args.format)
    _write(data, args)
    return code


#: name -> (help, handler, argument specs as (flags, add_argument options))
_COMMANDS = {
    "build": ("emit a catalog root system", _cmd_build,
              [(("g",), {"help": "label, e.g. B3 or A1+A1"})]),
    "validate": ("check the root system axioms", _cmd_validate, [
        (("g",), {"nargs": "?", "help": "catalog label"}),
        (("--roots",), {"default": None, "help": "explicit JSON root list"}),
    ]),
    "subsystems": ("enumerate closed subsystems", _cmd_subsystems, [
        (("g",), {}),
        (("--no-dedup",), {"action": "store_true",
                           "help": "do not dedup by Weyl equivalence"}),
    ]),
    "weights": ("isotropy weight set of a pair", _cmd_weights, [
        (("g",), {}), (("h",), {"help": "'torus', 'wolf', 'TYPE#k' or a JSON root list"}),
    ]),
    "split": ("search for quaternionic weight splittings", _cmd_split,
              [(("g",), {}), (("h",), {})]),
    "wolf": ("Wolf subsystem and certificate", _cmd_wolf, [(("g",), {})]),
    "classify": ("classify one pair or the whole catalog", _cmd_classify, [
        (("g",), {"nargs": "?", "default": None}),
        (("h",), {"nargs": "?", "default": None}),
        (("--max-rank",), {"type": int, "default": None}),
        (("--series",), {"nargs": "*", "default": None,
                         "help": "restrict to these series letters"}),
        (("--include-products",), {"action": "store_true"}),
        (("--format",), {"choices": FORMATS, "default": "json"}),
    ]),
}


def _add_arguments(parser, name) -> None:
    """Give `parser` the arguments of command `name`, then --output."""
    _, func, specs = _COMMANDS[name]
    for flags, options in specs:
        parser.add_argument(*flags, **options)
    parser.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    parser.set_defaults(func=func)


def _full_parser():
    """The whole command tree, for help and usage errors."""
    parser = _Parser(prog="rootsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        # one command's arguments cost a fraction of the whole tree's
        parser = _Parser(prog=f"rootsplit {argv[0]}")
        _add_arguments(parser, argv[0])
        args = parser.parse_args(argv[1:])
    else:
        args = _full_parser().parse_args(argv)
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
